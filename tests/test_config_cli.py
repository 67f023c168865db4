"""Config parsing/hashing and end-to-end CLI runs with exit-code contracts."""

import json
import os

import pytest

from tbsim.cli import main
from tbsim.config import ConfigError, RunConfig, config_hash, parse_config

MINI_CFG = """\
seed = 42
state.visibility = 0.70
tomography.cycles_per_setting = 20000
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# --- config -------------------------------------------------------------------

def test_parse_config_basics():
    m = parse_config("a.b = 1\n# comment\n\nc = x  # trailing\n")
    assert m == {"a.b": "1", "c": "x"}


def test_parse_config_errors():
    with pytest.raises(ConfigError):
        parse_config("just a line\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        parse_config("a =\n")


def test_config_hash_stable_under_reordering():
    a = parse_config("x = 1\ny = 2\n")
    b = parse_config("y = 2\nx = 1\n")
    assert config_hash(a) == config_hash(b)
    c = parse_config("y = 2\nx = 3\n")
    assert config_hash(a) != config_hash(c)


def test_run_config_validation(tmp_path):
    cfg = RunConfig.from_file(write(tmp_path, "a.cfg", MINI_CFG))
    assert cfg.seed == 42
    assert cfg.state.visibility == 0.70
    with pytest.raises(ConfigError, match="seed"):
        RunConfig.from_mapping({"state.visibility": "0.5"})
    with pytest.raises(ConfigError):
        RunConfig.from_mapping({"seed": "1", "detector.efficiency": "2.0"})
    with pytest.raises(ConfigError, match="autocorr.photon"):
        RunConfig.from_mapping({"seed": "1", "autocorr.photon": "z"})


def test_baseline_config_ships_and_validates():
    root = os.path.join(os.path.dirname(__file__), "..")
    cfg = RunConfig.from_file(os.path.join(root, "baseline.cfg"))
    assert cfg.emitter.tau_xx == 300.0
    assert cfg.emitter.tau_x == 468.0
    assert cfg.state.visibility == 0.70


# --- CLI ----------------------------------------------------------------------

def test_simulate_tomography_schema_and_determinism(tmp_path):
    cfg = write(tmp_path, "run.cfg", MINI_CFG)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["simulate", "tomography", "--config", cfg, "--out", out1]) == 0
    assert main(["simulate", "tomography", "--config", cfg, "--out", out2]) == 0
    data1 = open(os.path.join(out1, "tomography_counts.csv")).read()
    data2 = open(os.path.join(out2, "tomography_counts.csv")).read()
    assert data1 == data2  # byte-identical rerun
    lines = data1.splitlines()
    assert lines[0] == "xx_proj,x_proj,count"
    assert len(lines) == 17
    manifest = json.load(open(os.path.join(out1, "manifest.json")))
    assert manifest["seed"] == 42
    assert manifest["config_hash"]
    assert any(o["path"].endswith("tomography_counts.csv")
               for o in manifest["outputs"])


def test_seed_flag_overrides_config(tmp_path):
    cfg = write(tmp_path, "run.cfg", MINI_CFG)
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    main(["simulate", "tomography", "--config", cfg, "--out", out1])
    main(["simulate", "tomography", "--config", cfg, "--seed", "7",
          "--out", out2])
    a = open(os.path.join(out1, "tomography_counts.csv")).read()
    b = open(os.path.join(out2, "tomography_counts.csv")).read()
    assert a != b


def test_missing_seed_exits_2(tmp_path):
    cfg = write(tmp_path, "bad.cfg", "state.visibility = 0.7\n")
    assert main(["simulate", "tomography", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2


def test_malformed_csv_exits_3(tmp_path):
    bad = write(tmp_path, "bad.csv", "delay_ps,counts\nnot-a-row\n")
    assert main(["analyze", "g2", bad, "--out", str(tmp_path / "o")]) == 3


_LABELS = ("E", "L", "P", "Pi")


def _counts(n=100, extra=""):
    rows = "".join(f"{a},{b},{n}\n" for a in _LABELS for b in _LABELS)
    return "xx_proj,x_proj,count\n" + rows + extra


def _flat_hist(shift=0.0):
    # 41 bins of 10 ps around 0, flat: g2(0) = 1 with --rep-period 40
    rows = "".join(f"{-200.0 + 10.0 * i + shift!r},50\n" for i in range(41))
    return "# bin_width_ps=10.0\n# origin_ps=-205.0\ndelay_ps,counts\n" + rows


_BUDGET = {"count_rate": "61000", "rep_rate": "80e6", "blinking": "0.625",
           "p_emit": "0.65", "eta_detector": "0.25", "eta_fiber": "0.4",
           "eta_setup": "0.12"}


def _budget(**override):
    return "".join(f"xx.{k} = {v}\n" for k, v in {**_BUDGET, **override}.items())


# case: (command, content of the input file or of the config after the
# seed line, extra flags, expected exit code)
_MALFORMED = {
    "tomo-all-zero-counts": ("analyze tomo", _counts(0), [], 3),
    "tomo-duplicate-setting": ("analyze tomo", _counts(extra="E,E,5\n"), [], 3),
    "tomo-unknown-setting": ("analyze tomo", _counts(extra="E,X,5\n"), [], 3),
    "tomo-not-utf8": ("analyze tomo", b"\xff\xfexx_proj,x_proj,count\n", [], 3),
    "g2-no-rows": ("analyze g2", "# bin_width_ps=10.0\ndelay_ps,counts\n", [], 3),
    "g2-shifted-delay-column": ("analyze g2", _flat_hist(shift=5.0),
                                ["--rep-period", "40"], 3),
    "rabi-nan": ("analyze rabi", "sqrt_power,counts\n0.1,5\nnan,9\n0.3,20\n", [], 3),
    "rabi-one-row": ("analyze rabi", "sqrt_power,counts\n0.5,40\n", [], 3),
    "budget-unparsable-value": ("analyze budget", _budget(count_rate="abc"), [], 3),
    "budget-out-of-range": ("analyze budget", _budget(blinking="1.5"), [], 3),
    "hom-visibility-above-1": ("simulate hom", "hom.mutual_visibility = 1.5\n", [], 2),
    "autocorr-negative-g2": ("simulate autocorr", "autocorr.g2_target = -0.5\n", [], 2),
    "tomography-negative-cycles": (
        "simulate tomography", "tomography.cycles_per_setting = -5\n", [], 2),
    "hom-zero-cycles": ("simulate hom", "hom.cycles = 0\n", [], 2),
    "autocorr-zero-cycles": ("simulate autocorr", "autocorr.cycles = 0\n", [], 2),
    "lifetime-zero-counts": ("simulate lifetime", "lifetime.counts = 0\n", [], 2),
    "rabi-negative-cycles": ("simulate rabi", "rabi.cycles_per_point = -5\n", [], 2),
    "cavity-na-above-1": ("cavity efficiency", None, ["--nas", "1.5"], 2),
    "cavity-negative-height": ("cavity purcell", None, ["--heights", "-1"], 2),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_input_exit_code_and_one_line(tmp_path, capsys, case):
    command, content, flags, code = _MALFORMED[case]
    argv = command.split() + flags + ["--out", str(tmp_path / "o")]
    if command.startswith("simulate"):
        argv += ["--config", write(tmp_path, "run.cfg", "seed = 1\n" + content)]
    elif content is not None:
        path = tmp_path / "input"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        argv.insert(2, str(path))
    assert main(argv) == code
    err = capsys.readouterr().err
    prefix = "data error: " if code == 3 else "config error: "
    assert err.startswith(prefix) and err.count("\n") == 1, err


def test_missing_input_exits_3(tmp_path):
    assert main(["analyze", "g2", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "o")]) == 3


def test_analyze_tomo_closure(tmp_path):
    cfg = write(tmp_path, "run.cfg", MINI_CFG)
    out = str(tmp_path / "sim")
    main(["simulate", "tomography", "--config", cfg, "--out", out])
    ana = str(tmp_path / "ana")
    assert main(["analyze", "tomo", os.path.join(out, "tomography_counts.csv"),
                 "--out", ana, "--mc-runs", "10"]) == 0
    res = json.load(open(os.path.join(ana, "analyze_tomo.json")))
    assert res["concurrence"] == pytest.approx(0.70, abs=0.08)
    assert res["fidelity"] == pytest.approx(0.85, abs=0.04)
    assert res["inputs"][0]["sha256"]


def test_analyze_budget_channels(tmp_path):
    root = os.path.join(os.path.dirname(__file__), "..")
    ana = str(tmp_path / "b")
    assert main(["analyze", "budget", os.path.join(root, "budget.cfg"),
                 "--out", ana]) == 0
    res = json.load(open(os.path.join(ana, "analyze_budget.json")))
    assert res["xx"]["eta_first_lens"] == pytest.approx(61000 / 390000, abs=1e-12)
    assert res["x"]["eta_first_lens"] == pytest.approx(26000 / 175500, abs=1e-12)


def test_cavity_commands(tmp_path):
    out = str(tmp_path / "cav")
    assert main(["cavity", "efficiency", "--out", out]) == 0
    res = json.load(open(os.path.join(out, "efficiency.json")))
    assert abs(res["wavelength_nm"] - 936.0) < 2.0
    etas = res["extraction_efficiency"]
    assert etas["0.62"] < etas["0.7"]

    out2 = str(tmp_path / "pur")
    assert main(["cavity", "purcell", "--out", out2,
                 "--heights", "10", "20", "30"]) == 0
    rows = open(os.path.join(out2, "purcell.csv")).read().splitlines()[1:]
    purcells = [float(r.split(",")[2]) for r in rows]
    assert purcells == sorted(purcells)  # monotone in confinement


def test_lifetime_pipeline_convergence_exit(tmp_path):
    cfg = write(tmp_path, "run.cfg", MINI_CFG + "lifetime.counts = 50000\n")
    out = str(tmp_path / "lt")
    assert main(["simulate", "lifetime", "--config", cfg, "--out", out]) == 0
    ana = str(tmp_path / "lta")
    code = main(["analyze", "lifetime", os.path.join(out, "lifetime_hist.csv"),
                 "--out", ana])
    assert code == 0
    res = json.load(open(os.path.join(ana, "analyze_lifetime.json")))
    assert res["tau_ps"] == pytest.approx(300.0, rel=0.02)
