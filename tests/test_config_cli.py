"""Config parsing/hashing and end-to-end CLI runs with exit-code contracts."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from tbsim import cavity, tomo
from tbsim.cli import _check_resolution, build_parser, main
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
    for key, value in (("autocorr.g2_target", "-0.5"), ("autocorr.g2_target", "nan"),
                       ("hom.mutual_visibility", "1.5"),
                       ("hom.mutual_visibility", "-0.1")):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            RunConfig.from_mapping({"seed": "1", key: value})


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


def _flat_hist(shift=0.0, centre=50):
    # 41 bins of 10 ps around 0, flat save the bin at 0: g2(0) = 1 with --rep-period 40
    rows = "".join(f"{-200.0 + 10.0 * i + shift!r},{centre if i == 20 else 50}\n"
                   for i in range(41))
    return "# bin_width_ps=10.0\n# origin_ps=-205.0\ndelay_ps,counts\n" + rows


def _decay_hist():
    # a 300 ps exponential decay in 4 ps bins from 0, 73k counts: fits with --jitter-fwhm 0
    rows = "".join(f"{2.0 + 4.0 * i!r},{round(1000 * np.exp(-4.0 * i / 300.0))}\n"
                   for i in range(750))
    return "# bin_width_ps=4.0\n# origin_ps=0.0\ndelay_ps,counts\n" + rows


def _jittered_decay_hist():
    # the same decay from 100 ps, seen through a 16 ps FWHM Gaussian response (the
    # exponnorm density at each bin centre), 100k counts: fits with --jitter-fwhm 16 only
    s, tau = 16.0 / np.sqrt(8.0 * np.log(2.0)), 300.0
    t = 2.0 + 4.0 * np.arange(750)
    pdf = np.exp(s * s / (2 * tau * tau) - (t - 100.0) / tau) / (2 * tau) * np.array(
        [math.erfc((s / tau - (x - 100.0) / s) / math.sqrt(2.0)) for x in t])
    counts = np.round(4e5 * pdf).astype(int)
    rows = "".join(f"{x!r},{c}\n" for x, c in zip(t.tolist(), counts.tolist()))
    return "# bin_width_ps=4.0\n# origin_ps=0.0\ndelay_ps,counts\n" + rows


def _rabi_scan():
    rows = "".join(f"{s!r},{round(1000 * np.sin(np.pi * s / 2) ** 2)}\n"
                   for s in np.round(np.linspace(0.1, 2.5, 25), 6).tolist())
    return "sqrt_power,counts\n" + rows


_BUDGET = {"count_rate": "61000", "rep_rate": "80e6", "blinking": "0.625",
           "p_emit": "0.65", "eta_detector": "0.25", "eta_fiber": "0.4",
           "eta_setup": "0.12"}


def _budget(channel="xx", **override):
    return "".join(f"{channel}.{k} = {v}\n" for k, v in {**_BUDGET, **override}.items())


def _rising_hist():
    # 200 bins rising linearly from bin 0: no decay, so --jitter-fwhm 0 cannot converge
    rows = "".join(f"{2.0 + 4.0 * i!r},{100 + 10 * i}\n" for i in range(200))
    return "# bin_width_ps=4.0\n# origin_ps=0.0\ndelay_ps,counts\n" + rows


def _rejects(command, line):
    """A config line that exits 2 with a message naming its key."""
    return (command, line + "\n", [], 2, f"'{line.split(' = ')[0]}'")


_DIRECTORY = object()  # the input or config path is a directory

# case: (command, content of the input file or of the config after the
# seed line, extra flags, expected exit code[, text the message contains])
_MALFORMED = {
    "tomo-all-zero-counts": ("analyze tomo", _counts(0), [], 3),
    "tomo-duplicate-setting": ("analyze tomo", _counts(extra="E,E,5\n"), [], 3),
    "tomo-unknown-setting": ("analyze tomo", _counts(extra="E,X,5\n"), [], 3),
    "tomo-not-utf8": ("analyze tomo", b"\xff\xfexx_proj,x_proj,count\n", [], 3),
    "g2-no-rows": ("analyze g2", "# bin_width_ps=10.0\ndelay_ps,counts\n", [], 3),
    "g2-count-beyond-int64": (
        "analyze g2", "# bin_width_ps=10.0\ndelay_ps,counts\n5.0,99999999999999999999999\n",
        [], 3),
    "g2-input-is-directory": ("analyze g2", _DIRECTORY, [], 3),
    "tomo-count-beyond-int64": ("analyze tomo", _counts(2**63), [], 3),
    # an int64 count, but its resamples' Poisson draws may not fit int64
    "tomo-count-at-int64-max": ("analyze tomo", _counts(2**63 - 1), ["--mc-runs", "2"], 3,
                                "Poisson mean"),
    # each count an int64, their total not: the peak areas' cumsum wrapped to -9.2e18
    "hom-count-total-beyond-int64": ("analyze hom", _flat_hist(centre=2**63 - 1),
                                     ["--delay", "40"], 3, "64-bit range"),
    "g2-count-total-beyond-int64": ("analyze g2", _flat_hist(centre=2**63 - 1),
                                    ["--rep-period", "40"], 3, "64-bit range"),
    "g2-shifted-delay-column": ("analyze g2", _flat_hist(shift=5.0),
                                ["--rep-period", "40"], 3),
    "rabi-nan": ("analyze rabi", "sqrt_power,counts\n0.1,5\nnan,9\n0.3,20\n", [], 3),
    "rabi-one-row": ("analyze rabi", "sqrt_power,counts\n0.5,40\n", [], 3),
    "rabi-negative-count": ("analyze rabi", _rabi_scan().replace(",1000\n", ",-500\n"), [], 3,
                            "negative"),
    "rabi-fractional-count": ("analyze rabi", _rabi_scan().replace(",1000\n", ",12.5\n"), [],
                              3, "12.5"),
    "rabi-negative-sqrt-power": ("analyze rabi", _rabi_scan().replace("0.1,", "-1,"), [], 3,
                                 "negative"),
    "rabi-zero-rate-normalization": ("analyze rabi", _rabi_scan(),
                                     ["--rate-normalization", "0"], 3, "rate-normalization"),
    "rabi-nan-rate-normalization": ("analyze rabi", _rabi_scan(),
                                    ["--rate-normalization", "nan"], 3, "rate-normalization"),
    "rabi-inf-rate-normalization": ("analyze rabi", _rabi_scan(),
                                    ["--rate-normalization", "inf"], 3, "rate-normalization"),
    "lifetime-negative-jitter": ("analyze lifetime", _decay_hist(),
                                 ["--jitter-fwhm", "-16"], 3, "jitter-fwhm"),
    "lifetime-nan-jitter": ("analyze lifetime", _decay_hist(),
                            ["--jitter-fwhm", "nan"], 3, "jitter-fwhm"),
    # z = x / sigma overflows in its square (1e-200) or itself (1e-320) before the onset
    "lifetime-vanishing-jitter": ("analyze lifetime", _jittered_decay_hist(),
                                  ["--jitter-fwhm", "1e-200"], 4, "did not converge"),
    "lifetime-vanishing-jitter-infinite-z": ("analyze lifetime", _jittered_decay_hist(),
                                             ["--jitter-fwhm", "1e-320"], 4,
                                             "did not converge"),
    "budget-unparsable-value": ("analyze budget", _budget(count_rate="abc"), [], 3),
    "budget-out-of-range": ("analyze budget", _budget(blinking="1.5"), [], 3),
    "budget-nan-count-rate": ("analyze budget", _budget(count_rate="nan"), [], 3, "rates"),
    "budget-inf-rep-rate": ("analyze budget", _budget(rep_rate="inf"), [], 3, "rates"),
    "budget-no-keys": ("analyze budget", "# no channels\n", [], 3, "no channel"),
    "budget-unknown-key": ("analyze budget", _budget(eta_fibre="0.5"), [], 3,
                           "'xx.eta_fibre'"),
    "budget-key-without-channel": ("analyze budget", _budget(channel=""), [], 3,
                                   "'.count_rate'"),
    "budget-efficiency-not-finite": (
        "analyze budget", _budget(count_rate="1e300", rep_rate="1e-300", blinking="1e-10",
                                  p_emit="1", eta_detector="1", eta_fiber="1",
                                  eta_setup="1"), [], 3, "not a positive finite"),
    "budget-efficiency-above-1": ("analyze budget", _budget(rep_rate="1000"), [], 3,
                                  "first-lens efficiency", "exceeds 1"),
    "budget-efficiency-underflows": (
        "analyze budget", _budget(count_rate="1e-300", rep_rate="1e300", blinking="1",
                                  p_emit="1", eta_detector="1", eta_fiber="1",
                                  eta_setup="1"), [], 3, "not a positive finite"),
    "hom-visibility-above-1": ("simulate hom", "hom.mutual_visibility = 1.5\n", [], 2),
    "autocorr-negative-g2": ("simulate autocorr", "autocorr.g2_target = -0.5\n", [], 2),
    "autocorr-g2-above-model-maximum": ("simulate autocorr", "autocorr.g2_target = 2\n",
                                        [], 2, "'autocorr.g2_target'"),
    "tomography-negative-cycles": (
        "simulate tomography", "tomography.cycles_per_setting = -5\n", [], 2),
    "hom-zero-cycles": ("simulate hom", "hom.cycles = 0\n", [], 2),
    "autocorr-zero-cycles": ("simulate autocorr", "autocorr.cycles = 0\n", [], 2),
    # float64 timestamps near the run's end lie 4096 and 2048 ps apart, more than
    # one histogram bin (50 and 500 ps); rejected before anything is drawn
    "hom-cycles-beyond-timestamp-resolution": (
        "simulate hom", "hom.cycles = 1000000000000000\n", [], 2, "'hom.cycles'"),
    "autocorr-cycles-beyond-timestamp-resolution": (
        "simulate autocorr", "autocorr.cycles = 1000000000000000\n", [], 2,
        "'autocorr.cycles'"),
    "autocorr-cycles-beyond-float-range": (
        "simulate autocorr", f"autocorr.cycles = {10**400}\n", [], 2, "'autocorr.cycles'"),
    "lifetime-zero-counts": ("simulate lifetime", "lifetime.counts = 0\n", [], 2),
    "lifetime-negative-tau": ("simulate lifetime", "lifetime.tau_ps = -300\n", [], 2,
                              "lifetime.tau_ps"),
    "lifetime-nan-tau": ("simulate lifetime", "lifetime.tau_ps = nan\n", [], 2,
                         "lifetime.tau_ps"),
    "rabi-nan-damping": ("simulate rabi", "rabi.damping = nan\n", [], 2, "rabi.damping"),
    "rabi-negative-damping": ("simulate rabi", "rabi.damping = -1\n", [], 2, "rabi.damping"),
    "rabi-damping-above-1": ("simulate rabi", "rabi.damping = 5\n", [], 2, "rabi.damping"),
    "rabi-negative-cycles": ("simulate rabi", "rabi.cycles_per_point = -5\n", [], 2),
    # Poisson means whose draws may not fit int64, and counts beyond the float range
    "rabi-cycles-beyond-int64-draws": ("simulate rabi", f"rabi.cycles_per_point = {10**23}\n",
                                       [], 2, "'rabi.cycles_per_point'", "Poisson mean"),
    "rabi-cycles-beyond-float-range": ("simulate rabi", f"rabi.cycles_per_point = {10**400}\n",
                                       [], 2, "'rabi.cycles_per_point'"),
    "tomography-cycles-beyond-int64-draws": (
        "simulate tomography", f"tomography.cycles_per_setting = {10**26}\n", [], 2,
        "'tomography.cycles_per_setting'", "Poisson mean"),
    "tomography-cycles-beyond-float-range": (
        "simulate tomography", f"tomography.cycles_per_setting = {10**400}\n", [], 2,
        "'tomography.cycles_per_setting'"),
    "cavity-na-above-1": ("cavity efficiency", None, ["--nas", "1.5"], 2),
    "cavity-negative-height": ("cavity purcell", None, ["--heights", "-1"], 2),
    "cavity-no-interior-peak": ("cavity spectrum", "cavity.t_cavity_nm = 200\n", [], 2,
                                "transmission peak"),
    "cavity-fwhm-not-bracketed": ("cavity efficiency", "cavity.top_pairs = 0\n", [], 2,
                                  "FWHM"),
    "hom-zero-delay": ("analyze hom", _flat_hist(), ["--delay", "0"], 3, "delay"),
    "hom-negative-delay": ("analyze hom", _flat_hist(), ["--delay", "-3000"], 3, "delay"),
    "g2-zero-rep-period": ("analyze g2", _flat_hist(), ["--rep-period", "0"], 3,
                           "repetition period"),
    "g2-rep-period-below-bin-width": ("analyze g2", _flat_hist(), ["--rep-period", "1e-3"],
                                      3, "repetition period"),
    "lifetime-rising-zero-jitter": ("analyze lifetime", _rising_hist(),
                                    ["--jitter-fwhm", "0"], 4, "did not converge"),
    # 3 FWHM past the peak lies beyond the histogram: no tail to check, so no fit is tried
    "lifetime-jitter-beyond-histogram": ("analyze lifetime", _decay_hist(),
                                         ["--jitter-fwhm", "1e200"], 4, "did not converge"),
    "hom-delay-overflows": ("analyze hom", _flat_hist(), ["--delay", "1e308"], 3, "delay"),
    "hom-delay-beyond-histogram": ("analyze hom", _flat_hist(), ["--delay", "150"], 3,
                                   "inside the histogram"),
    # counts only at the last point: the best area calibration is the lower end of the
    # fit's bracket, so no minimum was found inside it
    "rabi-fit-at-bracket-edge": ("analyze rabi", "sqrt_power,counts\n1,0\n2,0\n3,1000\n",
                                 [], 4, "did not converge"),
    # p_emit_pi = amplitude / 1e-320 overflows: strict JSON has no Infinity to write
    "rabi-result-not-finite": ("analyze rabi", _rabi_scan(),
                               ["--rate-normalization", "1e-320"], 3, "not a finite number"),
    "key-misspelt": _rejects("simulate lifetime", "lifetime.tau_pss = 500"),
    "key-negative-tau-xx": _rejects("simulate hom", "emitter.tau_xx_ps = -1"),
    "key-visibility-above-1": _rejects("simulate tomography", "state.visibility = 1.5"),
    "key-efficiency-above-1": _rejects("simulate tomography", "detector.efficiency = 2"),
    # its square, the pair detection efficiency, underflows to 0
    "key-efficiency-square-underflows": _rejects("simulate tomography",
                                                 "detector.efficiency = 1e-200"),
    "key-inf-jitter": _rejects("simulate hom", "detector.jitter_sigma_ps = inf"),
    "key-nan-jitter": _rejects("simulate hom", "detector.jitter_sigma_ps = nan"),
    "key-nan-dead-time": _rejects("simulate autocorr", "detector.dead_time_ps = nan"),
    "key-inf-dark-count-rate": _rejects("simulate hom", "detector.dark_count_rate_hz = inf"),
    "key-inf-tau-x": _rejects("simulate hom", "emitter.tau_x_ps = inf"),
    "key-inf-rep-period": _rejects("simulate autocorr", "emitter.rep_period_ps = inf"),
    "key-inf-mean-on-cycles": _rejects("simulate autocorr",
                                       "emitter.blinking_mean_on_cycles = inf"),
    "key-nan-mean-on-cycles": _rejects("simulate autocorr",
                                       "emitter.blinking_mean_on_cycles = nan"),
    "key-inf-delay": _rejects("simulate hom", "analyzer.delay_ps = inf"),
    "key-nan-delay": _rejects("simulate hom", "analyzer.delay_ps = nan"),
    "key-nan-pump-phase": _rejects("simulate tomography", "state.pump_phase = nan"),
    "key-negative-bottom-pairs": _rejects("cavity spectrum", "cavity.bottom_pairs = -3"),
    "key-nan-defect-height": _rejects("cavity efficiency", "defect.height_nm = nan"),
    "cavity-nan-height": ("cavity purcell", None, ["--heights", "nan"], 2),
    "simulate-config-is-directory": ("simulate tomography", _DIRECTORY, [], 3),
    "cavity-config-is-directory": ("cavity spectrum", _DIRECTORY, [], 3),
}


@pytest.mark.filterwarnings("error")  # a warning prints lines of its own on stderr
@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_input_exit_code_and_one_line(tmp_path, capsys, case):
    command, content, flags, code, *match = _MALFORMED[case]
    argv = command.split() + flags + ["--out", str(tmp_path / "o")]
    path = tmp_path  # used as is when content is _DIRECTORY
    if content is not None and content is not _DIRECTORY:
        if not command.startswith("analyze"):
            content = "seed = 1\n" + content
        path = tmp_path / "input"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    if command.startswith("analyze"):
        argv.insert(2, str(path))
    elif content is not None:
        argv += ["--config", str(path)]
    assert main(argv) == code
    err = capsys.readouterr().err
    prefix = {3: "data error: ", 4: "convergence error: "}.get(code, "config error: ")
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert all(text in err for text in match), err
    assert not (tmp_path / "o").exists()  # a rejected run leaves no output directory


@pytest.mark.filterwarnings("error")
def test_rabi_fit_that_overflows_exits_3_with_one_line(tmp_path, capfd):
    # capfd, not capsys: LAPACK prints its complaint about an inf or NaN to file
    # descriptor 1 itself, past sys.stdout
    rows = _rabi_scan().splitlines()
    rows[4] = "1e308," + rows[4].split(",")[1]
    path = write(tmp_path, "scan.csv", "\n".join(rows) + "\n")
    assert main(["analyze", "rabi", path, "--out", str(tmp_path / "o")]) == 3
    out, err = capfd.readouterr()
    assert out == "" and err.startswith("data error: ") and err.count("\n") == 1, out + err


@pytest.mark.parametrize("argv", [
    "analyze g2 in.csv --delay 1", "analyze g2 in.csv --config x",
    "analyze tomo in.csv --event-exposures", "cavity spectrum --seed 1",
    "cavity spectrum --nas 0.7", "simulate tomography --out o",
    "simulate tomography --config x --seed -1", "analyze tomo in.csv --seed -1"])
def test_inapplicable_or_invalid_flag_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2


@pytest.mark.parametrize("seed", ["-1", str(2**64), "abc"])
def test_invalid_seed_flag_names_the_rule(capsys, seed):
    # argparse named the type function instead: "invalid parse_seed value: '-1'"
    for argv in (["simulate", "rabi", "--config", "x"], ["analyze", "tomo", "in.csv"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--seed: {seed!r} must be an unsigned 64-bit integer" in err, err


@pytest.mark.parametrize("runs", ["1", "0", "-3", "two"])
def test_mc_runs_below_two_is_a_usage_error(tmp_path, capsys, runs):
    # rejected while parsing: no fit runs and no output directory is made
    path = write(tmp_path, "counts.csv", _counts())
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "tomo", path, "--mc-runs", runs, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert f"argument --mc-runs: {runs!r} must be an integer of at least 2" in err, err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    "analyze g2 in.csv --delay 1", "simulate", "analyze tomo in.csv --seed -1",
    "cavity purcell --heights"])
def test_usage_errors_are_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("tbsim") and ": error: " in err and err.count("\n") == 1, err


def test_analyze_lifetime_zero_jitter_is_ideal_detector(tmp_path):
    path = write(tmp_path, "lt.csv", _decay_hist())
    ana = str(tmp_path / "a")
    assert main(["analyze", "lifetime", path, "--jitter-fwhm", "0", "--out", ana]) == 0
    res = json.load(open(os.path.join(ana, "analyze_lifetime.json")))
    assert res["tau_ps"] == pytest.approx(300.0, rel=0.01)


@pytest.mark.parametrize("argv", [
    "simulate rabi --config {cfg}", "cavity spectrum", "analyze budget {budget}"])
def test_out_naming_a_file_exits_3(tmp_path, capsys, argv):
    # a permission-denied directory would take the same path, but root can write anywhere;
    # a name over the 255-byte limit of a path component fails later, where it is made
    budget = os.path.join(os.path.dirname(__file__), "..", "budget.cfg")
    cfg = write(tmp_path, "run.cfg", MINI_CFG)
    afile = write(tmp_path, "afile", "")
    for out in (afile, str(tmp_path / ("n" * 256))):
        assert main(argv.format(cfg=cfg, budget=budget).split() + ["--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot write {out}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_out_on_a_file_exits_3_before_the_config_is_checked(tmp_path, capsys, out):
    # a cycle count the handler rejects (exit 2) would be drawn for hours if
    # accepted; the output path is checked first, so nothing is drawn
    cfg = write(tmp_path, "run.cfg", MINI_CFG + "hom.cycles = 1000000000000000\n")
    write(tmp_path, "afile", "")
    assert main(["simulate", "hom", "--config", cfg, "--out", str(tmp_path / out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot write {tmp_path / out}: "), err


def test_output_that_is_a_directory_exits_3(tmp_path, capsys):
    cfg = write(tmp_path, "run.cfg", MINI_CFG)
    out = tmp_path / "o"
    (out / "rabi_scan.csv").mkdir(parents=True)
    assert main(["simulate", "rabi", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: cannot write ") and err.count("\n") == 1, err
    assert os.listdir(out) == ["rabi_scan.csv"]  # no temp file left behind


def test_missing_input_exits_3(tmp_path):
    assert main(["analyze", "g2", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "o")]) == 3


def test_analyze_tomo_closure(tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path, "run.cfg", MINI_CFG)
    out = str(tmp_path / "sim")
    main(["simulate", "tomography", "--config", cfg, "--out", out])
    ana = str(tmp_path / "ana")
    assert main(["analyze", "tomo", os.path.join(out, "tomography_counts.csv"),
                 "--out", ana, "--mc-runs", "10"]) == 0
    res = json.load(open(os.path.join(ana, "analyze_tomo.json")))
    assert res["concurrence"] == pytest.approx(0.70, abs=0.08)
    assert res["fidelity"] == pytest.approx(0.85, abs=0.04)
    assert res["mc_converged"] == 10
    assert res["inputs"][0]["sha256"]
    # no counts table tried (374 random ones, counts up to 1e16) needed more than 109 of
    # the 10 000 iterations allowed: only a lowered cap reaches the non-convergence exit
    monkeypatch.setattr(tomo, "_MLE_MAX_ITER", 1)
    capsys.readouterr()
    ana = tmp_path / "ana_capped"
    assert main(["analyze", "tomo", os.path.join(out, "tomography_counts.csv"),
                 "--out", str(ana), "--mc-runs", "10"]) == 4
    err = capsys.readouterr().err
    assert err == "convergence error: tomographic reconstruction did not converge\n", err
    assert not ana.exists()


def test_analyze_tomo_counts_whose_int64_sum_wraps(tmp_path):
    # each count is a valid int64, but their total 4.8e19 is not: summed in
    # int64 it wrapped to -7.3e18, and log L read -3.3e22
    n = np.array([9e18 if a == b else 1e18 for a in _LABELS for b in _LABELS])
    rows = "".join(f"{a},{b},{9 * 10**18 if a == b else 10**18}\n"
                   for a in _LABELS for b in _LABELS)
    path = write(tmp_path, "huge.csv", "xx_proj,x_proj,count\n" + rows)
    ana = str(tmp_path / "ana")
    assert main(["analyze", "tomo", path, "--out", ana, "--mc-runs", "2"]) == 0
    ll = json.load(open(os.path.join(ana, "analyze_tomo.json")))["log_likelihood"]
    # no better than the saturated model (mu_k = n_k), no worse than the
    # maximally mixed state (mu_k = sum n / 16)
    mixed = np.sum(n * np.log(n.sum() / 16.0) - n.sum() / 16.0)
    assert mixed <= ll <= np.sum(n * np.log(n) - n)


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


def test_cavity_index_comes_from_the_stack(tmp_path):
    # cavity.n_high sets the spacer index, so Purcell and efficiency use 3.5
    cfg = write(tmp_path, "run.cfg", "seed = 1\ncavity.n_high = 3.5\n")
    out = str(tmp_path / "cav")
    assert main(["cavity", "purcell", "--config", cfg, "--out", out,
                 "--heights", "20"]) == 0
    assert main(["cavity", "efficiency", "--config", cfg, "--out", out,
                 "--nas", "0.7"]) == 0
    mode = cavity.cavity_mode(RunConfig.from_file(cfg).stack)
    assert mode.n_cavity == 3.5
    d = cavity.DefectModel(height=20.0)
    w = cavity.mode_waist(d)
    f_p = (3.0 / (4.0 * np.pi**2) * (mode.wavelength / 3.5) ** 3 * mode.q
           / ((np.pi / 4.0) * w**2 * mode.effective_length))
    rows = open(os.path.join(out, "purcell.csv")).read().splitlines()
    assert float(rows[1].split(",")[2]) == pytest.approx(f_p, rel=1e-12)
    cone = 1.0 - np.exp(-2.0 * (0.7 * np.pi * w / mode.wavelength) ** 2)
    eta = f_p / (f_p + 1.0) * mode.top_share * cone
    res = json.load(open(os.path.join(out, "efficiency.json")))
    assert res["extraction_efficiency"]["0.7"] == pytest.approx(eta, rel=1e-12)


@pytest.mark.parametrize("what, flag, values", [
    ("purcell", "--heights", ["10", "20", "30", "40", "50"]),
    ("efficiency", "--nas", ["0.3", "0.5", "0.62", "0.7", "0.9"])])
def test_cavity_mirrors_evaluated_once_per_command(tmp_path, monkeypatch, what, flag,
                                                   values):
    # the resonance, spacer and both mirrors are analysed once, not once per row
    calls = []
    matrix = cavity.characteristic_matrix
    monkeypatch.setattr(cavity, "characteristic_matrix",
                        lambda *a: calls.append(1) or matrix(*a))
    counts = []
    for n in (1, len(values)):
        calls.clear()
        out = str(tmp_path / f"{what}{n}")
        assert main(["cavity", what, "--out", out, flag, *values[:n]]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_efficiency_keys_name_each_na_exactly(tmp_path):
    out = str(tmp_path / "eff")
    assert main(["cavity", "efficiency", "--out", out,
                 "--nas", "0.7", "0.70000001", "0.123456789", "0.62"]) == 0
    etas = json.load(open(os.path.join(out, "efficiency.json")))["extraction_efficiency"]
    assert sorted(etas) == ["0.123456789", "0.62", "0.7", "0.70000001"]
    assert etas["0.123456789"] < etas["0.62"] < etas["0.7"] < etas["0.70000001"]


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


def test_simulated_lifetime_onset_at_eight_sigma(tmp_path):
    # lifetime_hist.csv once put every count half a bin (2 ps) late: t0 read 56.3 ps
    root = os.path.join(os.path.dirname(__file__), "..")
    cfg = RunConfig.from_file(os.path.join(root, "baseline.cfg"))
    for seed in (1, 2, 3):
        out = str(tmp_path / f"s{seed}")
        assert main(["simulate", "lifetime", "--config", os.path.join(root, "baseline.cfg"),
                     "--seed", str(seed), "--out", out]) == 0
        assert main(["analyze", "lifetime", os.path.join(out, "lifetime_hist.csv"),
                     "--out", out]) == 0
        t0 = json.load(open(os.path.join(out, "analyze_lifetime.json")))["t0_ps"]
        assert abs(t0 - 8.0 * cfg.detectors.jitter_sigma) < 0.5, (seed, t0)


_NO_SCIPY_SCRIPT = """
import os, sys
from tbsim.cli import main

cfg, out, budget = sys.argv[1:]
try:
    main(["--version"])
except SystemExit:
    pass
for what in ("tomography", "hom", "autocorr", "lifetime", "rabi"):
    assert main(["simulate", what, "--config", cfg, "--out", out]) == 0, what
for what, path in (("tomo", os.path.join(out, "tomography_counts.csv")),
                   ("g2", os.path.join(out, "autocorr_hist.csv")),
                   ("hom", os.path.join(out, "hom_hist.csv")),
                   ("lifetime", os.path.join(out, "lifetime_hist.csv")),
                   ("rabi", os.path.join(out, "rabi_scan.csv")), ("budget", budget)):
    assert main(["analyze", what, path, "--out", out]) == 0, what
for what in ("spectrum", "purcell", "efficiency"):
    assert main(["cavity", what, "--out", out]) == 0, what
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_no_command_imports_scipy(tmp_path):
    # importing scipy.optimize and scipy.stats was most of every command's start-up;
    # all 16 commands, the lifetime and Rabi fits included, run on NumPy alone
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
    cfg = write(tmp_path, "run.cfg", MINI_CFG + "hom.cycles = 40000\n"
                "autocorr.cycles = 30000\nlifetime.counts = 20000\n")
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, cfg, str(tmp_path / "out"),
         os.path.join(root, "budget.cfg")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


_MODULES_SCRIPT = """
import runpy, sys

try:
    runpy.run_module("tbsim.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code or 0
print(code, "numpy" in sys.modules)
print(sorted(m for m in sys.modules if m.split(".")[0] == "tbsim"))
"""

# the modules a config file loads: RunConfig builds every model
_CONFIG_MODULES = ("cascade", "cavity", "config", "kernels", "optics", "qcore", "rng")
_OPTICS_MODULES = ("cascade", "fitting", "kernels", "optics", "qcore", "rng")
# command: (exit code, tbsim modules besides tbsim and tbsim.table); the
# dispatch path (--version, -h, a usage error) runs no handler
_COMMAND_MODULES = {
    "--version": (0, ()),
    "-h": (0, ()),
    "analyze g2 --out {out}": (2, ()),
    "analyze tomo {out}/x.csv --seed -1": (2, ()),
    "cavity spectrum --out {out}": (0, ("cavity",)),
    "cavity purcell --out {out}": (0, ("cavity",)),
    "cavity efficiency --out {out}": (0, ("cavity",)),
    "simulate rabi --config {cfg} --out {out}": (0, _CONFIG_MODULES),
    "simulate tomography --config {cfg} --out {out}": (0, _CONFIG_MODULES + ("tomo",)),
    "simulate hom --config {cfg} --out {out}": (0, _CONFIG_MODULES),
    "simulate autocorr --config {cfg} --out {out}": (0, _CONFIG_MODULES),
    "simulate lifetime --config {cfg} --out {out}": (0, _CONFIG_MODULES),
    "analyze tomo {out}/tomography_counts.csv --out {out}": (0, ("qcore", "rng", "tomo")),
    "analyze rabi {out}/rabi_scan.csv --out {out}": (0, ("fitting",)),
    "analyze g2 {out}/autocorr_hist.csv --out {out}": (0, _OPTICS_MODULES),
    "analyze hom {out}/hom_hist.csv --out {out}": (0, _OPTICS_MODULES),
    "analyze lifetime {out}/lifetime_hist.csv --out {out}": (0, _OPTICS_MODULES),
    "analyze budget {budget} --out {out}": (0, ("cavity", "config")),
}


def test_each_command_imports_only_its_modules(tmp_path):
    # a module a command does not run costs it the import, and without a
    # bytecode cache the compile, on every run; the dispatch path runs no
    # handler, so it loads no numpy, whose import would be most of its cold start
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
    cfg = write(tmp_path, "run.cfg", MINI_CFG + "hom.cycles = 40000\n"
                "autocorr.cycles = 30000\nlifetime.counts = 20000\n")
    out = str(tmp_path / "out")
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    for command, (code, modules) in _COMMAND_MODULES.items():
        argv = command.format(cfg=cfg, out=out, budget=os.path.join(root, "budget.cfg"))
        proc = subprocess.run([sys.executable, "-c", _MODULES_SCRIPT, *argv.split()],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (command, proc.stderr)
        expected = sorted(["tbsim", "tbsim.table", *(f"tbsim.{m}" for m in modules)])
        assert proc.stdout.splitlines()[-2:] == [f"{code} {bool(modules)}", str(expected)], \
            command


_UMASK_SCRIPT = """
import os, sys
from tbsim.cli import main

os.umask(int(sys.argv[1], 8))
cfg, out = sys.argv[2:]
assert main(["simulate", "rabi", "--config", cfg, "--out", out + "/sim"]) == 0
assert main(["analyze", "rabi", out + "/sim/rabi_scan.csv", "--out", out + "/ana"]) == 0
assert main(["cavity", "efficiency", "--out", out + "/cav"]) == 0
"""


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_outputs_follow_the_umask(tmp_path, umask, mode):
    # outputs get 0666 less the umask, as open() gives; a 0600 temp file
    # (tempfile.mkstemp) would keep 0600 after the rename. The umask is set in
    # the child, so this process keeps its own
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
    cfg = write(tmp_path, "run.cfg", MINI_CFG)
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    proc = subprocess.run([sys.executable, "-c", _UMASK_SCRIPT, oct(umask), cfg, str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    modes = {f"{d.name}/{f.name}": f.stat().st_mode & 0o777
             for d in out.iterdir() for f in d.iterdir()}
    assert sorted(modes) == sorted([
        "sim/rabi_scan.csv", "sim/manifest.json", "ana/analyze_rabi.json",
        "ana/manifest.json", "cav/efficiency.json", "cav/manifest.json"])
    assert set(modes.values()) == {mode}, {k: oct(v) for k, v in modes.items()}


def test_check_resolution_at_the_hom_boundary():
    # hom: 50 ps bins, one cycle per 2 x 12500 ps; from a run end of 2**58 ps
    # on, float64 timestamps lie 64 ps apart, and below it 32 ps
    period, bin_width = 2 * 12500.0, 50.0
    below = 2**58 // int(period)
    assert below * period < 2.0**58 <= (below + 1) * period
    for end in (0.0, 5e-324, 1.0, below * period, 2.0**58, 2.5e12, 1e20, 1e300):
        assert math.ulp(end) == np.spacing(end), end
    _check_resolution("hom.cycles", below, period, bin_width)
    for cycles, p in ((below + 1, period), (10**400, period), (1, math.inf)):
        with pytest.raises(ConfigError, match="hom.cycles"):
            _check_resolution("hom.cycles", cycles, p, bin_width)


_TRACER_SCRIPT = """
import numpy as np
from tracing import Tracer
from tbsim import optics
from tbsim.cascade import EmitterParams

tracer = Tracer()
tracer.install()
dead = optics.DetectorModel(efficiency=1.0, dark_count_rate=0.0, jitter_sigma=0.0,
                            dead_time=100.0)
ev = optics.simulate_autocorrelation(EmitterParams(), "xx", dead, 200, 1)
optics.histogram_events(ev, 0, 1, bin_width=500.0, max_delay=5000.0)
# the autocorrelation run detects block by block, so it reaches neither
# whole-run entry point; both are wrapped, and called here
optics.sample_pair_emission(EmitterParams(), 1, 200)
optics._detect(ev.channel, ev.time, dead, 200 * EmitterParams().rep_period, 1)
print(sorted(tracer.counts))
"""


def test_benchmark_tracer_wraps_existing_names():
    # perfbench/tracing.py wraps tbsim functions and reads their arguments by
    # name; a rename or deletion in tbsim must fail here, not only in a traced run
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", _TRACER_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(sorted([
        "cascade.sample_pair_emission.cycles", "kernels.dead_time_mask.events",
        "kernels.pair_delay_counts.pairs", "kernels.telegraph.steps",
        "optics.detect.clicks_out", "optics.detect.photons_in",
        "optics.simulate.cycles", "rng.variates"]))


_BENCH_ARGV_SCRIPT = """
import cli_workloads
from tbsim.cli import build_parser

parser = build_parser()
for workload in ("cli-pipeline", "cavity-design"):
    for seed in (1, 901):
        for argv in cli_workloads.commands(workload, seed, "out"):
            parser.parse_args(argv)
print("parsed")
"""


def test_benchmark_and_readme_commands_parse():
    # the benchmark runs these argv and this config, and the README shows these
    # commands; a flag or key change that breaks one must fail here
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", _BENCH_ARGV_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "parsed"
    RunConfig.from_file(os.path.join(root, "perfbench", "inputs", "baseline.cfg"))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        lines = [line.split() for line in fh if line.startswith("tbsim ")]
    assert len(lines) == 14
    for line in lines:
        build_parser().parse_args(line[1:])
