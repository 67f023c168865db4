"""Golden outputs: every `simulate`, `analyze` and `cavity` result of the README's
commands, pinned in `tests/golden.json`.

`simulate` files are compared by SHA-256. The numbers of every `analyze_*.json`
and of every `cavity` output are compared to 1e-12 relative, because numpy picks
its float64 transcendentals by CPU and may differ in the last bits elsewhere.
A change that moves an output rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and names in CHANGES.md each file that changed and why.
"""

import hashlib
import json
import os
import tempfile

import pytest

from tbsim.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
BASELINE = os.path.join(ROOT, "baseline.cfg")
BUDGET = os.path.join(ROOT, "budget.cfg")
SEEDS = (1, 2, 3, 12345)
REL = 1e-12

# (simulate what, its file, analyze what); `analyze budget` reads budget.cfg
_PIPELINE = (
    ("tomography", "tomography_counts.csv", "tomo"),
    ("hom", "hom_hist.csv", "hom"),
    ("autocorr", "autocorr_hist.csv", "g2"),
    ("lifetime", "lifetime_hist.csv", "lifetime"),
    ("rabi", "rabi_scan.csv", "rabi"),
)

# the README's three cavity commands, then two more height and NA sets
_CAVITY = (
    ("spectrum",),
    ("purcell", "--heights", "10", "20", "30"),
    ("efficiency", "--nas", "0.62", "0.7"),
    ("purcell", "--heights", "5", "12.5", "40"),
    ("efficiency", "--nas", "0.4", "0.55", "0.9"),
    ("purcell", "--heights", "1", "50"),
    ("efficiency", "--nas", "0.2", "0.95"),
)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _leaves(obj, prefix=""):
    """{dotted path: number or bool} of a decoded JSON value."""
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            out.update(_leaves(value, f"{prefix}{key}."))
        return out
    if isinstance(obj, list):
        out = {}
        for i, value in enumerate(obj):
            out.update(_leaves(value, f"{prefix}{i}."))
        return out
    return {prefix[:-1]: obj}


def _numbers(path):
    """The numbers of an output: a JSON file's, or a CSV's metadata and columns."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        data = json.loads(text)
        data.pop("inputs", None)  # paths of this run's temporary directory
        return data
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    out = {}
    for ln in lines[:header]:
        key, _, value = ln[1:].partition("=")
        out[key.strip()] = float(value)
    rows = [[float(f) for f in ln.split(",")] for ln in lines[header + 1:]]
    for col, values in zip(lines[header].split(","), zip(*rows)):
        out[col] = list(values)
    return out


def _run(argv):
    code = main(argv)
    assert code == 0, f"tbsim {' '.join(argv)} exited {code}"


def pipeline_outputs(seed, tmp):
    """{file: sha256} of the five simulate files and {file: numbers} of their analyses."""
    simulated, analyzed = {}, {}
    for what, name, analysis in _PIPELINE:
        out = os.path.join(tmp, what)
        _run(["simulate", what, "--config", BASELINE, "--seed", str(seed), "--out", out])
        simulated[name] = _sha256(os.path.join(out, name))
        _run(["analyze", analysis, os.path.join(out, name), "--out", out])
        analyzed[f"analyze_{analysis}.json"] = _numbers(
            os.path.join(out, f"analyze_{analysis}.json"))
    return {"simulate": simulated, "analyze": analyzed}


def budget_outputs(tmp):
    _run(["analyze", "budget", BUDGET, "--out", tmp])
    return {"analyze_budget.json": _numbers(os.path.join(tmp, "analyze_budget.json"))}


def cavity_outputs(tmp):
    """{command: {file: numbers}} of every cavity command in `_CAVITY`."""
    out = {}
    for i, args in enumerate(_CAVITY):
        d = os.path.join(tmp, str(i))
        _run(["cavity", *args, "--out", d])
        out[" ".join(args)] = {name: _numbers(os.path.join(d, name))
                               for name in sorted(os.listdir(d)) if name != "manifest.json"}
    return out


def _close(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return abs(a - b) <= REL * max(abs(a), abs(b))


def _number_mismatches(label, got, want):
    """One line per file whose numbers differ from the golden ones, naming the first key."""
    bad = []
    for name in sorted(set(got) | set(want)):
        if name not in got or name not in want:
            bad.append(f"{label}{name}: "
                       f"{'missing' if name not in got else 'not in golden.json'}")
            continue
        g, w = _leaves(got[name]), _leaves(want[name])
        if set(g) != set(w):
            bad.append(f"{label}{name}: keys {sorted(set(g) ^ set(w))[:5]} differ")
            continue
        diff = [k for k in w if not _close(g[k], w[k])]
        if diff:
            k = diff[0]
            bad.append(f"{label}{name}: {len(diff)} numbers differ, first {k} = "
                       f"{g[k]!r}, golden {w[k]!r}")
    return bad


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("seed", SEEDS)
def test_pipeline_matches_golden(seed, tmp_path):
    want = _golden()["pipeline"][str(seed)]
    got = pipeline_outputs(seed, str(tmp_path))
    bad = [f"seed {seed} {name}: sha256 {got['simulate'].get(name)} != golden {sha}"
           for name, sha in sorted(want["simulate"].items())
           if got["simulate"].get(name) != sha]
    bad += _number_mismatches(f"seed {seed} ", got["analyze"], want["analyze"])
    assert not bad, "outputs differ from tests/golden.json:\n" + "\n".join(bad)


def test_budget_and_cavity_match_golden(tmp_path):
    golden = _golden()
    bad = _number_mismatches("", budget_outputs(str(tmp_path / "budget")),
                             golden["budget"])
    got = cavity_outputs(str(tmp_path / "cavity"))
    for cmd in sorted(set(got) | set(golden["cavity"])):
        bad += _number_mismatches(f"cavity {cmd}: ", got.get(cmd, {}),
                                  golden["cavity"].get(cmd, {}))
    assert not bad, "outputs differ from tests/golden.json:\n" + "\n".join(bad)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {
            "pipeline": {str(s): pipeline_outputs(s, os.path.join(tmp, str(s)))
                         for s in SEEDS},
            "budget": budget_outputs(os.path.join(tmp, "budget")),
            "cavity": cavity_outputs(os.path.join(tmp, "cavity")),
        }
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
