"""The error contract of `analyze`, fuzzed over mutated inputs.

Every `analyze` command reads a file that `simulate` wrote, or `budget.cfg`.
Whatever is done to that file (lines dropped, repeated or cut, fields set
to nan, inf, 1e400, a huge integer or nothing), `main()` must end with exit
0, 2, 3 or 4. A non-zero exit prints exactly one line on stderr, and exit 0
writes strict JSON.
"""

import contextlib
import io
import json
import os
import re
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbsim.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

# baseline.cfg with short runs, so that every analysis takes milliseconds
_SHORT_RUNS = {
    "tomography.cycles_per_setting": "2000",
    "hom.cycles": "20000",
    "autocorr.cycles": "20000",
    "lifetime.counts": "20000",
    "rabi.cycles_per_point": "1000",
}

# analyze what -> (simulate what, file it writes, extra analyze flags)
_ANALYSES = {
    "tomo": ("tomography", "tomography_counts.csv", ["--mc-runs", "3"]),
    "hom": ("hom", "hom_hist.csv", []),
    "g2": ("autocorr", "autocorr_hist.csv", []),
    "lifetime": ("lifetime", "lifetime_hist.csv", []),
    "rabi": ("rabi", "rabi_scan.csv", ["--rate-normalization", "1000"]),
}

# a field replaced is drawn four times as often as each line mutation
_KINDS = ("drop", "repeat", "cut", "truncate") + ("field",) * 4
_BAD_FIELDS = ("nan", "-nan", "inf", "-inf", "1e400", "-1e400", str(2**64), str(2**63 - 1),
               "-" + str(2**63 + 1), "9" * 400, "", " ", "0", "-1", "1e-320")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """{analyze what: (text of its input file, extra flags)}."""
    tmp = tmp_path_factory.mktemp("simulated")
    with open(os.path.join(ROOT, "baseline.cfg"), encoding="utf-8") as fh:
        cfg = fh.read()
    for key, value in _SHORT_RUNS.items():
        cfg = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {value}", cfg, flags=re.M)
    (tmp / "short.cfg").write_text(cfg)
    out = {}
    for what, (sim, name, flags) in _ANALYSES.items():
        assert main(["simulate", sim, "--config", str(tmp / "short.cfg"),
                     "--out", str(tmp)]) == 0
        out[what] = ((tmp / name).read_text(), flags)
        assert main(["analyze", what, str(tmp / name), "--out", str(tmp), *flags]) == 0
    with open(os.path.join(ROOT, "budget.cfg"), encoding="utf-8") as fh:
        out["budget"] = (fh.read(), [])
    return out


@st.composite
def mutations(draw, lines):
    """`lines` with one to three lines dropped, repeated or cut, or fields replaced."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(_KINDS))
        if kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        elif kind == "cut":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        elif kind == "truncate":  # the file ends inside line i
            lines = lines[:i] + [lines[i][:draw(st.integers(0, len(lines[i])))]]
        else:
            parts = re.split(r"([,=])", lines[i])  # fields at even positions
            j = 2 * draw(st.integers(0, len(parts) // 2))
            parts[j] = draw(st.sampled_from(_BAD_FIELDS))
            lines[i] = "".join(parts)
    return "\n".join(lines) + "\n"


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_input_keeps_the_error_contract(inputs, data):
    what = data.draw(st.sampled_from(sorted(inputs)), label="what")
    text, flags = inputs[what]
    mutated = data.draw(mutations(text.splitlines()), label="input")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(mutated)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning prints lines of its own on stderr
            code = main(["analyze", what, path, "--out", tmp, *flags])
        assert code in (0, 2, 3, 4)
        if code:
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), \
                err.getvalue()
        else:
            with open(os.path.join(tmp, f"analyze_{what}.json"), encoding="utf-8") as fh:
                json.loads(fh.read(), parse_constant=_reject_constant)
