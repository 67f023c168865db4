"""The `tbsim` console script, as an install makes it.

The other tests call `main()` in process, so they never see the entry point
that `pyproject.toml` declares, nor what the script imports before `main()`
runs. This test writes the script that pip would generate from that
declaration and runs it in a child, under `python -X importtime`.
"""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _entry_script(tmp_path):
    """A pip-style `tbsim` script for the `tbsim = "module:function"` line of
    pyproject.toml (a text match: Python 3.10 has no `tomllib`)."""
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        module, func = re.search(r'^tbsim = "([\w.]+):(\w+)"$', fh.read(), re.M).groups()
    path = tmp_path / "tbsim"
    path.write_text(f"import sys\nfrom {module} import {func}\nsys.exit({func}())\n")
    return str(path)


@pytest.mark.parametrize("argv, code", [
    ("--version", 0), ("-h", 0), ("analyze tomo x.csv --seed -1", 2)])
def test_console_script_dispatch_loads_no_numpy(tmp_path, argv, code):
    # the dispatch path runs no command handler, and numpy was most of its cold start
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", _entry_script(tmp_path), *argv.split()],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.splitlines()
    # "import time: self [us] | cumulative | module", the module indented by depth
    imported = [ln.rsplit("|", 1)[1].strip() for ln in lines if ln.startswith("import time:")]
    assert "tbsim.cli" in imported
    assert not [m for m in imported if m.split(".")[0] == "numpy"]
    errors = [ln for ln in lines if not ln.startswith("import time:")]
    if code:
        assert len(errors) == 1 and errors[0].startswith("tbsim") and ": error: " in errors[0], \
            errors
    else:
        assert not errors, errors
