"""Every `tbsim` command as the installed console script runs it.

The other tests call `main()` in process, so they never see the entry point
that `pyproject.toml` declares, what a command imports from a cold start, nor
the modes its files get. The session fixture `console_runs` (conftest.py) writes
the script that pip would generate from that declaration and runs each command
through it once; these tests and the module-set, SciPy and umask tests of
test_config_cli.py check what those runs did.
"""

import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def test_each_command_through_the_console_script(console_runs):
    # a warning or a traceback prints lines of its own on stderr
    for command, run in console_runs.items():
        assert run.proc.returncode == run.code, (command, run.proc.stderr)
        if run.code:  # a usage error
            assert len(run.errors) == 1 and run.errors[0].startswith("tbsim") \
                and ": error: " in run.errors[0], (command, run.errors)
        else:
            assert not run.errors, (command, run.errors)


@pytest.mark.parametrize("argv, code", [
    ("--version", 0), ("-h", 0), ("analyze tomo x.csv --seed -1", 2)])
def test_console_script_dispatch_loads_no_numpy(console_runs, argv, code):
    # the dispatch path runs no command handler, and numpy was most of its cold start
    run = console_runs[argv]
    assert run.proc.returncode == code, run.proc.stderr
    assert "tbsim.cli" in run.imported
    assert not [m for m in run.imported if m.split(".")[0] == "numpy"]
    if argv == "--version":
        # a text match, as the entry script's: Python 3.10 has no `tomllib`
        with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
            (version,) = re.search(r'^version = "(.+)"$', fh.read(), re.M).groups()
        assert run.proc.stdout == version + "\n", run.proc.stdout
