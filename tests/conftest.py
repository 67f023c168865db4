"""Fixtures shared by the test modules."""

import collections
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

# baseline.cfg with short runs, so that every command on it takes milliseconds;
# the lifetime fit needs the 20 000 counts
_SHORT_RUNS = {
    "tomography.cycles_per_setting": "2000",
    "hom.cycles": "20000",
    "autocorr.cycles": "20000",
    "lifetime.counts": "20000",
    "rabi.cycles_per_point": "1000",
}


@pytest.fixture(scope="session")
def short_cfg(tmp_path_factory):
    """The path of baseline.cfg with `_SHORT_RUNS`."""
    with open(os.path.join(ROOT, "baseline.cfg"), encoding="utf-8") as fh:
        cfg = fh.read()
    for key, value in _SHORT_RUNS.items():
        cfg = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {value}", cfg, flags=re.M)
    path = tmp_path_factory.mktemp("cfg") / "short.cfg"
    path.write_text(cfg)
    return str(path)


def _entry_script(tmp_path):
    """A pip-style `tbsim` script for the `tbsim = "module:function"` line of
    pyproject.toml (a text match: Python 3.10 has no `tomllib`)."""
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        module, func = re.search(r'^tbsim = "([\w.]+):(\w+)"$', fh.read(), re.M).groups()
    path = tmp_path / "tbsim"
    path.write_text(f"import sys\nfrom {module} import {func}\nsys.exit({func}())\n")
    return str(path)


# the modules a config file loads: RunConfig builds every model
_CONFIG_MODULES = ("cascade", "cavity", "config", "kernels", "optics", "rng")
_OPTICS_MODULES = ("cascade", "fitting", "kernels", "optics", "rng")
# command: (exit code, tbsim modules besides tbsim, tbsim.cli and tbsim.table,
# files it writes besides manifest.json). {out} is the command's own output
# directory and {prev} that of the command before it. The dispatch path
# (--version, -h, a usage error) runs no handler, so it loads no numpy
_COMMANDS = {
    "--version": (0, (), ()),
    "-h": (0, (), ()),
    "analyze g2 --out {out}": (2, (), ()),
    "analyze tomo x.csv --seed -1": (2, (), ()),
    "cavity spectrum --out {out}": (0, ("cavity",), ("spectrum.csv", "resonance.json")),
    "cavity purcell --out {out}": (0, ("cavity",), ("purcell.csv",)),
    "cavity efficiency --out {out}": (0, ("cavity",), ("efficiency.json",)),
    "simulate tomography --config {cfg} --out {out}": (
        0, _CONFIG_MODULES + ("qcore", "tomo"), ("tomography_counts.csv",)),
    "analyze tomo {prev}/tomography_counts.csv --out {out}": (
        0, ("qcore", "rng", "tomo"), ("analyze_tomo.json",)),
    "simulate rabi --config {cfg} --out {out}": (0, _CONFIG_MODULES, ("rabi_scan.csv",)),
    "analyze rabi {prev}/rabi_scan.csv --out {out}": (0, ("fitting",), ("analyze_rabi.json",)),
    "simulate autocorr --config {cfg} --out {out}": (0, _CONFIG_MODULES, ("autocorr_hist.csv",)),
    "analyze g2 {prev}/autocorr_hist.csv --out {out}": (0, _OPTICS_MODULES, ("analyze_g2.json",)),
    "simulate hom --config {cfg} --out {out}": (0, _CONFIG_MODULES, ("hom_hist.csv",)),
    "analyze hom {prev}/hom_hist.csv --out {out}": (0, _OPTICS_MODULES, ("analyze_hom.json",)),
    "simulate lifetime --config {cfg} --out {out}": (0, _CONFIG_MODULES, ("lifetime_hist.csv",)),
    "analyze lifetime {prev}/lifetime_hist.csv --out {out}": (
        0, _OPTICS_MODULES, ("analyze_lifetime.json",)),
    "analyze budget {budget} --out {out}": (0, ("cavity", "config"), ("analyze_budget.json",)),
}

# a command of `_COMMANDS` as it ran: its row (code, modules, files), the umask
# it ran under, the finished process, the modules it imported, its stderr lines
# besides the import lines, and the mode of each file in its output directory
Run = collections.namedtuple("Run", "code modules files umask proc imported errors modes")


@pytest.fixture(scope="session")
def console_runs(tmp_path_factory, short_cfg):
    """Every command of `_COMMANDS`, by command, run once through the console
    script in a child under `python -X importtime`, with an output directory
    and a umask of its own. The umasks alternate, 022 and 077: a 0660 creation
    mode shows only under 022, a mode forced after the write only under 077."""
    tmp = tmp_path_factory.mktemp("console")
    script = _entry_script(tmp)
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    runs = {}
    for i, (command, row) in enumerate(_COMMANDS.items()):
        out, umask = tmp / str(i), (0o022, 0o077)[i % 2]
        argv = command.format(out=out, prev=tmp / str(i - 1), cfg=short_cfg,
                              budget=os.path.join(ROOT, "budget.cfg")).split()
        proc = subprocess.run([sys.executable, "-X", "importtime", script, *argv], env=env,
                              umask=umask, capture_output=True, text=True, timeout=60)
        lines = proc.stderr.splitlines()
        # "import time: self [us] | cumulative | module", the module indented by depth
        imported = [ln.rsplit("|", 1)[1].strip() for ln in lines if ln.startswith("import time:")]
        errors = [ln for ln in lines if not ln.startswith("import time:")]
        modes = {f.name: f.stat().st_mode & 0o777 for f in out.iterdir()} \
            if out.exists() else {}
        runs[command] = Run(*row, umask, proc, imported, errors, modes)
    return runs
