"""Which `raise` statements of `src/tbsim` the in-process tests reach.

Usage, from the repository root, as a pytest plugin on any pytest run:

    PYTHONPATH=src:tests/tools python -m pytest -p raise_coverage [pytest arguments]

or on its own:

    python tests/tools/raise_coverage.py [pytest arguments]

On its own, with no arguments, it runs the whole suite (`tests`, quietly).
Either way the run is traced by `sys.settrace` in this process, and the
summary lists every `raise` statement of `src/tbsim` that no test executed.
A statement counts as reached when its first line ran, so a `raise` must not
share its line with the condition that guards it. Child processes, such as
the console-script runs, are not traced.

It uses the standard library and pytest only. The tracing makes the suite
slower. The exit status is pytest's, or 1 when pytest passed but some
`raise` went unreached.
"""

import ast
import glob
import os
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
PACKAGE = os.path.join(ROOT, "src", "tbsim")


def raise_statements():
    """{path: the first line of every `raise` in that file of the package}."""
    found = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found[path] = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)}
    return found


class RaiseTracer:
    """Traces the pytest session from its configuration on, and fails a
    passing session in which some `raise` went unreached."""

    def __init__(self):
        self.statements = raise_statements()
        self.reached = set()  # (path, first line of a raise that ran)
        self.unreached = []

    def _call(self, frame, event, arg):
        path = frame.f_code.co_filename
        lines = self.statements.get(path)
        if not lines:
            return None

        def line(frame, event, arg):
            if event == "line" and frame.f_lineno in lines:
                self.reached.add((path, frame.f_lineno))
            return line
        return line

    def pytest_configure(self, config):
        sys.settrace(self._call)

    def pytest_sessionfinish(self, session):
        sys.settrace(None)
        self.unreached = [(path, line) for path, lines in self.statements.items()
                          for line in sorted(lines) if (path, line) not in self.reached]
        if self.unreached and session.exitstatus == pytest.ExitCode.OK:
            session.exitstatus = 1

    def pytest_terminal_summary(self, terminalreporter):
        total = sum(map(len, self.statements.values()))
        terminalreporter.write_line(
            f"{total - len(self.unreached)} of {total} raise statements in src/tbsim reached")
        for path, line in self.unreached:
            with open(path, encoding="utf-8") as fh:
                text = fh.read().splitlines()[line - 1].strip()
            terminalreporter.write_line(
                f"unreached: {os.path.relpath(path, ROOT)}:{line}: {text}")


def pytest_configure(config):
    """The plugin form: `-p raise_coverage` traces this pytest run."""
    config.pluginmanager.register(RaiseTracer())


def main(argv):
    os.chdir(ROOT)  # pyproject.toml puts src/ first on sys.path
    return int(pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"],
                           plugins=[RaiseTracer()]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
