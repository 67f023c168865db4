"""Which `raise` statements of `src/tbsim` the in-process tests reach.

Usage, from the repository root:

    python tests/tools/raise_coverage.py [pytest arguments]

With no arguments it runs the whole suite (`tests`, quietly) in this process
under `sys.settrace`, and then lists every `raise` statement of `src/tbsim`
that no test executed. A statement counts as reached when its first line
ran, so a `raise` must not share its line with the condition that guards
it. Child processes, such as the console-script runs, are not traced.

It uses the standard library and pytest only. It is not a tier-1 test: the
tracing makes the suite slower. The exit status is pytest's, or 1 when pytest
passed but some `raise` went unreached.
"""

import ast
import glob
import os
import sys

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


def main(argv):
    statements = raise_statements()
    reached = set()  # (path, first line of a raise that ran)

    def call(frame, event, arg):
        path = frame.f_code.co_filename
        lines = statements.get(path)
        if not lines:
            return None

        def line(frame, event, arg):
            if event == "line" and frame.f_lineno in lines:
                reached.add((path, frame.f_lineno))
            return line
        return line

    import pytest

    os.chdir(ROOT)  # pyproject.toml puts src/ first on sys.path
    sys.settrace(call)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)

    unreached = [(path, line) for path, lines in statements.items()
                 for line in sorted(lines) if (path, line) not in reached]
    total = sum(map(len, statements.values()))
    print(f"\n{total - len(unreached)} of {total} raise statements in src/tbsim reached")
    for path, line in unreached:
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()[line - 1].strip()
        print(f"unreached: {os.path.relpath(path, ROOT)}:{line}: {text}")
    return int(status) or int(bool(unreached))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
