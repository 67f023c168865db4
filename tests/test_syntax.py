"""Every source file parses as Python 3.10, the oldest version pyproject.toml allows.

This checks syntax only (`except*`, for one, is 3.11 syntax). It does not
catch a call to a standard-library API that is new in 3.11, such as
`tomllib`; the CI's 3.10 leg does.
"""

import ast
import glob
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def test_every_file_parses_as_python_3_10():
    paths = sorted(p for d in ("src/tbsim", "tests", "perfbench")
                   for p in glob.glob(os.path.join(ROOT, d, "**", "*.py"), recursive=True))
    assert len(paths) > 20
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), filename=path, feature_version=(3, 10))
    with pytest.raises(SyntaxError):  # the check does reject newer syntax
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
