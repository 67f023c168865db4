"""The data-file codec shared by every reader and writer."""

import pytest

from tbsim.table import format_table, read_table

COLUMNS = ("x", "n")
TYPES = (float, int)


def test_format_and_read_roundtrip():
    text = format_table(COLUMNS, [(0.1, 3), (1e-300, -2)], meta={"w": 0.30000000000000004})
    assert text == "# w=0.30000000000000004\nx,n\n0.1,3\n1e-300,-2\n"
    meta, (x, n) = read_table("# a comment\n\n" + text, COLUMNS, "test", TYPES)
    assert meta == {"w": 0.30000000000000004}
    assert x == [0.1, 1e-300] and n == [3, -2]
    assert read_table("x,n\n", COLUMNS, "test", TYPES) == ({}, [[], []])


@pytest.mark.parametrize("text,message", [
    ("1.0,2\n", "header"),
    ("n,x\n1.0,2\n", "header"),
    ("", "no header"),
    ("x,n\n1.0\n", "row 2"),
    ("x,n\n1.0,2,3\n", "row 2"),
    ("x,n\n1.0,2.5\n", "row 2"),
    ("x,n\nabc,2\n", "row 2"),
    ("x,n\n1.0,2\nnan,2\n", "row 3"),
    ("x,n\ninf,2\n", "row 2"),
    ("x,n\n1.0,9223372036854775808\n", "row 2"),
    ("x,n\n1.0,-9223372036854775809\n", "row 2"),
    ("# w=1.0\n# w=2.0\nx,n\n", "repeats"),
    ("# w=nan\nx,n\n", "metadata line 1"),
])
def test_read_table_rejects(text, message):
    with pytest.raises(ValueError, match=message):
        read_table(text, COLUMNS, "test", TYPES)
