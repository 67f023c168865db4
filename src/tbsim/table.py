"""The one text format of every tbsim data file.

A table is UTF-8 text: optional `# key=value` metadata lines (floats,
written with `repr`), one header line naming the columns, then one
comma-joined row per record. Writers pass Python scalars, so every float
is written with its shortest round-trip `repr` and reads back bit-exact.
"""

from __future__ import annotations

import math


def format_table(columns, rows, meta=None) -> str:
    """Metadata lines, the header line and one line per row of scalars."""
    lines = [f"# {key}={value!r}" for key, value in (meta or {}).items()]
    lines.append(",".join(columns))
    lines += [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _parse(cast, field: str):
    value = cast(field)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite value {field!r}")
    if isinstance(value, int) and not _INT64_MIN <= value <= _INT64_MAX:
        raise ValueError(f"integer {field!r} is outside the 64-bit range")
    return value


def read_table(text: str, columns, what: str, types):
    """(metadata dict, one list per column) of a table written by `format_table`.

    `types` holds one parser per column (`int`, `float` or `str`); fields
    are stripped of surrounding blanks. A missing or different header, a
    row with the wrong field count, an unparsable value, a non-finite float,
    an integer beyond int64 or a repeated metadata key raises ValueError
    naming `what` and the line.
    """
    meta = {}
    cols = None  # one list per column once the header has been read
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            key = key.strip()
            if not sep:
                continue  # a plain comment
            if key in meta:
                raise ValueError(f"{what} file repeats '# {key}=' on line {lineno}")
            try:
                meta[key] = _parse(float, value)
            except ValueError as exc:
                raise ValueError(f"malformed {what} metadata line {lineno}: "
                                 f"{line!r} ({exc})") from None
            continue
        fields = [f.strip() for f in line.split(",")]
        if cols is None:
            if fields != list(columns):
                raise ValueError(f"{what} file header on line {lineno} is {line!r}, "
                                 f"expected {','.join(columns)!r}")
            cols = [[] for _ in columns]
            continue
        if len(fields) != len(columns):
            raise ValueError(f"malformed {what} row {lineno}: {line!r} "
                             f"(expected {len(columns)} fields)")
        try:
            for col, cast, f in zip(cols, types, fields):
                col.append(_parse(cast, f))
        except ValueError as exc:
            raise ValueError(f"malformed {what} row {lineno}: {line!r} ({exc})") from None
    if cols is None:
        raise ValueError(f"{what} file has no header line {','.join(columns)!r}")
    return meta, cols
