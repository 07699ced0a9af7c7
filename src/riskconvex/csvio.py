"""CSV reading and writing with full round-trip decimal precision.

Floats are written with repr(), the shortest decimal string that parses
back to the identical float64, so every emitted CSV round-trips through
:func:`read_matrix` bit-exactly and reruns with the same seed are
byte-identical.

:func:`read_matrix` is the one reader of numeric input.  Its rule: a
numeric CSV is a rectangular table of finite numbers, and its header
fixes its width (for a headerless file, the first row does).  Anything
else is a :class:`ConfigError` naming the file and, where there is one,
the line.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import ConfigError


def format_value(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool,)):
        return "1" if x else "0"
    if isinstance(x, (int,)):
        return str(x)
    return repr(float(x))


def write_csv(path, rows, header=None) -> None:
    """Write rows (iterables of values) with an optional header row.

    Uses "\\n" line endings and UTF-8 regardless of platform so reruns
    are byte-identical.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    if header is not None:
        lines.append(",".join(str(h) for h in header))
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_float(cell: str, path, line_no: int) -> float:
    """Strict parse of a finite decimal float, with a file/line error message."""
    try:
        value = float(cell)
    except ValueError as exc:
        raise ConfigError(f"{path}, line {line_no}: cannot parse {cell!r} as a number") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{path}, line {line_no}: non-finite value {cell!r}")
    return value


def read_matrix(path, header: bool = False):
    """Read a numeric CSV into (header fields or None, float64 array of shape (rows, width)).

    Blank lines are skipped; line numbers in errors count every line of
    the file.  With ``header`` the first line names the columns.
    """
    head, out, _ = _read_numbered(path, header)
    return head, out


def _read_numbered(path, header: bool = False):
    """:func:`read_matrix`, plus the file line number of each row, for
    callers whose own checks name a line."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    lines = [(no, line.split(",")) for no, line in enumerate(text.split("\n"), 1) if line]
    if not lines:
        raise ConfigError(f"{path}: empty file" + (", expected a header row" if header else ""))
    head = lines.pop(0)[1] if header else None
    width = len(head) if header else len(lines[0][1])
    out = np.empty((len(lines), width))
    for i, (no, cells) in enumerate(lines):
        if len(cells) != width:
            raise ConfigError(f"{path}, line {no}: expected {width} columns, found {len(cells)}")
        out[i] = [_parse_float(c, path, no) for c in cells]
    return head, out, [no for no, _ in lines]
