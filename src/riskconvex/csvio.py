"""CSV reading and writing with full round-trip decimal precision.

Floats are written with repr(), the shortest decimal string that parses
back to the identical float64, so every emitted CSV round-trips through
:func:`read_csv` bit-exactly and reruns with the same seed are
byte-identical.
"""

from __future__ import annotations

import math
from pathlib import Path

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


def read_csv(path, header: bool = False):
    """Read a CSV written by :func:`write_csv`.

    Returns (header_fields or None, rows) where rows are lists of raw
    string cells.  Blank trailing lines are ignored.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    lines = [line for line in text.split("\n") if line != ""]
    head = None
    if header:
        if not lines:
            raise ConfigError(f"{path}: empty file, expected a header row")
        head = lines[0].split(",")
        lines = lines[1:]
    return head, [line.split(",") for line in lines]


def parse_float(cell: str, path, line_no: int) -> float:
    """Strict parse of a finite decimal float, with a file/line error message."""
    try:
        value = float(cell)
    except ValueError as exc:
        raise ConfigError(f"{path}, line {line_no}: cannot parse {cell!r} as a number") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{path}, line {line_no}: non-finite value {cell!r}")
    return value


def read_float_table(path, header: bool = False):
    """Read a numeric CSV into (header or None, list of float rows).

    Malformed and non-finite cells are hard errors naming the line. Rows
    may have differing lengths; callers validate shapes.
    """
    head, raw = read_csv(path, header=header)
    offset = 2 if header else 1
    rows = []
    for i, cells in enumerate(raw):
        rows.append([parse_float(c, path, i + offset) for c in cells])
    return head, rows
