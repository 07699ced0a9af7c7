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
from .sampling import as_steps


def format_value(x) -> str:
    if type(x) is float:  # the common cell, tested first
        return repr(x)
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
        lines.append(",".join(map(format_value, row)))
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


def write_gains_csv(directory, gains) -> None:
    """One file per step, K_01.csv, K_02.csv, ...; rows are matrix rows.

    ``gains`` is one gain set (:func:`~riskconvex.sampling.as_steps`).
    The header row names the columns col_0..col_{q-1}; the step index
    lives in the filename.
    """
    gains = as_steps(gains)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = [f"col_{j}" for j in range(gains.shape[2])]
    for t, k in enumerate(gains, start=1):
        write_csv(directory / f"K_{t:02d}.csv", k, header=header)


def read_gains_csv(directory, shape) -> np.ndarray:
    """Read gains written by :func:`write_gains_csv`, ordered by step.

    ``shape`` is the (steps, rows, cols) the caller needs, and the gains
    come back as one array of it; another file count or matrix shape is
    a ``ConfigError`` naming the directory or the file.
    """
    directory = Path(directory)
    steps, rows, cols = shape
    # K_100.csv follows K_99.csv: shorter names first, then by name.
    paths = sorted(directory.glob("K_*.csv"), key=lambda p: (len(p.name), p.name))
    if len(paths) != steps:
        raise ConfigError(f"{directory}: expected {steps} gain files K_*.csv, "
                          f"found {len(paths)}")
    gains = [read_matrix(path, header=True)[1] for path in paths]
    for path, k in zip(paths, gains):
        if k.shape != (rows, cols):
            raise ConfigError(f"{path}: expected a {rows}x{cols} gain, "
                              f"found {k.shape[0]}x{k.shape[1]}")
    return np.array(gains)
