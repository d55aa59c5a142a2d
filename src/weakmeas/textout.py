"""Plain-text writers: delimited numeric tables and key = value documents.

All numbers are printed with 17 significant digits so that files round-trip
float64 values exactly and identical runs produce identical bytes.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterable, Mapping, Sequence

import numpy as np

SIG_FIGS = 17
_FMT = f".{SIG_FIGS}g"
# Table cell templates by dtype kind; '%.17g' renders a float as format(x, _FMT).
_CELL = {"b": "%d", "i": "%d", "u": "%d", "f": f"%{_FMT}"}
# Rows formatted and written per write call; bounds the memory of the text.
ROWS_PER_WRITE = 2**12


def format_value(x) -> str:
    if isinstance(x, str):
        return x
    if x is None:
        return "nan"
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, complex):
        return f"{format(x.real, _FMT)},{format(x.imag, _FMT)}"
    return format(float(x), _FMT)


@contextlib.contextmanager
def _open_target(target):
    if hasattr(target, "write"):
        yield target
    else:
        with open(os.fspath(target), "w", encoding="utf-8") as fh:
            yield fh


def _lines(mapping: Mapping[str, object] | None, prefix: str) -> str:
    """One ``{prefix}key = value`` line per entry."""
    return "".join(f"{prefix}{key} = {format_value(value)}\n"
                   for key, value in (mapping or {}).items())


def write_table(
    target,
    column_names: Sequence[str],
    columns: Sequence[Iterable],
    header: Mapping[str, object] | None = None,
    delimiter: str = "\t",
) -> None:
    """Write parallel columns as delimited text with '#' comment headers.

    Each column is taken as a one-dimensional array: bool and integer
    columns print as integers (true as 1), float columns with 17
    significant digits (nan, inf, -inf, -0). Any other column (complex,
    object, str) raises ValueError before anything is written.
    """
    cols = [np.asarray(c) for c in columns]
    if len(cols) != len(column_names):
        raise ValueError("column_names and columns length mismatch")
    for name, c in zip(column_names, cols):
        if c.ndim != 1 or c.dtype.kind not in _CELL:
            raise ValueError(f"column {name!r}: not a 1-D bool, integer or float array")
    n_rows = len(cols[0]) if cols else 0
    if any(len(c) != n_rows for c in cols):
        raise ValueError("columns have unequal lengths")
    row = delimiter.replace("%", "%%").join(_CELL[c.dtype.kind] for c in cols) + "\n"
    with _open_target(target) as fh:
        fh.write(_lines(header, "# ") + "# columns: " + delimiter.join(column_names) + "\n")
        for lo in range(0, n_rows, ROWS_PER_WRITE):
            hi = lo + ROWS_PER_WRITE
            fh.write("".join(map(row.__mod__, zip(*(c[lo:hi].tolist() for c in cols)))))


def write_keyvalues(
    target,
    mapping: Mapping[str, object],
    header: Mapping[str, object] | None = None,
) -> None:
    """Write a flat key = value document."""
    with _open_target(target) as fh:
        fh.write(_lines(header, "# ") + _lines(mapping, ""))


def render_keyvalues(mapping: Mapping[str, object]) -> str:
    return _lines(mapping, "")
