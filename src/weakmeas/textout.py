"""Plain-text writers: delimited numeric tables and key = value documents.

All numbers are printed with 17 significant digits so that files round-trip
float64 values exactly and identical runs produce identical bytes.
"""

from __future__ import annotations

import contextlib
import io
import os
from typing import Iterable, Mapping, Sequence

import numpy as np

SIG_FIGS = 17
_FMT = f".{SIG_FIGS}g"
_FORMAT_FLOAT = f"{{:{_FMT}}}".format
# Rows formatted and written per write call; bounds the memory of the text.
ROWS_PER_WRITE = 2**12


def format_number(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, complex):
        return f"{format(x.real, _FMT)},{format(x.imag, _FMT)}"
    return format(float(x), _FMT)


def format_value(x) -> str:
    if isinstance(x, str):
        return x
    if x is None:
        return "nan"
    return format_number(x)


@contextlib.contextmanager
def _open_target(target):
    if hasattr(target, "write"):
        yield target
    else:
        with open(os.fspath(target), "w", encoding="utf-8") as fh:
            yield fh


def _format_column(column) -> list[str]:
    """The cells of one column as text, by the rule ``format_value`` applies
    to them; numpy arrays are formatted by dtype, without per-cell dispatch."""
    if isinstance(column, np.ndarray):
        kind = column.dtype.kind
        if kind == "b":
            return np.where(column, "1", "0").tolist()
        if kind in "iu":
            return list(map(str, column.tolist()))
        if kind == "f":
            return list(map(_FORMAT_FLOAT, column.tolist()))
    return [format_value(x) for x in column]


def _header_lines(header: Mapping[str, object] | None) -> list[str]:
    if not header:
        return []
    return [f"# {key} = {format_value(value)}" for key, value in header.items()]


def write_table(
    target,
    column_names: Sequence[str],
    columns: Sequence[Iterable],
    header: Mapping[str, object] | None = None,
    delimiter: str = "\t",
) -> None:
    """Write parallel columns as delimited text with '#' comment headers."""
    cols = [c if isinstance(c, np.ndarray) else list(c) for c in columns]
    if len(cols) != len(column_names):
        raise ValueError("column_names and columns length mismatch")
    n_rows = len(cols[0]) if cols else 0
    if any(len(c) != n_rows for c in cols):
        raise ValueError("columns have unequal lengths")
    head = _header_lines(header) + ["# columns: " + delimiter.join(column_names)]
    with _open_target(target) as fh:
        fh.write("\n".join(head) + "\n")
        for lo in range(0, n_rows, ROWS_PER_WRITE):
            cells = [_format_column(c[lo:lo + ROWS_PER_WRITE]) for c in cols]
            fh.write("\n".join(map(delimiter.join, zip(*cells))) + "\n")


def write_keyvalues(
    target,
    mapping: Mapping[str, object],
    header: Mapping[str, object] | None = None,
) -> None:
    """Write a flat key = value document."""
    with _open_target(target) as fh:
        for line in _header_lines(header):
            fh.write(line + "\n")
        for key, value in mapping.items():
            fh.write(f"{key} = {format_value(value)}\n")


def render_keyvalues(mapping: Mapping[str, object]) -> str:
    buf = io.StringIO()
    write_keyvalues(buf, mapping)
    return buf.getvalue()
