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
# The longest '%.17g' text, e.g. -1.7976931348623157e+308: sign, 17 digits,
# point and a five-character exponent.
_FLOAT_WIDTH = 24
_FLOAT_CELL = f"%-{_FLOAT_WIDTH}{_FMT}"
_TEN = np.uint64(10)
# The least magnitude that has a digit at 10**k: 0 for the units digit,
# which is written even for zero, and 10**k above it.
_DIGIT_FLOORS = np.array([0] + [10**k for k in range(1, 20)], dtype=np.uint64)
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


def _float_cells(x: np.ndarray) -> np.ndarray:
    """'%.17g' cells as NUL-padded rows, each distinct value formatted once.

    Values are told apart by their bit pattern, so -0.0 and 0.0 (and NaNs
    of any sign or payload) are formatted separately.
    """
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = (_FLOAT_CELL * distinct.size) % tuple(distinct.view(np.float64).tolist())
    cells = np.frombuffer(text.encode("ascii").replace(b" ", b"\0"), np.uint8)
    cells = cells.reshape(distinct.size, _FLOAT_WIDTH)
    return np.take(cells, inverse.reshape(-1), axis=0)


def _int_cells(x: np.ndarray) -> np.ndarray:
    """Decimal cells as NUL-padded rows: '-' where negative, then the digits
    of the magnitude, from repeated division by a scalar ten."""
    negative = x < 0
    if x.dtype.kind == "u":
        magnitude = x.astype(np.uint64)
    else:
        # 0 - m wraps in uint64, so -2**63 becomes 2**63.
        magnitude = x.astype(np.int64).view(np.uint64)
        magnitude = np.where(negative, np.uint64(0) - magnitude, magnitude)
    width = int(np.searchsorted(_DIGIT_FLOORS, magnitude.max(), "right"))
    sign = int(negative.any())
    # One row per character position, so each division writes a contiguous row.
    cells = np.empty((sign + width, x.size), np.uint8)
    rest = magnitude
    for j in range(sign + width - 1, sign - 1, -1):
        quotient = rest // _TEN
        cells[j] = rest - quotient * _TEN
        rest = quotient
    cells[sign:] += ord("0")
    cells[sign:] *= magnitude >= _DIGIT_FLOORS[width - 1::-1, None]
    if sign:
        cells[0] = np.where(negative, ord("-"), 0)
    return cells.T


def _cells(x: np.ndarray) -> np.ndarray:
    if x.dtype.kind == "b":
        return (x.astype(np.uint8) + ord("0"))[:, None]
    if x.dtype.kind == "f":
        return _float_cells(x)
    return _int_cells(x)


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
    object, str), or a delimiter holding NUL or a newline, raises
    ValueError before anything is written.

    Each chunk of ROWS_PER_WRITE rows is built as one byte matrix: per
    column a block of NUL-padded cells, then the delimiter (or the newline)
    in every row; dropping the NULs leaves the chunk's text.
    """
    cols = [np.asarray(c) for c in columns]
    if len(cols) != len(column_names):
        raise ValueError("column_names and columns length mismatch")
    for name, c in zip(column_names, cols):
        if c.ndim != 1 or c.dtype.kind not in "biuf":
            raise ValueError(f"column {name!r}: not a 1-D bool, integer or float array")
    n_rows = len(cols[0]) if cols else 0
    if any(len(c) != n_rows for c in cols):
        raise ValueError("columns have unequal lengths")
    if "\0" in delimiter or "\n" in delimiter:
        raise ValueError(f"delimiter {delimiter!r} holds a NUL or a newline")
    separators = [np.frombuffer(delimiter.encode("utf-8"), np.uint8)] * (len(cols) - 1)
    separators.append(np.frombuffer(b"\n", np.uint8))
    with _open_target(target) as fh:
        fh.write(_lines(header, "# ") + "# columns: " + delimiter.join(column_names) + "\n")
        for lo in range(0, n_rows, ROWS_PER_WRITE):
            blocks = []
            for c, sep in zip(cols, separators):
                blocks += [_cells(c[lo:lo + ROWS_PER_WRITE]), sep]
            matrix = np.zeros((len(blocks[0]), sum(b.shape[-1] for b in blocks)), np.uint8)
            at = 0
            for block in blocks:
                matrix[:, at:at + block.shape[-1]] = block
                at += block.shape[-1]
            fh.write(matrix[matrix != 0].tobytes().decode("utf-8"))


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
