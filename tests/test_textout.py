import io
import tracemalloc

import numpy as np
import pytest

from weakmeas import textout


def per_cell_table(column_names, columns, header, delimiter):
    """Reference writer: one format_value call per cell, arrays taken as
    their Python values."""
    cols = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    lines = [f"# {key} = {textout.format_value(value)}" for key, value in header.items()]
    lines.append("# columns: " + delimiter.join(column_names))
    for row in zip(*cols):
        lines.append(delimiter.join(textout.format_value(x) for x in row))
    return "".join(line + "\n" for line in lines)


def _bits(values):
    return np.array(values, dtype=np.uint64).view(np.float64)


def test_write_table_matches_per_cell_formatting(monkeypatch):
    floats = np.array([0.0, -0.0, 1 / 3, -2.5e-300, 1e22, np.nan, np.inf, -np.inf])
    n = floats.size
    columns = [
        np.arange(n),
        np.arange(n) % 3 == 0,
        floats,
        np.array([0, 1, 2**53 + 1, 2**63, 2**64 - 1, 5, 6, 7], dtype=np.uint64),
        (floats * (1 + 2j)).imag,  # strided view
        np.array([5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 0.1, -1.5, 2.0**70, 7.0]),
        np.array([-2**63, 2**63 - 1, -1, 0, 1, -10, 10, -(10**18)], dtype=np.int64),
        # -0.0 beside 0.0, NaNs with the sign bit and other payloads
        np.concatenate([[-0.0, 0.0, 0.0, -0.0], _bits([
            0xFFF8000000000000, 0x7FF0000000000001, 0xFFF0000000000001, 0x7FFFFFFFFFFFFFFF,
        ])]),
        # the longest '%.17g' texts, 24 characters each
        np.array([-1.7976931348623157e308, -2.2250738585072014e-308, -4.9406564584124654e-324,
                  -1.2345678901234567e-100, 1.7976931348623157e308, -np.nan, -0.0, 1.0]),
    ]
    for dtype in (np.int8, np.int16, np.int32, np.uint8, np.uint16, np.uint32):
        info = np.iinfo(dtype)
        columns.append(np.array([info.min, info.max, 0, 1, info.max - 1, info.min + 1,
                                 info.max // 10, info.max // 3], dtype=dtype))
    # every digit-count boundary, 10**k - 1 and 10**k, signed and unsigned
    boundaries = [x for k in range(1, 20) for x in (10**k - 1, 10**k)] + [0, 2**64 - 1]
    boundaries = np.array(boundaries, dtype=np.uint64)
    signed = boundaries[boundaries < 2**63].astype(np.int64)
    names = [f"c{i}" for i in range(len(columns))]
    header = {"seed": 4, "g": 0.05, "label": "t"}
    tables = [
        (names, columns),
        (["u", "neg", "pos"], [boundaries[:len(signed)], -signed, signed]),
        (["a", "b", "c"], [np.array([], np.int64), np.array([], bool), np.array([])]),
    ]
    for delimiter in ("\t", ",", " | "):
        for table_names, table in tables:
            expected = per_cell_table(table_names, table, header, delimiter)
            for rows_per_write in (2**12, 3, 1):
                monkeypatch.setattr(textout, "ROWS_PER_WRITE", rows_per_write)
                buf = io.StringIO()
                textout.write_table(buf, table_names, table, header, delimiter)
                assert buf.getvalue() == expected
    buf = io.StringIO()
    textout.write_table(buf, ["a"], [np.array([])], None)
    assert buf.getvalue() == "# columns: a\n"


@pytest.mark.parametrize("delimiter", ["\0", "\n", ",\n", "\t\0"])
def test_write_table_refuses_a_nul_or_newline_delimiter(delimiter, tmp_path):
    buf = io.StringIO()
    with pytest.raises(ValueError):
        textout.write_table(buf, ["a"], [np.arange(3)], {"seed": 1}, delimiter)
    assert buf.getvalue() == ""
    path = tmp_path / "t.tsv"
    with pytest.raises(ValueError):
        textout.write_table(path, ["a"], [np.arange(3)], None, delimiter)
    assert not path.exists()


def test_write_table_memory_is_bounded_by_the_chunk():
    # The text is built ROWS_PER_WRITE rows at a time: the peak (about
    # 0.9 MB here) must not grow with the row count. Built as one matrix,
    # these 2**18 rows would take ~18 MB.
    n = 2**18
    columns = [
        np.arange(n, dtype=np.int64),
        np.arange(n) % 3 == 0,
        np.random.default_rng(0).standard_normal(n),
        np.arange(n, dtype=np.uint64) * np.uint64(70368744177664),
    ]

    class Sink:
        """Keeps only the length of each write, so held text is not counted."""
        size = 0

        def write(self, text):
            self.size += len(text)

    sink = Sink()
    tracemalloc.start()
    try:
        textout.write_table(sink, ["t", "b", "x", "id"], columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.size > 40 * n
    assert peak < 512 * textout.ROWS_PER_WRITE


@pytest.mark.parametrize("column", [
    np.array([1.0, 0.5j]),
    [2.5, None],
    [2.5, 1 + 2j],
    ["x", "y"],
], ids=["complex", "none", "mixed-complex", "str"])
def test_write_table_refuses_other_columns_before_writing(column, tmp_path):
    buf = io.StringIO()
    with pytest.raises(ValueError):
        textout.write_table(buf, ["a", "b"], [np.arange(2), column], {"seed": 1})
    assert buf.getvalue() == ""
    path = tmp_path / "t.tsv"
    with pytest.raises(ValueError):
        textout.write_table(path, ["a", "b"], [np.arange(2), column])
    assert not path.exists()


@pytest.mark.parametrize("names, columns, message", [
    (["a", "b"], [np.arange(3), np.arange(2.0)], "unequal lengths"),
    (["a"], [np.arange(2), np.arange(2)], "length mismatch"),
    (["a", "b", "c"], [np.arange(2), np.arange(2)], "length mismatch"),
], ids=["unequal-columns", "fewer-names", "more-names"])
def test_write_table_refuses_mismatched_shapes_before_writing(names, columns, message, tmp_path):
    buf = io.StringIO()
    with pytest.raises(ValueError, match=message):
        textout.write_table(buf, names, columns, {"seed": 1})
    assert buf.getvalue() == ""
    path = tmp_path / "t.tsv"
    with pytest.raises(ValueError, match=message):
        textout.write_table(path, names, columns)
    assert not path.exists()
