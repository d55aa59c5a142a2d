import io

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
    ]
    names = [f"c{i}" for i in range(len(columns))]
    header = {"seed": 4, "g": 0.05, "label": "t"}
    for delimiter in ("\t", ","):
        expected = per_cell_table(names, columns, header, delimiter)
        for rows_per_write in (textout.ROWS_PER_WRITE, 3, 1):
            monkeypatch.setattr(textout, "ROWS_PER_WRITE", rows_per_write)
            buf = io.StringIO()
            textout.write_table(buf, names, columns, header, delimiter)
            assert buf.getvalue() == expected
    buf = io.StringIO()
    textout.write_table(buf, ["a"], [np.array([])], None)
    assert buf.getvalue() == "# columns: a\n"


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
