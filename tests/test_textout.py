import io

import numpy as np

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
        floats + 0.5j,
        [1, 2.5, None, True, 1 + 2j, "x", np.float64(0.1), np.int64(-3)],
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
