"""Frozen output bytes.

Each directory under tests/golden/ holds the stdout (``stdout.txt``) and the
``--out`` files (``out/``) of one CLI command below, written by the release
whose table writer formatted one row at a time. Rerunning the command must
reproduce every byte: the README promises ``%.17g`` files and seeded runs
that do not change, and a faster writer must not change them either.
"""

from pathlib import Path

import pytest

from weakmeas.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "sample-three-box": ["sample", "--scenario", "three-box/C", "--n", "2000", "--seed", "7"],
    "sample-spin-amp-csv": ["sample", "--scenario", "spin-amp/1j", "--n", "500", "--seed", "3",
                            "--format", "csv"],
    "simulate-spin-amp": ["simulate", "--scenario", "spin-amp/100", "--grid-n", "256"],
    "scan-g": ["scan", "--scenario", "spin-amp/100", "--sweep", "g=lin:0:0.2:5"],
}


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden_bytes(case, tmp_path, capsysbinary):
    out = tmp_path / "out"
    assert main([*CASES[case], "--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / case / "stdout.txt").read_bytes()
    expected = _files(GOLDEN / case / "out")
    actual = _files(out)
    assert sorted(actual) == sorted(expected)
    for name, data in expected.items():
        assert actual[name] == data, name
