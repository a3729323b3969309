"""Byte-for-byte behaviour gate: the comparison report must not change."""

from pathlib import Path

import pytest

from mvladders.cli import ExitStatus, main

GOLDEN = Path(__file__).parent / "golden" / "compare-cpa"
FILES = ("compare_cpa.csv", "summary.md", "delays.dat", "power.dat", "area.dat")


def test_compare_cpa_report_matches_golden_bytes(tmp_path, capsys):
    out = tmp_path / "report"
    assert main(["compare-cpa", "--cl", "2", "--out", str(out)]) == ExitStatus.OK
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == sorted(FILES)
    for name in FILES:
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name
