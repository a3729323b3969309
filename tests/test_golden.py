"""Byte-for-byte behaviour gate: the comparison report must not change."""

import os
from pathlib import Path

import pytest

from mvladders.cli import ExitStatus, main

GOLDEN = Path(__file__).parent / "golden" / "compare-cpa"
FILES = ("compare_cpa.csv", "summary.md", "delays.dat", "power.dat", "area.dat")


def _assert_golden_report(out: Path) -> None:
    assert main(["compare-cpa", "--cl", "2", "--out", str(out)]) == ExitStatus.OK
    assert sorted(p.name for p in out.iterdir()) == sorted(FILES)
    for name in FILES:
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_compare_cpa_report_matches_golden_bytes(tmp_path, capsys):
    _assert_golden_report(tmp_path / "report")
    capsys.readouterr()


def test_compare_cpa_report_matches_golden_bytes_on_one_cpu(tmp_path, capsys, monkeypatch):
    # one CPU runs the six designs in-process instead of in worker processes
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    _assert_golden_report(tmp_path / "report")
    capsys.readouterr()
