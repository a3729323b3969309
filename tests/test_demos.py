"""Each demo prints the bytes recorded in tests/golden/demos/<name>.txt."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mvladders

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden():
    assert [d.stem for d in DEMOS] == sorted(p.stem for p in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_golden_bytes(demo, tmp_path):
    src = str(Path(mvladders.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        check=True,
    )
    assert run.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
