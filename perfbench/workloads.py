"""The four benchmark workloads and their golden checks.

Each workload's ``prepare`` builds fresh design objects and returns its jobs.
A benchmark pass runs every job once; jobs are timed one at a time by the
caller (closed loop).  Each job's output is compared with the golden bytes
stored in ``golden/``, generated once by ``make_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from mvladders import adders, analysis, cli, netlist, solver

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
# compare-cpa's --out, relative to ROOT (the cwd); removed after each run
OUT_DIR = ".perfbench_out/compare-cpa"

CHARACTERIZE_CL_FF = 2.0
SWEEP_LOADS_FF = (0.25, 0.5, 1.0, 2.0, 4.0)
COMPARE_FILES = ("compare_cpa.csv", "summary.md", "delays.dat", "power.dat", "area.dat")
COMPARE_ARGV = ["compare-cpa", "--cl", "2", "--out", OUT_DIR]


@dataclass
class Job:
    """One closed-loop job: ``run`` is timed, ``output`` turns its result into
    ``{golden key: text}`` and must yield exactly the keys in ``expect``.
    ``rows`` and ``vectors`` are the result rows and exhaustive vectors one
    run produces."""

    key: str
    run: Callable[[], object]
    output: Callable[[object], dict[str, str]]
    expect: tuple[str, ...]
    rows: int
    vectors: int


@dataclass
class Workload:
    name: str
    prepare: Callable[[], list[Job]]
    permute: bool  # whether the seed shuffles job order within a pass


def roundtrip_ok(hierarchical, flat) -> bool:
    """serialize -> parse -> serialize is byte-identical, and flattening the
    parsed netlist serializes to the flat netlist's bytes."""
    text = netlist.serialize(hierarchical)
    parsed = netlist.parse(text)
    return netlist.serialize(parsed) == text and netlist.serialize(
        netlist.flatten(parsed)
    ) == netlist.serialize(flat)


class SetupError(RuntimeError):
    pass


def _cpas():
    designs = [adders.build_cpa(cfg) for cfg in cli._COMPARE_CONFIGS]
    for d in designs:
        if not roundtrip_ok(d.hierarchical, d.netlist):
            raise SetupError(f"netlist round trip differs for {d.config.label}")
    return designs


def _full_adders():
    designs = adders.all_single_stage_designs()
    for d in designs:
        if not roundtrip_ok(d.netlist, d.netlist):
            raise SetupError(f"netlist round trip differs for {d.label}")
    return designs


def _row_key(label: str, cl_ff: float) -> str:
    return f"{label}@{cl_ff:g}fF"


def _verify_output(report) -> dict[str, str]:
    text = (
        f"{report.vectors} vectors, {report.failures} failures, "
        f"{report.conflicts} conflicts, {report.nonconverged} non-converged, "
        f"{report.floating_outputs} floating outputs, "
        f"{len(report.failure_samples)} failure samples"
    )
    return {report.design: text}


def _compile_all(designs) -> None:
    for d in designs:
        solver.compile_netlist(d.netlist)


def _prepare_verify() -> list[Job]:
    designs = _cpas()
    _compile_all(designs)
    return [
        Job(
            key=d.config.label,
            run=lambda d=d: adders.verify_design(d),
            output=_verify_output,
            expect=(d.config.label,),
            rows=1,
            vectors=2 * (d.radix ** d.digits) ** 2,
        )
        for d in designs
    ]


def _prepare_characterize() -> list[Job]:
    designs = _cpas()
    _compile_all(designs)
    model = analysis.TimingModel.default()
    return [
        Job(
            key=d.config.label,
            run=lambda d=d: analysis.bench(d, model, CHARACTERIZE_CL_FF),
            output=lambda row: {_row_key(row.design, row.cl_ff): row.csv_row()},
            expect=(_row_key(d.config.label, CHARACTERIZE_CL_FF),),
            rows=1,
            vectors=0,
        )
        for d in designs
    ]


def _prepare_sweep() -> list[Job]:
    designs = _full_adders()
    _compile_all(designs)
    model = analysis.TimingModel.default()
    return [
        Job(
            key=d.label,
            run=lambda d=d: analysis.sweep_load(d, model, SWEEP_LOADS_FF),
            output=lambda sweep: {_row_key(r.design, r.cl_ff): r.csv_row() for r in sweep.rows},
            expect=tuple(_row_key(d.label, cl) for cl in SWEEP_LOADS_FF),
            rows=len(SWEEP_LOADS_FF),
            vectors=0,
        )
        for d in designs
    ]


def _run_compare():
    out = ROOT / OUT_DIR
    shutil.rmtree(out.parent, ignore_errors=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(list(COMPARE_ARGV))
    files = {}
    for name in COMPARE_FILES:
        path = out / name
        files[name] = path.read_bytes().decode() if path.exists() else "<missing>"
    shutil.rmtree(out.parent, ignore_errors=True)
    files["stdout.txt"] = buf.getvalue()
    files["status.txt"] = f"{status}\n"
    return files


def _prepare_compare() -> list[Job]:
    designs = _cpas()
    return [
        Job(
            key="compare-cpa",
            run=_run_compare,
            output=lambda files: files,
            expect=COMPARE_FILES + ("stdout.txt", "status.txt"),
            rows=len(designs),
            vectors=sum(2 * (d.radix ** d.digits) ** 2 for d in designs),
        )
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-cpa", _prepare_verify, permute=True),
        Workload("characterize-cpa", _prepare_characterize, permute=True),
        Workload("sweep-fa", _prepare_sweep, permute=True),
        Workload("compare-cpa", _prepare_compare, permute=False),
    )
}


# -- golden store -------------------------------------------------------

def _golden_files() -> dict[str, Path]:
    return {
        "verify-cpa": GOLDEN / "verify.json",
        "characterize-cpa": GOLDEN / "characterize.json",
        "sweep-fa": GOLDEN / "sweep.json",
    }


def load_golden(workload: str) -> dict[str, str]:
    if workload == "compare-cpa":
        target = GOLDEN / "compare-cpa"
        return {path.name: path.read_bytes().decode() for path in sorted(target.iterdir())}
    return json.loads(_golden_files()[workload].read_text())


def save_golden(workload: str, outputs: dict[str, str]) -> None:
    if workload == "compare-cpa":
        target = GOLDEN / "compare-cpa"
        target.mkdir(parents=True, exist_ok=True)
        for name, text in outputs.items():
            (target / name).write_bytes(text.encode())
        return
    path = _golden_files()[workload]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")


def mismatches(job: Job, outputs: dict[str, str], golden: dict[str, str]) -> list[str]:
    """Keys of ``job`` whose output is missing, unexpected or differs from
    the golden bytes by even one byte."""
    keys = sorted(set(job.expect) | set(outputs))
    return [
        key for key in keys
        if key not in job.expect or key not in golden or outputs.get(key) != golden[key]
    ]
