"""Command-line front end: verify designs, bench and sweep them, emit the
CPA comparison, and dump or simulate netlists.

Design specs take the form ``variant[,swing=reduced|full][,vdd=0.9|0.45]
[,digits=N]``, e.g. ``tfa2,swing=reduced,digits=4``.  Exit statuses: 0
success, 1 verification failure, 2 design/parse error, 3 solver
non-convergence, supply conflict, a refused analysis (such as a figure
that overflows) or a ``compare-cpa`` worker process that died.
"""

from __future__ import annotations

import argparse
import enum
import math
import os
import sys
import threading
from itertools import repeat
from pathlib import Path
from typing import Sequence

from . import analysis
from .adders import (
    AdderVariant,
    Cpa,
    CpaConfig,
    FullAdder,
    VerifyReport,
    build_cpa,
    build_full_adder,
    verify_design,
)
from .analysis import CSV_HEADER, MODEL_NOTE, BenchReport, TimingModel, bench, sweep_load
from .logic import CarrySwing, VoltageMap
from .netlist import NetlistError, ParseError, flatten, parse, serialize
from .solver import NonConvergenceError, default_input_maps, solve_dc

__all__ = ["main", "ExitStatus", "parse_design_spec"]


class ExitStatus(enum.IntEnum):
    OK = 0
    VERIFY_FAILED = 1
    BAD_REQUEST = 2
    SOLVER_TROUBLE = 3


_VARIANTS = {
    "tfa1": AdderVariant.TFA1,
    "tfa2": AdderVariant.TFA2,
    "qfa1": AdderVariant.QFA1,
    "qfa2": AdderVariant.QFA2,
    "bfa1": AdderVariant.BFA1_14T,
    "bfa2": AdderVariant.BFA2_28T,
    "bfa3": AdderVariant.BFA3_MUX,
}


class SpecError(ValueError):
    pass


def parse_design_spec(spec: str) -> FullAdder | Cpa:
    """Build the design named by a spec string."""
    parts = [p.strip() for p in spec.split(",") if p.strip()]
    if not parts:
        raise SpecError("empty design spec")
    variant = _VARIANTS.get(parts[0].lower())
    if variant is None:
        raise SpecError(f"unknown variant {parts[0]!r}; choose from {sorted(_VARIANTS)}")
    swing: CarrySwing | None = None
    vdd = 0.9
    digits = 1
    for part in parts[1:]:
        if "=" not in part:
            raise SpecError(f"expected key=value, got {part!r}")
        key, value = part.split("=", 1)
        key = key.strip().lower()
        value = value.strip().lower()
        if key == "swing":
            try:
                swing = CarrySwing(value)
            except ValueError:
                raise SpecError(f"swing must be 'reduced' or 'full', got {value!r}") from None
        elif key == "vdd":
            try:
                vdd = float(value)
            except ValueError:
                raise SpecError(f"malformed vdd {value!r}") from None
        elif key == "digits":
            try:
                digits = int(value)
            except ValueError:
                raise SpecError(f"malformed digits {value!r}") from None
        else:
            raise SpecError(f"unknown design-spec key {key!r}")
    try:
        if digits == 1:
            return build_full_adder(variant, swing, vdd)
        return build_cpa(CpaConfig(variant, digits, swing or variant.default_swing, vdd))
    except ValueError as exc:
        raise SpecError(str(exc)) from None


def _check_loads(loads: Sequence[float]) -> None:
    if not loads:
        raise SpecError("--cl needs at least one load")
    for cl in loads:
        if not math.isfinite(cl) or cl < 0:
            raise SpecError(f"--cl must be a finite load >= 0 fF, got {cl:g}")


def _verify(design: FullAdder | Cpa):
    """verify_design, with a request it refuses (too large) as a usage error."""
    try:
        return verify_design(design)
    except ValueError as exc:
        raise SpecError(str(exc)) from None


def _print_verify(report) -> ExitStatus:
    status = "PASS" if report.ok else "FAIL"
    print(
        f"{status} {report.design}: {report.vectors} vectors, "
        f"{report.failures} failures, {report.conflicts} conflicts, "
        f"{report.nonconverged} non-converged"
    )
    for line in report.failure_samples:
        print(f"  {line}")
    if report.conflicts or report.nonconverged:
        return ExitStatus.SOLVER_TROUBLE
    if report.failures:
        return ExitStatus.VERIFY_FAILED
    return ExitStatus.OK


def _cmd_verify(args) -> ExitStatus:
    design = parse_design_spec(args.design)
    return _print_verify(_verify(design))


def _cmd_bench(args) -> ExitStatus:
    _check_loads([args.cl])
    design = parse_design_spec(args.design)
    report = _verify(design)
    if not report.ok:
        return _print_verify(report)
    model = TimingModel.default()
    row = bench(design, model, args.cl)
    print(f"# {MODEL_NOTE}")
    print(CSV_HEADER)
    print(row.csv_row())
    return ExitStatus.OK


def _cmd_sweep(args) -> ExitStatus:
    _check_loads(args.cl)
    design = parse_design_spec(args.design)
    report = _verify(design)
    if not report.ok:
        return _print_verify(report)
    model = TimingModel.default()
    loads = args.cl
    sweep = sweep_load(design, model, loads)
    print(f"# {MODEL_NOTE}")
    print(CSV_HEADER)
    for row in sweep.rows:
        print(row.csv_row())
    for path, (slope, intercept, r2) in sweep.fits.items():
        print(f"# fit {path}: slope={slope:.6e} s/fF intercept={intercept:.6e} s r2={r2:.4f}")
    if not sweep.fits:
        print("note: no delay-vs-load fit; it needs at least two distinct loads", file=sys.stderr)
    return ExitStatus.OK


_COMPARE_CONFIGS = (
    CpaConfig(AdderVariant.BFA1_14T, 6, CarrySwing.FULL, 0.9),
    CpaConfig(AdderVariant.BFA1_14T, 6, CarrySwing.FULL, 0.45),
    CpaConfig(AdderVariant.TFA2, 4, CarrySwing.REDUCED, 0.9),
    CpaConfig(AdderVariant.TFA2, 4, CarrySwing.FULL, 0.9),
    CpaConfig(AdderVariant.QFA1, 3, CarrySwing.REDUCED, 0.9),
    CpaConfig(AdderVariant.QFA2, 3, CarrySwing.FULL, 0.9),
)


def _compare_design(cfg: CpaConfig, cl_ff: float) -> tuple[VerifyReport, BenchReport | None]:
    """Build and verify one comparison CPA, and bench it if it verified."""
    design = build_cpa(cfg)
    report = verify_design(design)
    return report, (bench(design, TimingModel.default(), cl_ff) if report.ok else None)


def _worker_count() -> int:
    """CPUs this process may run on, at most one per comparison design."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, len(_COMPARE_CONFIGS))


def compare_cpa(cl_ff: float, out_dir: Path | None = None):
    """Build, verify and bench the comparison set; returns (rows, checks).

    Each design is one job, run in forked worker processes (one per CPU in
    the affinity mask, at most six), or in-process on one CPU, without
    ``fork`` or when the caller runs other threads (a fork could copy a
    lock that one of them holds).  Forking imports nothing again, so a
    script may call this at module level with no ``__main__`` guard.
    Results are walked in _COMPARE_CONFIGS order, so the rows, the first
    verification failure raised (NetlistError) and the report bytes do not
    depend on the worker count.  A dead worker raises BrokenProcessPool; no
    worker outlives the call.

    Rows follow _COMPARE_CONFIGS order; checks is a list of (name, ok).
    """
    # Imported here, so that the other commands do not pay for the pool's
    # modules at start-up (about 20 ms and 1.4 MB on a 2-vCPU host).
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = _worker_count()
    can_fork = "fork" in multiprocessing.get_all_start_methods()
    pool = None
    if workers > 1 and can_fork and threading.active_count() == 1:
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        results = (pool.map if pool else map)(_compare_design, _COMPARE_CONFIGS, repeat(cl_ff))
        rows = []
        for report, row in results:
            if not report.ok:
                raise NetlistError(
                    f"verification failed for {report.design}: "
                    f"{report.failures} failures, {report.conflicts} conflicts"
                )
            rows.append(row)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    by_label = {row.design: row for row in rows}

    bin09 = by_label["6xBFA1_14T[full,0.9V]"]
    bin045 = by_label["6xBFA1_14T[full,0.45V]"]
    t_red = by_label["4xTFA2[reduced,0.9V]"]
    t_full = by_label["4xTFA2[full,0.9V]"]
    q_red = by_label["3xQFA1[reduced,0.9V]"]
    q_full = by_label["3xQFA2[full,0.9V]"]

    checks = [
        (
            "binary CPA area <= 0.65x each m-valued CPA area",
            all(
                bin09.area_nm <= 0.65 * other.area_nm
                for other in (t_red, t_full, q_red, q_full)
            ),
        ),
        (
            "0.45 V binary CPA has the minimum power column",
            all(bin045.power_w <= row.power_w for row in rows),
        ),
        (
            "full-swing m-valued CPAs beat reduced-swing twins on carry-chain delay",
            t_full.delays.cin_cout < t_red.delays.cin_cout
            and q_full.delays.cin_cout < q_red.delays.cin_cout,
        ),
    ]

    if out_dir is not None:
        _write_report(out_dir, rows, checks, cl_ff)
    return rows, checks


def _write_report(out_dir: Path, rows, checks, cl_ff: float) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_lines = [f"# {MODEL_NOTE}", CSV_HEADER] + [r.csv_row() for r in rows]
    (out_dir / "compare_cpa.csv").write_text("\n".join(csv_lines) + "\n")
    (out_dir / "summary.md").write_text(_summary_md(rows, checks, cl_ff))
    _write_dat(out_dir, rows)


def _summary_md(rows, checks, cl_ff: float) -> str:
    lines = [
        "# CPA comparison",
        "",
        f"Load: {cl_ff:g} fF per stage output.  All delay/power columns are "
        f"{MODEL_NOTE}.",
        "",
        "| design | area (nm) | in->Cout (ps) | Cin->Cout (ps) | Cin->Sum (ps) | power (uW) | PDP (aJ) |",
        "|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        d = r.delays
        lines.append(
            f"| {r.design} | {r.area_nm:.1f} | {d.in_cout * 1e12:.1f} | "
            f"{d.cin_cout * 1e12:.1f} | {d.cin_sum * 1e12:.1f} | "
            f"{r.power_w * 1e6:.3f} | {r.pdp_j * 1e18:.2f} |"
        )
    lines.append("")
    for name, ok in checks:
        lines.append(f"- {'PASS' if ok else 'FAIL'}: {name}")
    lines.append("")
    return "\n".join(lines)


def _write_dat(out_dir: Path, rows) -> None:
    # gnuplot-ready: one labelled row per design
    delay_lines = ["# design in_cout_s in_sum_s cin_cout_s cin_sum_s"]
    power_lines = ["# design power_w pdp_j"]
    area_lines = ["# design area_nm"]
    for r in rows:
        d = r.delays
        label = r.design.replace(" ", "_")
        delay_lines.append(
            f'"{label}" {d.in_cout:.6e} {d.in_sum:.6e} {d.cin_cout:.6e} {d.cin_sum:.6e}'
        )
        power_lines.append(f'"{label}" {r.power_w:.6e} {r.pdp_j:.6e}')
        area_lines.append(f'"{label}" {r.area_nm:.3f}')
    (out_dir / "delays.dat").write_text("\n".join(delay_lines) + "\n")
    (out_dir / "power.dat").write_text("\n".join(power_lines) + "\n")
    (out_dir / "area.dat").write_text("\n".join(area_lines) + "\n")


def _cmd_compare(args) -> ExitStatus:
    from concurrent.futures.process import BrokenProcessPool

    _check_loads([args.cl])
    try:
        rows, checks = compare_cpa(args.cl)
    except NetlistError as exc:
        print(str(exc), file=sys.stderr)
        return ExitStatus.VERIFY_FAILED
    except BrokenProcessPool as exc:
        print(f"compare-cpa: a worker process died: {exc}", file=sys.stderr)
        return ExitStatus.SOLVER_TROUBLE
    try:
        _write_report(Path(args.out), rows, checks, args.cl)
    except OSError as exc:
        print(f"cannot write report to {args.out}: {exc}", file=sys.stderr)
        return ExitStatus.BAD_REQUEST
    print(f"# {MODEL_NOTE}")
    print(CSV_HEADER)
    for row in rows:
        print(row.csv_row())
    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}: {name}")
        ok = ok and passed
    print(f"report written to {args.out}/")
    return ExitStatus.OK if ok else ExitStatus.VERIFY_FAILED


def _cmd_dump(args) -> ExitStatus:
    design = parse_design_spec(args.design)
    sys.stdout.write(serialize(design.hierarchical))
    return ExitStatus.OK


def _parse_assignment(text: str, inputs: dict[str, VoltageMap]) -> dict[str, float]:
    values: dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise SpecError(f"expected name=level, got {item!r}")
        name, raw = item.split("=", 1)
        name = name.strip()
        raw = raw.strip()
        if name not in inputs:
            raise SpecError(f"{name!r} is not an input net")
        if raw.lower().endswith("v"):
            values[name] = float(raw[:-1])
            if not math.isfinite(values[name]):
                raise SpecError(f"input {name!r} needs a finite voltage, got {raw!r}")
        else:
            values[name] = inputs[name].volts(int(raw))
    return values


def _cmd_run(args) -> ExitStatus:
    try:
        text = Path(args.netlist).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {args.netlist}: {exc}", file=sys.stderr)
        return ExitStatus.BAD_REQUEST
    nl = flatten(parse(text))
    vdd = nl.max_supply_v()
    if vdd <= 0:
        print(f"{args.netlist}: no supply above 0 V to scale digits by", file=sys.stderr)
        return ExitStatus.BAD_REQUEST
    in_maps = default_input_maps(nl)
    try:
        assignment = _parse_assignment(args.inputs or "", in_maps)
    except (SpecError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return ExitStatus.BAD_REQUEST
    missing = set(in_maps) - set(assignment)
    if missing:
        print(f"unassigned inputs: {sorted(missing)}", file=sys.stderr)
        return ExitStatus.BAD_REQUEST
    state = solve_dc(nl, assignment)
    if state.conflicts:
        for c in state.conflicts:
            print(
                f"supply conflict: nets {', '.join(c.nets)} join "
                f"{', '.join(f'{v:g} V' for v in c.voltages)}",
                file=sys.stderr,
            )
        return ExitStatus.SOLVER_TROUBLE
    scales = sorted({s.voltage for s in nl.supplies if s.voltage > 0}, reverse=True)
    for net in nl.outputs:
        volts = state.voltage(net.name)
        if volts is None:
            print(f"{net.name} = floating")
            continue
        digit = VoltageMap(vdd, net.radix).decode(volts)
        if digit is not None:
            decoded = f"digit {digit}"
        else:
            # reduced-swing outputs decode against a lower rail as full scale
            decoded = "no clean decode"
            for scale in scales:
                digit = VoltageMap(scale, net.radix).decode(volts)
                if digit is not None:
                    decoded = f"digit {digit} at the {scale:g} V scale"
                    break
        print(f"{net.name} = {volts:g} V ({decoded})")
    return ExitStatus.OK


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvladders",
        description=(
            "Construct, verify and benchmark binary/ternary/quaternary "
            "CNTFET full adders and carry-propagate adders.  Delay and "
            "power figures are calibrated-model values, not measurements."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="exhaustively verify a design against integer addition")
    p.add_argument("design", help="variant[,swing=...][,vdd=...][,digits=N]")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="delays, power, PDP and area at one load")
    p.add_argument("design")
    p.add_argument("--cl", type=float, default=2.0, help="load per output in fF")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("sweep", help="bench across a list of loads with linear-fit diagnostics")
    p.add_argument("design")
    p.add_argument(
        "--cl",
        type=_float_list,
        default=[0.25, 0.5, 1.0, 2.0, 4.0],
        help="comma/space separated loads in fF",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare-cpa", help="the 6-bit / 4-trit / 3-quit comparison")
    p.add_argument("--cl", type=float, default=2.0)
    p.add_argument("--out", default="cpa_report", help="directory for CSV/markdown/gnuplot files")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("dump", help="emit a design in the text netlist format")
    p.add_argument("design")
    p.set_defaults(func=_cmd_dump)

    p = sub.add_parser("run", help="solve a netlist file for one input assignment")
    p.add_argument("netlist")
    p.add_argument(
        "--inputs",
        default="",
        help="comma list name=digit (or name=<volts>V), e.g. A=2,B=1,Cin=0",
    )
    p.set_defaults(func=_cmd_run)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except (SpecError, ParseError, NetlistError) as exc:
        print(str(exc), file=sys.stderr)
        return int(ExitStatus.BAD_REQUEST)
    except NonConvergenceError as exc:
        print(str(exc), file=sys.stderr)
        return int(ExitStatus.SOLVER_TROUBLE)
    except analysis.AnalysisError as exc:
        print(str(exc), file=sys.stderr)
        return int(ExitStatus.SOLVER_TROUBLE)


if __name__ == "__main__":
    raise SystemExit(main())
