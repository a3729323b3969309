"""mvladders benchmark: exhaustive verification and Elmore / C dV^2
characterisation of the 6-bit / 4-trit / 3-quit CPAs, timed end to end and
per layer.

One run of one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload verify-cpa --seed 1 --seconds 25 --trace 0

Every workload, each run in a fresh process, untraced and traced, with a
table of end-to-end metrics, per-layer metrics and tracing overhead, and a
check that the exact counters repeat across runs and seeds (exit 1 if not)::

    python3 perfbench/run.py [--seeds 1,2] [--seconds 25] [--save results.jsonl]

``compare.py`` reports a parent result set against a change result set.
``baseline.jsonl`` holds ten untraced and ten traced runs per workload (seeds
1-10, 25 s) of the sources the benchmark was written against, on 2 vCPUs.

Workloads are closed loops: one job at a time, no think time.  Untraced runs
report the end-to-end metrics; traced runs (``--trace 1``) wrap the public
functions of the package's layers (see ``tracer.py``) and report per-layer
statistics per benchmark pass.  Every job's output is compared byte for byte
with ``golden/``; a job that differs counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5
READY = "ready"

# Workload and metric names and units are defined once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
# Per-layer ``.s`` is self time per pass; counters are exact and are taken
# from the first pass.
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
COUNTER_SUFFIXES = (".calls", ".sweeps", ".steps", ".vectors", ".unique_frac")


def _fail(message: str) -> None:
    print(message, file=sys.stderr)
    raise SystemExit(2)


def import_package():
    """Put the checkout's ``src`` first on the path and import from it only."""
    if not (SRC / "mvladders" / "__init__.py").is_file():
        _fail(f"no mvladders sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mvladders

    if Path(mvladders.__file__).resolve().parent != (SRC / "mvladders").resolve():
        _fail(f"mvladders imported from {mvladders.__file__}, not from {SRC}")
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    return workloads


# -- context ------------------------------------------------------------------

def _git_commit() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = git / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == name:
                return parts[0]
    return "unknown"


def context() -> dict:
    import numpy

    src_lines = 0
    for path in sorted((SRC / "mvladders").glob("*.py")):
        src_lines += len(path.read_bytes().splitlines())
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "src_lines": src_lines,
    }


# -- one run ------------------------------------------------------------------

def _probe(workload: str) -> None:
    """Set up as a fresh process would, then report readiness."""
    workloads = import_package()
    workloads.WORKLOADS[workload].prepare()
    print(READY, flush=True)


def _setup_seconds(workload: str) -> float:
    """Time from starting a fresh process to its being ready to run jobs:
    interpreter start, imports, design build, flatten, compile and the
    netlist round-trip check."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        ready = time.perf_counter()
        proc.stdout.read()
        status = proc.wait(timeout=120)
    if line != READY or status != 0:
        _fail(f"set-up of {workload} failed (exit {status})")
    return ready - start


class Run:
    """Runs jobs in closed loop and checks every output against golden."""

    def __init__(self, workloads, name: str, seed: int) -> None:
        self.workload = workloads.WORKLOADS[name]
        self.golden = workloads.load_golden(name)
        self.mismatches = workloads.mismatches
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def pass_jobs(self, jobs):
        if self.workload.permute:
            return self.rng.sample(jobs, len(jobs))
        return list(jobs)

    def run_job(self, job) -> float:
        """Time one job and check its output; returns its seconds, whether
        it passed or failed, so that a failing job is timed like any other."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = job.run()
            elapsed = time.perf_counter() - start
            bad = self.mismatches(job, job.output(result), self.golden)
        except Exception as exc:  # a failing job is counted, not fatal
            elapsed = time.perf_counter() - start
            bad = [f"{type(exc).__name__}: {exc}"]
        if bad:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{job.key}: {', '.join(bad)}")
        return elapsed


def untraced(workloads, name: str, seed: int, seconds: float) -> tuple[dict, dict, Run]:
    """At least one full pass and two jobs, then further jobs while each is
    expected (from its own earlier times) to end within ``seconds``."""
    run = Run(workloads, name, seed)
    jobs = run.workload.prepare()
    per_pass_rows = sum(j.rows for j in jobs)
    per_pass_vectors = sum(j.vectors for j in jobs)
    samples: dict[str, list[float]] = {j.key: [] for j in jobs}
    pass_walls: list[float] = []  # measured time of each whole pass
    setups: list[float] = []  # spread between jobs, so they sample the whole run
    deadline = time.perf_counter() + seconds
    while True:
        if pass_walls:
            jobs = run.workload.prepare()  # fresh objects, outside the timer
        pass_wall = 0.0
        for job in run.pass_jobs(jobs):
            if len(setups) < SETUP_SAMPLES:
                probe_start = time.perf_counter()
                setups.append(_setup_seconds(name))
                deadline += time.perf_counter() - probe_start
            if pass_walls and run.attempted >= 2:
                expected = statistics.median(samples[job.key])
                if time.perf_counter() + expected > deadline:
                    break
            elapsed = run.run_job(job)
            samples[job.key].append(elapsed)
            pass_wall += elapsed
        else:
            pass_walls.append(pass_wall)
            continue
        break
    while len(setups) < SETUP_SAMPLES:
        setups.append(_setup_seconds(name))
    # One pass's time: the sum over jobs of each job's median time, failed
    # jobs included (any failure also makes the run incorrect).
    wall_s = sum(statistics.median(v) for v in samples.values())
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "rows_per_s": per_pass_rows / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "pass_walls": pass_walls,
        "vectors_per_s": per_pass_vectors / wall_s if per_pass_vectors else None,
        "error_rate": run.failed / run.attempted,
        "errors": run.errors,
    }
    return metrics, detail, run


def _layer_values(stats: dict, pass_wall: float) -> dict[str, float]:
    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    values = {}
    for metric in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        if stat in ("s", "calls", "sweeps", "steps", "vectors"):
            values[metric] = get(span, stat)
    batch_s = get("solver.solve_dc_batch", "s")
    vectors = get("solver.solve_dc_batch", "vectors")
    values["solver.solve_dc_batch.vectors_per_s"] = vectors / batch_s if batch_s else 0.0
    calls = get("solver.solve_dc", "calls")
    dc_s = get("solver.solve_dc", "s")
    values["solver.solve_dc.us_per_call"] = 1e6 * dc_s / calls if calls else 0.0
    values["solver.solve_dc.unique_frac"] = get("solver.solve_dc", "unique") / calls if calls else 0.0
    capacity = get("cli.pool", "capacity")
    values["cli.pool.busy_frac"] = get("cli.pool.job", "total") / capacity if capacity else 0.0
    values["trace.wall_s"] = pass_wall
    return values


def traced(workloads, name: str, seed: int, seconds: float) -> tuple[dict, dict, Run]:
    """Whole passes while another is expected to end within ``seconds``."""
    from tracer import Tracer

    run = Run(workloads, name, seed)
    tracer = Tracer()
    tracer.install()
    per_pass: list[dict[str, float]] = []
    walls: list[float] = []
    start = time.perf_counter()
    try:
        while True:
            jobs = run.workload.prepare()
            wall = 0.0
            for job in run.pass_jobs(jobs):
                wall += run.run_job(job)
            walls.append(wall)
            per_pass.append(_layer_values(tracer.collect(), wall))
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                break
    finally:
        tracer.uninstall()
    metrics = {}
    unstable = []
    for metric in PER_LAYER:
        series = [p[metric] for p in per_pass]
        if metric.endswith(COUNTER_SUFFIXES):
            metrics[metric] = series[0]
            if any(v != series[0] for v in series):
                unstable.append(metric)
        else:
            metrics[metric] = statistics.median(series)
    detail = {
        "passes": len(per_pass),
        "counters_differ_between_passes": unstable,
        "error_rate": run.failed / run.attempted,
        "errors": run.errors,
    }
    return metrics, detail, run


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    workloads = import_package()
    os.chdir(ROOT)
    if trace:
        metrics, detail, run = traced(workloads, name, seed, seconds)
        units = PER_LAYER
    else:
        metrics, detail, run = untraced(workloads, name, seed, seconds)
        units = END_TO_END
    detail["context"] = context()
    for error in run.errors:
        print(f"mismatch {error}")
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


# -- every workload -----------------------------------------------------------

def _child(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{name} seed {seed} trace {trace} exited {proc.returncode}")
    detail = next(
        (json.loads(line[len("detail "):]) for line in lines if line.startswith("detail ")), {}
    )
    return {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds,
        "result": json.loads(lines[-1]), "detail": detail,
    }


def _spread(values: list[float]) -> tuple[float, float]:
    """(median, quartile distance as a share of the median)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def _tail(runs: list[dict]) -> str:
    """The highest percentile of the measured pass times, pooled over runs,
    that has at least ten samples beyond it."""
    walls = sorted(w for r in runs for w in r["detail"]["pass_walls"])
    n = len(walls)
    if n < 20:
        return f"pass time: too few samples ({n} passes) for a percentile above the median"
    return f"pass time p{100 * (n - 10) // n} {walls[n - 11]:.5g} s from {n} passes"


def _report(name: str, records: list[dict]) -> bool:
    plain = [r for r in records if r["trace"] == 0]
    traced_runs = [r for r in records if r["trace"] == 1]
    ok = all(r["result"]["correct"] for r in records)
    print(f"\n== {name}: {len(plain)} untraced and {len(traced_runs)} traced runs")

    def values(runs, metric):
        return [r["result"]["metrics"][metric]["value"] for r in runs]

    for metric, unit in END_TO_END.items():
        median, spread = _spread(values(plain, metric))
        print(f"  {metric:<14} {median:12.5g} {unit:<5} spread {spread:.3f}")
        if metric == "wall_s":
            print(f"  {'':<14} {_tail(plain)}")
    vectors = [r["detail"]["vectors_per_s"] for r in plain if r["detail"]["vectors_per_s"]]
    if vectors:
        print(f"  {'vectors_per_s':<14} {statistics.median(vectors):12.5g} 1/s")
    attempted = sum(r["result"]["attempted"] for r in plain)
    failed = sum(r["result"]["failed"] for r in plain)
    print(f"  {'error_rate':<14} {failed / attempted:12.5g} ({failed} of {attempted} jobs)")
    for metric, unit in PER_LAYER.items():
        print(f"  {metric:<38} {statistics.median(values(traced_runs, metric)):12.5g} {unit}")
    counters = [
        {k: v["value"] for k, v in r["result"]["metrics"].items() if k.endswith(COUNTER_SUFFIXES)}
        for r in traced_runs
    ]
    repeat = all(c == counters[0] for c in counters) and not any(
        r["detail"]["counters_differ_between_passes"] for r in traced_runs
    )
    ok = ok and repeat
    print(f"  exact counters repeat across passes, runs and seeds: {'yes' if repeat else 'NO'}")
    traced_wall = statistics.median(values(traced_runs, "trace.wall_s"))
    plain_wall = statistics.median(values(plain, "wall_s"))
    print(
        f"  tracing overhead {traced_wall - plain_wall:.4g} s per pass "
        f"(traced {traced_wall:.4g} s, untraced {plain_wall:.4g} s)"
    )
    return ok


def run_all(seeds, seconds: float, save: Path | None) -> int:
    print("context " + json.dumps(context(), sort_keys=True))
    ok = True
    for name in WORKLOAD_NAMES:
        records = []
        # Alternate untraced and traced runs so that both see the same
        # stretches of machine load, which keeps the overhead estimate fair.
        for seed in seeds:
            for trace in (0, 1):
                rec = _child(name, seed, seconds, trace)
                records.append(rec)
                if save:
                    with save.open("a") as fh:
                        fh.write(json.dumps(rec, sort_keys=True) + "\n")
        ok = _report(name, records) and ok
        sys.stdout.flush()
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="run one workload once")
    parser.add_argument("--seed", type=int, default=1, help="with --workload")
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="with --workload")
    parser.add_argument("--seeds", default="1,2", help="run-all mode: comma list of seeds")
    parser.add_argument("--save", type=Path, help="run-all mode: append records to this JSONL file")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        _probe(args.workload)
        return 0
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    import_package()
    return run_all([int(s) for s in args.seeds.split(",")], args.seconds, args.save)


if __name__ == "__main__":
    raise SystemExit(main())
