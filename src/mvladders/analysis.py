"""Area, first-order RC timing, dynamic power, PDP, and load sweeps.

Delay model: every conducting device is a resistor rho / overdrive, where
the overdrive is the conduction margin in the solved state (gate swing
minus threshold, measured against the passed level).  Node capacitance is
c_gate per attached gate terminal plus c_diff per attached channel terminal
plus any external load.  A waveform step is priced by Elmore settling: each
changed net waits for the gates along its driving path to settle, then adds
the Elmore sum of its channel-connected path from the supply or input that
drives it.  Restoring inverters break the chain into stages, so restored
carry chains accumulate linearly while raw transmission-gate chains grow
quadratically.

Everything works on the solver's arrays, keyed by net index: a
:class:`~mvladders.solver.StepTrace` holds the stepped voltages as
``[steps x nets]`` arrays, the node capacitances form a ``[nets x loads]``
matrix, and the overdrive comes from the solver's conduction kernel.
Shortest-path ties are broken and Elmore and energy terms summed
in net-index order, so every figure is the same in every process.

For a fixed conducting tree the Elmore delay is linear in the node
capacitances (Rubinstein, Penfield and Horowitz, IEEE TCAD 1983), and
every root path and Elmore sum lies inside one channel-connected (CCR)
unit.  So, as COSMOS (Bryant et al., DAC 1987) compiles each CCR once, a
step is planned per unit, for every load at once, and one pricing call
reuses a unit's plan on every step where its values and moved nets recur;
the plans die with the call.  Every delay is priced by one walk,
:func:`_walk`, which plans only the units on the gating chains of the nets
a figure reads (the last sum and the carry-out for a CPA's critical paths).
Sums run in net-index order (never a pairwise or BLAS sum, whose order
depends on the shape), so every figure has the same bits from any set of
requested nets, priced alone, with other loads or from a reused plan.
Every load the timing layer prices must be on a known net, finite and
non-negative.

Energy is C * dV^2 summed over changed nets per step, with no short-circuit
or leakage term; this matches the conflict-free circuit style.  A benchmark
waveform has a nominal step of 1 ns, so its power is that energy over
(steps - 1) ns.

Calibration: c_gate = 0.10 fF, c_diff = 0.05 fF, and rho set so a reference
n=19 inverter at 0.9 V driving 2 fF settles in 10 ps.  These constants are
model calibration, not measurements; every externally meaningful assertion
is a ratio or an ordering.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .adders import Design
from .device import threshold_voltage_v
from .netlist import Netlist, flatten
from .solver import (
    CompiledNetlist,
    StepTrace,
    _Unit,
    _overdrive,
    step_windows,
)

__all__ = [
    "AnalysisError",
    "TimingModel",
    "DelayQuad",
    "BenchReport",
    "LoadSweep",
    "CSV_HEADER",
    "MODEL_NOTE",
    "area",
    "path_delay",
    "dynamic_power",
    "pdp",
    "bench",
    "sweep_load",
    "power_waveforms",
]

_FF = 1e-15
_REFERENCE_DELAY_S = 10e-12
_REFERENCE_LOAD_F = 2e-15
_STEP_S = 1e-9  # nominal duration of one waveform step

MODEL_NOTE = (
    "calibrated-model values (first-order RC, 10 ps reference inverter); "
    "not measured silicon"
)


class AnalysisError(RuntimeError):
    """Analysis refused: conflicted design, floating output, or bad request."""


@dataclass(frozen=True)
class TimingModel:
    """RC calibration constants.  All quantities SI (ohm*volt, farad)."""

    rho_ohm_v: float
    c_gate_f: float = 0.10 * _FF
    c_diff_f: float = 0.05 * _FF

    def __post_init__(self) -> None:
        params = (self.rho_ohm_v, self.c_gate_f, self.c_diff_f)
        if not all(math.isfinite(p) and p > 0 for p in params):
            raise ValueError(f"timing model parameters must be finite and positive, got {params}")

    @classmethod
    def default(cls) -> "TimingModel":
        """rho pinned by the reference inverter: n=19 pair at 0.9 V into 2 fF
        settles in 10 ps."""
        c_diff = 0.05 * _FF
        overdrive = 0.9 - threshold_voltage_v(19)
        rho = _REFERENCE_DELAY_S * overdrive / (_REFERENCE_LOAD_F + 2 * c_diff)
        return cls(rho_ohm_v=rho, c_diff_f=c_diff)


def area(netlist: Netlist) -> float:
    """Chip-area proxy: the sum of all transistor diameters, in nm."""
    if not netlist.is_flat:
        netlist = flatten(netlist)
    return netlist.sum_diameter_nm()


def _load_caps(
    comp: CompiledNetlist, model: TimingModel, loads: Sequence[Mapping[str, float]]
) -> np.ndarray:
    """The ``[nets x loads]`` capacitance matrix in farads, rows indexed like
    ``comp.names``: c_gate per gate terminal plus c_diff per channel
    terminal, and in each column one map of extra load in fF on named nets.
    Every load the timing layer prices comes through here; a negative or
    non-finite load, or one on an unknown net, is refused."""
    g, s, d, _, _ = comp.device_arrays
    n = comp.n_nets
    base = model.c_gate_f * np.bincount(g, minlength=n) + model.c_diff_f * (
        np.bincount(s, minlength=n) + np.bincount(d, minlength=n)
    )
    caps = np.repeat(base[:, None], len(loads), axis=1)
    for col, extra in enumerate(loads):
        for name, ff in extra.items():
            if not (math.isfinite(ff) and ff >= 0):
                raise AnalysisError(f"load on {name!r} must be finite and >= 0 fF, got {ff:g}")
            if name not in comp.index:
                raise AnalysisError(f"load on unknown net {name!r}")
            caps[comp.index[name], col] += ff * _FF
    return caps


def _drive_tree(comp: CompiledNetlist, unit: _Unit, on: list[bool], edge_g: list[float]) -> tuple:
    """Shortest driving paths in one CCR unit: the root-path resistance of
    every net its sources reach, and each one's hop towards the root with
    the gates of the conducting devices on that hop."""
    edges: dict[int, tuple[int, int, list[int]]] = {}
    for j in unit.devices:
        if on[j]:  # conducting devices, merged per channel edge
            edge = edges.setdefault(comp.ccr_plan.edge[j], (comp.dev_s[j], comp.dev_d[j], []))
            edge[2].append(comp.dev_g[j])
    adjacency: dict[int, list[tuple[int, float, list[int]]]] = {}
    for e, (a, b, gates) in edges.items():
        adjacency.setdefault(a, []).append((b, 1.0 / edge_g[e], gates))
        adjacency.setdefault(b, []).append((a, 1.0 / edge_g[e], gates))
    # multi-source Dijkstra; the heap breaks ties by net index
    dist = dict.fromkeys(unit.sources, 0.0)
    parent: dict[int, tuple[int, list[int]]] = {}
    heap = [(0.0, i) for i in unit.sources]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for v, r, gates in adjacency.get(u, ()):
            nd = du + r
            if nd < dist.get(v, math.inf) - 1e-18:
                dist[v] = nd
                parent[v] = (u, gates)
                heapq.heappush(heap, (nd, v))
    return dist, parent


def _unit_plan(tree: tuple, targets: list[int], moved: set[int], caps: np.ndarray) -> tuple:
    """Plan the moved nets ``targets`` of one CCR unit: those no source
    reaches, each one's Elmore sum per load column of ``caps``, and the
    moved nets gating its root path."""
    dist, parent = tree
    unreached = [n for n in targets if n not in dist]
    if unreached:
        return unreached, {}, {}
    paths, gating = [], {}
    for n in targets:
        nodes, gates, hop = [n], set(), parent.get(n)
        while hop is not None:
            nodes.append(hop[0])
            gates.update(hop[1])
            hop = parent.get(hop[0])
        paths.append(nodes[::-1])
        gating[n] = sorted(moved & gates)
    # the root-path resistance two targets share (none across roots) times
    # the other's capacitance, summed by a running sum in net-index order
    shared = [[0.0] * len(paths) for _ in paths]
    for i, path in enumerate(paths):
        for j in range(i + 1):
            for node, node_other in zip(path, paths[j]):
                if node != node_other:
                    break
                shared[i][j] = shared[j][i] = dist[node]
    terms = np.asarray(shared)[:, :, None] * caps[targets][None, :, :]
    times = dict(zip(targets, np.add.accumulate(terms, axis=1)[:, -1].tolist()))
    return [], times, gating


def _walk(
    trace: StepTrace,
    step: int,
    model: TimingModel,
    caps: np.ndarray,
    plans: dict,
    requested: Sequence[int],
) -> dict[int, list[float]]:
    """Settling times in seconds, keyed by net index and one per load column
    of the ``[nets x loads]`` matrix ``caps``, of the moved non-source nets
    ``requested`` at ``step`` and of every moved net on their gating chains.
    ``plans`` keeps each unit's driving tree and Elmore plans; share one
    dict across the steps of one netlist priced with one ``caps``, and no
    further.

    A moved net waits for the slowest moved net gating its driving path
    (stage causality), then adds the Elmore sum over its CCR unit's moved
    nets.  No driving path passes through a source, so a unit is planned
    alone, keyed by its values and its moved nets.  The walk plans a
    requested net's unit, follows the net's gating nets to their units,
    and resolves the settle rounds over the walked nets only.

    Invariant: a walk from any set of requested nets gives each net it
    prices the bits a walk from every moved non-source net gives it, which
    are the bits of a plan of the whole netlist.  Edge conductances are
    summed in device order from 0.0 (``np.bincount``), the heap breaks ties
    by net index, and each Elmore sum is a running sum in net-index order
    over its unit's moved nets, which leaves out only +0.0 terms; no sum
    depends on the number of loads or on a reused plan.

    A moved net that no unit owns is refused whether or not a chain reaches
    it; every unit walked is priced before the lowest net without a driving
    path is named.
    """
    comp, ccr = trace.comp, trace.comp.ccr_plan
    is_target = trace.moved[step] & ~ccr.is_source
    targets = np.flatnonzero(is_target).tolist()
    unreached = [n for n in targets if n not in ccr.unit_of]
    if not requested and not unreached:
        return {}
    # retained charge neither conducts nor drives
    val = np.where(trace.driven[step], trace.values[step], np.nan)
    values, moving = val[ccr.rows].tobytes(), is_target[ccr.rows].tobytes()
    conduction = None
    times: dict[int, list[float]] = {}
    gating: dict[int, list[int]] = {}
    walked, seen, planned = list(requested), set(requested), set()
    for n in walked:  # grows as the chains are followed
        unit = ccr.unit_of.get(n)
        if unit is not None and unit not in planned:  # without a unit: unreached
            planned.add(unit)
            start, stop = ccr.spans[unit]
            key = (unit, values[8 * start:8 * stop])
            if key not in plans:
                if conduction is None:  # of the whole netlist, at most once a step
                    g, s, d, is_n, vth = comp.device_arrays
                    overdrive = _overdrive(is_n, vth, val[g], val[s], val[d])
                    on = overdrive > 0
                    conductance = 1.0 / ((1.0 / overdrive[on]) * model.rho_ohm_v)
                    edge_g = np.bincount(ccr.edge[on], conductance, minlength=len(ccr.edge))
                    conduction = on.tolist(), edge_g.tolist()
                plans[key] = _drive_tree(comp, ccr.units[unit], *conduction), {}
            tree, by_moved = plans[key]
            mask = moving[start:stop]
            if mask not in by_moved:
                own = [m for m, is_moved in zip(ccr.units[unit].nets.tolist(), mask) if is_moved]
                by_moved[mask] = _unit_plan(tree, own, set(targets), caps)
            missing, unit_times, unit_gating = by_moved[mask]
            unreached += missing
            times.update(unit_times)
            gating.update(unit_gating)
        for g in gating.get(n, ()):
            if g not in seen:
                seen.add(g)
                walked.append(g)
    if unreached:
        raise AnalysisError(f"changed net {comp.names[min(unreached)]!r} has no driving path")

    # a net settles after the slowest net gating its path: resolve in
    # rounds, each net as soon as every net gating it has resolved; one
    # without gating nets keeps its Elmore sums
    done: dict[int, list[float]] = {}
    pending = walked
    while pending:
        waiting = []
        for n in pending:
            gates = gating[n]
            if not all(map(done.__contains__, gates)):
                waiting.append(n)
            elif gates:
                ready = map(max, *(done[g] for g in gates)) if len(gates) > 1 else done[gates[0]]
                done[n] = list(map(operator.add, ready, times[n]))
            else:
                done[n] = list(times[n])
        if len(waiting) == len(pending):
            names = sorted(comp.names[n] for n in waiting)
            raise AnalysisError(f"settle ordering did not resolve for {names}")
        pending = waiting
    return done


def _worst_settle(
    trace: StepTrace,
    model: TimingModel,
    caps: np.ndarray,
    steps: Iterable[int],
    targets: Sequence[int],
    plans: dict,
) -> list[list[float]]:
    """The settle loop: the largest settling time of each target net over
    ``steps``, one per load column of ``caps`` (0.0 where it never moves).

    Each step is refused first if it is conflicted, if a target has no value
    there, or if a moved net has no unit to drive it.  Then :func:`_walk`
    prices only the moved targets and the nets on their gating chains, with
    the bits a walk from every moved net gives them.  A moved net off every
    chain is not priced, so it refuses no figure it does not affect: a
    missing driving path there (only a hand-built trace has one, as the
    solver drives every net it moves) or a gating cycle among such nets
    refuses only a walk that requests it.
    """
    worst = [[0.0] * caps.shape[1] for _ in targets]
    is_source = trace.comp.ccr_plan.is_source
    for k in steps:
        if trace.conflicts[k]:
            raise AnalysisError(f"conflicted state: {trace.conflicts[k][0]}")
        for t in targets:
            if math.isnan(trace.values[k, t]):
                raise AnalysisError(f"output {trace.comp.names[t]!r} floating at step {k}")
        moved = trace.moved[k]
        requested = [t for t in targets if moved[t] and not is_source[t]]
        settle = _walk(trace, k, model, caps, plans, requested)
        worst = [list(map(max, w, settle.get(t, w))) for w, t in zip(worst, targets)]
    return worst


def path_delay(
    trace: StepTrace, model: TimingModel, from_net: str, to_net: str, cl_ff: float = 0.0
) -> float:
    """Worst settling time of ``to_net`` over the steps where ``from_net``
    transitions, with ``cl_ff`` on every output.  Returns 0.0 when the
    target never moves (already settled)."""
    comp = trace.comp
    caps = _load_caps(comp, model, [{n.name: cl_ff for n in comp.netlist.outputs}])
    if from_net not in comp.index or to_net not in comp.index:
        raise AnalysisError("unknown from/to net")
    # row 0 of moved is all False
    steps = np.flatnonzero(trace.moved[:, comp.index[from_net]]).tolist()
    if not steps:
        raise AnalysisError(f"{from_net!r} never transitions in the trace window")
    ((worst,),) = _worst_settle(trace, model, caps, steps, [comp.index[to_net]], {})
    return worst


@dataclass(frozen=True)
class DelayQuad:
    """Worst-case critical-path delays, in seconds."""

    in_cout: float
    in_sum: float
    cin_cout: float
    cin_sum: float

    def as_dict(self) -> dict[str, float]:
        return {
            "d_in_cout_s": self.in_cout,
            "d_in_sum_s": self.in_sum,
            "d_cin_cout_s": self.cin_cout,
            "d_cin_sum_s": self.cin_sum,
        }


def _staircase(radix: int) -> list[int]:
    return list(range(radix)) + list(range(radix - 2, -1, -1))


def _delay_windows(design: Design) -> Iterable[tuple[str, dict[str, list[int]]]]:
    """(stepped input, waveform dict) covering every single-input adjacent
    transition in every context, plus the up-down staircases."""
    a_port, b_port, cin_port = design.a_ports[0], design.b_ports[0], design.cin_port
    radix = design.radix
    const = {}  # every digit above the lowest holds propagate
    for a_upper, b_upper in zip(design.a_ports[1:], design.b_ports[1:]):
        const[a_upper], const[b_upper] = radix - 1, 0

    def widen(active: dict[str, list[int]], steps: int) -> dict[str, list[int]]:
        wave = {name: [lvl] * steps for name, lvl in const.items()}
        wave.update(active)
        return wave

    stair = _staircase(radix)
    for inp, other in ((a_port, b_port), (b_port, a_port)):
        yield inp, widen(
            {inp: stair, other: [0] * len(stair), cin_port: [0] * len(stair)}, len(stair)
        )
        for k in range(radix - 1):
            for pair in ((k, k + 1), (k + 1, k)):
                for o in range(radix):
                    for c in (0, 1):
                        yield inp, widen(
                            {inp: list(pair), other: [o, o], cin_port: [c, c]}, 2
                        )
    for a in range(radix):
        for b in range(radix):
            for pair in ((0, 1), (1, 0)):
                yield cin_port, widen(
                    {a_port: [a, a], b_port: [b, b], cin_port: list(pair)}, 2
                )


def _delay_traces(
    design: Design, comp: CompiledNetlist, *extra_waves: Mapping[str, Sequence[int]]
) -> tuple[list[tuple[str, StepTrace]], list[StepTrace]]:
    """Every delay window stepped, with the input it steps, and the trace of
    each of ``extra_waves``, all in one :func:`step_windows` call."""
    windows = list(_delay_windows(design))
    waves = [wave for _, wave in windows] + list(extra_waves)
    traces = list(step_windows(comp, waves, design.input_maps()))
    return list(zip([stepped for stepped, _ in windows], traces)), traces[len(windows):]


def _delays(
    design: Design,
    windows: Sequence[tuple[str, StepTrace]],
    model: TimingModel,
    caps: np.ndarray,
) -> list[DelayQuad]:
    """Per-path maxima over the stepped delay windows, one quad per load
    column of ``caps``."""
    comp = windows[0][1].comp
    best = {path: [0.0] * caps.shape[1] for path in ("in_cout", "in_sum", "cin_cout", "cin_sum")}
    targets = [comp.index[design.s_ports[-1]], comp.index[design.cout_port]]
    plans: dict = {}  # unit plans shared by every window, for this pass only
    for stepped, trace in windows:
        steps = np.flatnonzero(trace.moved[:, comp.index[stepped]]).tolist()
        t_sum, t_cout = _worst_settle(trace, model, caps, steps, targets, plans)
        prefix = "cin" if stepped == design.cin_port else "in"
        best[f"{prefix}_sum"] = list(map(max, best[f"{prefix}_sum"], t_sum))
        best[f"{prefix}_cout"] = list(map(max, best[f"{prefix}_cout"], t_cout))
    return [DelayQuad(**dict(zip(best, quad))) for quad in zip(*best.values())]


# --------------------------------------------------------------------------
# power


def dynamic_power(
    trace: StepTrace,
    model: TimingModel,
    period_s: float,
    loads_ff: Mapping[str, float] | None = None,
) -> float:
    """Average power: sum over steps and moved nets of C * dV^2, divided by
    the total waveform time.  A net that gains a value costs nothing."""
    if not (math.isfinite(period_s) and period_s > 0):
        raise AnalysisError(f"waveform period must be finite and > 0 s, got {period_s:g}")
    (caps,) = _load_caps(trace.comp, model, [loads_ff or {}]).T
    values = trace.values
    swung = trace.moved[1:] & ~np.isnan(values[:-1])
    dv = (values[1:] - values[:-1])[swung]
    energy = 0.0
    for term in (np.broadcast_to(caps, swung.shape)[swung] * dv**2).tolist():
        energy += term  # in (step, net index) order
    return energy / period_s


def pdp(power_w: float, delay_s: float) -> float:
    """Power-delay product in joules."""
    return power_w * delay_s


def power_waveforms(design: Design) -> dict[str, list[int]]:
    """The shared benchmark waveform suite: an up-down staircase on every A
    digit, then on every B digit, then a carry-in pulse train in a
    propagate context.  Each phase spans the same number of steps so every
    input gets equal exercise."""
    radix = design.radix
    stair = _staircase(radix)
    zeros = [0] * len(stair)
    a_star = radix - 2 if radix > 2 else 1
    b_star = 1 if radix > 2 else 0
    pulses = [k % 2 for k in range(len(stair))]
    wave_a = stair + zeros + [a_star] * len(pulses)
    wave_b = zeros + stair + [b_star] * len(pulses)
    wave_c = [0] * (2 * len(stair)) + pulses
    waves = {}
    for a_port, b_port in zip(design.a_ports, design.b_ports):
        waves[a_port] = list(wave_a)
        waves[b_port] = list(wave_b)
    waves[design.cin_port] = wave_c
    return waves


# --------------------------------------------------------------------------
# benchmark reports


CSV_HEADER = (
    "design,radix,digits,swing_v,vdd_v,cl_ff,d_in_cout_s,d_in_sum_s,"
    "d_cin_cout_s,d_cin_sum_s,power_w,pdp_j,area_nm"
)


@dataclass(frozen=True)
class BenchReport:
    """One benchmark row; PDP pairs the power with the Cin->Cout delay."""

    design: str
    radix: int
    digits: int
    swing_v: float
    vdd_v: float
    cl_ff: float
    delays: DelayQuad
    power_w: float
    pdp_j: float
    area_nm: float

    def csv_row(self) -> str:
        d = self.delays
        return (
            f"{self.design},{self.radix},{self.digits},{self.swing_v:g},"
            f"{self.vdd_v:g},{self.cl_ff:g},{d.in_cout:.6e},{d.in_sum:.6e},"
            f"{d.cin_cout:.6e},{d.cin_sum:.6e},{self.power_w:.6e},"
            f"{self.pdp_j:.6e},{self.area_nm:.3f}"
        )


def _bench_rows(
    design: Design, model: TimingModel, loads_ff: Iterable[float]
) -> tuple[BenchReport, ...]:
    """Bench rows of one design at each load.  The DC traces do not depend
    on the load, so the delay windows and the power waveform are stepped
    in one call, and every delay step is priced for all loads in one pass.
    A load so large that some figure overflows is refused, never printed."""
    comp = design.compiled
    loads = list(loads_ff)
    load_maps = [dict.fromkeys(design.loaded_nets(), cl_ff) for cl_ff in loads]
    caps = _load_caps(comp, model, load_maps)
    windows, (trace,) = _delay_traces(design, comp, power_waveforms(design))
    period = (len(trace) - 1) * _STEP_S
    area_nm = area(design.netlist)
    rows = []
    delays_per_load = _delays(design, windows, model, caps)
    for cl_ff, loaded, delays in zip(loads, load_maps, delays_per_load):
        power = dynamic_power(trace, model, period, loaded)
        figures = {**delays.as_dict(), "power_w": power, "pdp_j": pdp(power, delays.cin_cout)}
        for name, value in figures.items():
            if not math.isfinite(value):
                raise AnalysisError(f"{name} of {design.label} at {cl_ff:g} fF is not finite")
        rows.append(BenchReport(
            design=design.label,
            radix=design.radix,
            digits=design.digits,
            swing_v=design.swing_v,
            vdd_v=design.vdd,
            cl_ff=cl_ff,
            delays=delays,
            power_w=power,
            pdp_j=figures["pdp_j"],
            area_nm=area_nm,
        ))
    return tuple(rows)


def bench(design: Design, model: TimingModel, cl_ff: float) -> BenchReport:
    """Delays, power and PDP for one design with ``cl_ff`` on every stage
    output (the sums, the final carry and a CPA's inter-stage carries).
    The delays are per-path maxima over the windows of :func:`_delay_windows`."""
    (row,) = _bench_rows(design, model, [cl_ff])
    return row


@dataclass(frozen=True)
class LoadSweep:
    """Bench rows across loads plus least-squares delay-vs-load diagnostics."""

    rows: tuple[BenchReport, ...]
    fits: dict[str, tuple[float, float, float]]  # path -> (slope, intercept, r2); {} below two loads


def sweep_load(
    design: Design,
    model: TimingModel,
    loads_ff: Iterable[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
) -> LoadSweep:
    """Bench at each load; the linear fits need at least two distinct loads
    and are left empty otherwise."""
    rows = _bench_rows(design, model, loads_ff)
    fits: dict[str, tuple[float, float, float]] = {}
    x = np.array([r.cl_ff for r in rows])
    if len(set(x.tolist())) < 2:
        return LoadSweep(rows=rows, fits=fits)
    for path in ("in_cout", "in_sum", "cin_cout", "cin_sum"):
        y = np.array([getattr(r.delays, path) for r in rows])
        slope, intercept = np.polyfit(x, y, 1)
        fitted = slope * x + intercept
        ss_res = float(np.sum((y - fitted) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
        fits[path] = (float(slope), float(intercept), r2)
    return LoadSweep(rows=rows, fits=fits)
