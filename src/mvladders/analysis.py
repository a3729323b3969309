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

Energy is C * dV^2 summed over changed nets per step, with no short-circuit
or leakage term; this matches the conflict-free circuit style.

Calibration: c_gate = 0.10 fF, c_diff = 0.05 fF, and rho set so a reference
n=19 inverter at 0.9 V driving 2 fF settles in 10 ps.  These constants are
model calibration, not measurements; every externally meaningful assertion
is a ratio or an ordering.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

import numpy as np

from .adders import Cpa, FullAdder
from .device import threshold_voltage_v
from .netlist import Netlist, flatten
from .solver import (
    CompiledNetlist,
    DcState,
    StepTrace,
    compile_netlist,
    step_waveforms,
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
    "node_capacitance",
    "path_delay",
    "settle_times",
    "worst_case_delays",
    "dynamic_power",
    "pdp",
    "bench",
    "sweep_load",
    "power_waveforms",
]

_FF = 1e-15
_REFERENCE_DELAY_S = 10e-12
_REFERENCE_LOAD_F = 2e-15
_CHANGE_TOL = 1e-9

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
        if self.rho_ohm_v <= 0 or self.c_gate_f <= 0 or self.c_diff_f <= 0:
            raise ValueError("timing model parameters must be positive")

    @classmethod
    def default(cls) -> "TimingModel":
        """rho pinned by the reference inverter: n=19 pair at 0.9 V into 2 fF
        settles in 10 ps."""
        c_diff = 0.05 * _FF
        overdrive = 0.9 - threshold_voltage_v(19)
        rho = _REFERENCE_DELAY_S * overdrive / (_REFERENCE_LOAD_F + 2 * c_diff)
        return cls(rho_ohm_v=rho, c_diff_f=c_diff)

    def scaled(self, rho: float = 1.0, caps: float = 1.0) -> "TimingModel":
        return replace(
            self,
            rho_ohm_v=self.rho_ohm_v * rho,
            c_gate_f=self.c_gate_f * caps,
            c_diff_f=self.c_diff_f * caps,
        )


def area(netlist: Netlist) -> float:
    """Chip-area proxy: the sum of all transistor diameters, in nm."""
    if not netlist.is_flat:
        netlist = flatten(netlist)
    return netlist.sum_diameter_nm()


def node_capacitance(
    nl: Netlist | CompiledNetlist, model: TimingModel, loads_f: Mapping[str, float] | None = None
) -> dict[str, float]:
    """Per-net capacitance in farads: gate terminals, channel terminals, loads."""
    comp = nl if isinstance(nl, CompiledNetlist) else compile_netlist(nl)
    caps = {name: 0.0 for name in comp.names}
    for dev in comp.netlist.devices:
        caps[dev.gate] += model.c_gate_f
        caps[dev.source] += model.c_diff_f
        caps[dev.drain] += model.c_diff_f
    if loads_f:
        for name, extra in loads_f.items():
            if name not in caps:
                raise AnalysisError(f"load on unknown net {name!r}")
            caps[name] += extra
    return caps


def _device_resistance(comp: CompiledNetlist, j: int, val: dict[str, float]) -> float | None:
    """rho/overdrive for device j in a solved state; None when off."""
    vg = val.get(comp.names[comp.dev_g[j]])
    vs = val.get(comp.names[comp.dev_s[j]])
    vd = val.get(comp.names[comp.dev_d[j]])
    if vg is None:
        return None
    known = [v for v in (vs, vd) if v is not None]
    if not known:
        return None
    if comp.dev_is_n[j]:
        overdrive = vg - min(known) - comp.dev_vth[j]
    else:
        overdrive = max(known) - vg - comp.dev_vth[j]
    if overdrive <= 0:
        return None
    return 1.0 / overdrive  # rho applied by the caller


def settle_times(
    comp: CompiledNetlist,
    prev: DcState,
    cur: DcState,
    model: TimingModel,
    caps: Mapping[str, float],
) -> dict[str, float]:
    """Settling time in seconds for every net that changed in this step.

    A changed net waits for the slowest changed gate along its driving path
    (stage causality), then adds the Elmore sum over the changed nets of its
    channel-connected component, weighted by shared path resistance.
    """
    if cur.conflicts:
        raise AnalysisError(f"conflicted state: {cur.conflicts[0]}")
    changed: set[str] = set()
    for name, new in cur.voltages.items():
        old = prev.voltages.get(name)
        if old is None or abs(new - old) > _CHANGE_TOL:
            changed.add(name)
    if not changed:
        return {}

    # driven values only: retained charge neither conducts nor drives
    val = {n: v for n, v in cur.voltages.items() if n not in cur.floating}
    sources = set(comp.supply_v)
    sources.update(comp.input_idx)
    source_names = {comp.names[i] for i in sources}

    # conducting devices as conductance-merged edges
    edge_g: dict[tuple[str, str], float] = {}
    edge_gates: dict[tuple[str, str], list[str]] = {}
    for j in range(comp.n_devices):
        r = _device_resistance(comp, j, val)
        if r is None:
            continue
        r *= model.rho_ohm_v
        a = comp.names[comp.dev_s[j]]
        b = comp.names[comp.dev_d[j]]
        key = (a, b) if a <= b else (b, a)
        edge_g[key] = edge_g.get(key, 0.0) + 1.0 / r
        edge_gates.setdefault(key, []).append(comp.names[comp.dev_g[j]])

    adjacency: dict[str, list[tuple[str, float, tuple[str, ...]]]] = {}
    for (a, b), g in edge_g.items():
        gates = tuple(edge_gates[(a, b)])
        adjacency.setdefault(a, []).append((b, 1.0 / g, gates))
        adjacency.setdefault(b, []).append((a, 1.0 / g, gates))

    # multi-source Dijkstra, deterministic tie-breaks by net name
    dist: dict[str, float] = {name: 0.0 for name in source_names}
    parent: dict[str, tuple[str, tuple[str, ...]] | None] = {name: None for name in source_names}
    heap = [(0.0, name) for name in sorted(source_names)]
    heapq.heapify(heap)
    seen: set[str] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in seen:
            continue
        seen.add(u)
        for v, r, gates in sorted(adjacency.get(u, ())):
            nd = d + r
            if v not in dist or nd < dist[v] - 1e-18:
                dist[v] = nd
                parent[v] = (u, gates)
                heapq.heappush(heap, (nd, v))

    def root_path(n: str) -> tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]:
        """(nodes root..n, gate tuples per hop); cached per call set."""
        nodes: list[str] = []
        gates: list[tuple[str, ...]] = []
        cur_n = n
        while True:
            nodes.append(cur_n)
            p = parent.get(cur_n)
            if p is None:
                break
            cur_n, hop_gates = p
            gates.append(hop_gates)
        nodes.reverse()
        gates.reverse()
        return tuple(nodes), tuple(gates)

    paths: dict[str, tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]] = {}
    targets = [n for n in changed if n not in source_names]
    for n in targets:
        if n not in dist:
            raise AnalysisError(f"changed net {n!r} has no driving path")
        paths[n] = root_path(n)

    def elmore(n: str) -> float:
        nodes_n, _ = paths[n]
        prefix = {node: dist[node] for node in nodes_n}
        total = 0.0
        for m in targets:
            nodes_m, _ = paths[m]
            if nodes_m[0] != nodes_n[0]:
                continue  # different root: no shared resistance
            shared = 0.0
            for node in nodes_m:
                if node in prefix:
                    shared = prefix[node]
                else:
                    break
            total += caps.get(m, 0.0) * shared
        return total

    settle: dict[str, float] = {}

    def gate_time(g: str) -> float | None:
        if g not in changed or g in source_names:
            return 0.0
        return settle.get(g)

    pending = set(targets)
    for _ in range(len(pending) + 2):
        progress = False
        for n in sorted(pending):
            _, hop_gates = paths[n]
            times = []
            ready = True
            for gates in hop_gates:
                for g in gates:
                    t = gate_time(g)
                    if t is None:
                        ready = False
                        break
                    times.append(t)
                if not ready:
                    break
            if not ready:
                continue
            settle[n] = max(times, default=0.0) + elmore(n)
            pending.discard(n)
            progress = True
        if not pending:
            break
        if not progress:
            raise AnalysisError(f"settle ordering did not resolve for {sorted(pending)}")
    for n in changed & source_names:
        settle[n] = 0.0
    return settle


def _default_loads(nl: Netlist, cl_ff: float) -> dict[str, float]:
    return {n.name: cl_ff * _FF for n in nl.outputs}


def path_delay(
    trace: StepTrace,
    model: TimingModel,
    from_net: str,
    to_net: str,
    cl_ff: float = 0.0,
    loads_ff: Mapping[str, float] | None = None,
) -> float:
    """Worst settling time of ``to_net`` over the steps where ``from_net``
    transitions.  Returns 0.0 when the target never moves (already settled)."""
    comp = compile_netlist(trace.netlist)
    if loads_ff is None:
        loads = _default_loads(trace.netlist, cl_ff)
    else:
        loads = {name: ff * _FF for name, ff in loads_ff.items()}
    caps = node_capacitance(comp, model, loads)
    if from_net not in comp.index or to_net not in comp.index:
        raise AnalysisError("unknown from/to net")
    transitions = 0
    worst = 0.0
    for k in range(1, len(trace)):
        if from_net not in trace.stepped[k] and from_net not in trace.changes[k]:
            continue
        transitions += 1
        if to_net not in trace.states[k].voltages:
            raise AnalysisError(f"output {to_net!r} floating at step {k}")
        settle = settle_times(comp, trace.states[k - 1], trace.states[k], model, caps)
        if to_net in settle:
            worst = max(worst, settle[to_net])
    if transitions == 0:
        raise AnalysisError(f"{from_net!r} never transitions in the trace window")
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


def _design_parts(design: FullAdder | Cpa):
    """(netlist, input maps, a/b/cin step ports, constants, sum/cout targets)."""
    if isinstance(design, FullAdder):
        return (
            design.netlist,
            design.input_maps(),
            "A",
            "B",
            "Cin",
            {},
            "Sum",
            "Cout",
        )
    const = {}
    for i in range(1, design.digits):
        const[f"A{i}"] = design.radix - 1  # propagate context for upper digits
        const[f"B{i}"] = 0
    return (
        design.netlist,
        design.input_maps(),
        "A0",
        "B0",
        "C0",
        const,
        f"S{design.digits - 1}",
        "C_final",
    )


def _delay_windows(design: FullAdder | Cpa) -> Iterable[tuple[str, dict[str, list[int]]]]:
    """(stepped input, waveform dict) covering every single-input adjacent
    transition in every context, plus the up-down staircases."""
    _, _, a_port, b_port, cin_port, const, _, _ = _design_parts(design)
    radix = design.radix

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


def worst_case_delays(
    design: FullAdder | Cpa, model: TimingModel, cl_ff: float
) -> DelayQuad:
    """Per-path maxima over the adjacent-transition and staircase windows.

    Loads: cl_ff on every stage output (the sums, the final carry, and the
    rippling inter-stage carries of a CPA).
    """
    nl, maps, a_port, b_port, cin_port, _, sum_t, cout_t = _design_parts(design)
    comp = compile_netlist(nl)
    if isinstance(design, Cpa):
        loads = {name: cl_ff * _FF for name in design.loaded_nets()}
    else:
        loads = _default_loads(nl, cl_ff)
    caps = node_capacitance(comp, model, loads)

    best = {"in_cout": 0.0, "in_sum": 0.0, "cin_cout": 0.0, "cin_sum": 0.0}
    windows = list(_delay_windows(design))
    traces = step_windows(comp, [wave for _, wave in windows], maps)
    for (stepped, _), trace in zip(windows, traces):
        for k in range(1, len(trace)):
            if stepped not in trace.stepped[k]:
                continue
            state = trace.states[k]
            for target in (sum_t, cout_t):
                if target not in state.voltages:
                    raise AnalysisError(f"output {target!r} floating in delay window")
            settle = settle_times(comp, trace.states[k - 1], state, model, caps)
            prefix = "cin" if stepped == cin_port else "in"
            if cout_t in settle:
                best[f"{prefix}_cout"] = max(best[f"{prefix}_cout"], settle[cout_t])
            if sum_t in settle:
                best[f"{prefix}_sum"] = max(best[f"{prefix}_sum"], settle[sum_t])
    return DelayQuad(
        in_cout=best["in_cout"],
        in_sum=best["in_sum"],
        cin_cout=best["cin_cout"],
        cin_sum=best["cin_sum"],
    )


# --------------------------------------------------------------------------
# power


def dynamic_power(
    trace: StepTrace,
    model: TimingModel,
    period_s: float,
    loads_ff: Mapping[str, float] | None = None,
) -> float:
    """Average power: sum over steps and changed nets of C * dV^2, divided
    by the total waveform time."""
    if period_s <= 0:
        raise AnalysisError("waveform period must be positive")
    loads = {name: ff * _FF for name, ff in (loads_ff or {}).items()}
    caps = node_capacitance(trace.netlist, model, loads)
    energy = 0.0
    for delta in trace.changes:
        for name, (old, new) in delta.items():
            if old is None:
                continue
            energy += caps.get(name, 0.0) * (new - old) ** 2
    return energy / period_s


def pdp(power_w: float, delay_s: float) -> float:
    """Power-delay product in joules."""
    return power_w * delay_s


def power_waveforms(design: FullAdder | Cpa) -> dict[str, list[int]]:
    """The shared benchmark waveform suite: an up-down staircase on A, then
    on B, then a carry-in pulse train in a propagate context.  Each phase
    spans the same number of steps so every input gets equal exercise."""
    _, _, a_port, b_port, cin_port, const, _, _ = _design_parts(design)
    radix = design.radix
    stair = _staircase(radix)
    zeros = [0] * len(stair)
    a_star = radix - 2 if radix > 2 else 1
    b_star = 1 if radix > 2 else 0
    pulses = [k % 2 for k in range(len(stair))]
    wave_a = stair + zeros + [a_star] * len(pulses)
    wave_b = zeros + stair + [b_star] * len(pulses)
    wave_c = [0] * (2 * len(stair)) + pulses
    steps = len(wave_a)
    waves = {name: [lvl] * steps for name, lvl in const.items()}
    if isinstance(design, Cpa):
        for i in range(design.digits):
            waves[f"A{i}"] = list(wave_a)
            waves[f"B{i}"] = list(wave_b)
        waves[cin_port] = wave_c
    else:
        waves[a_port] = wave_a
        waves[b_port] = wave_b
        waves[cin_port] = wave_c
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


def bench(
    design: FullAdder | Cpa,
    model: TimingModel,
    cl_ff: float,
    *,
    step_s: float = 1e-9,
) -> BenchReport:
    """Delays, power and PDP for one design at one load."""
    delays = worst_case_delays(design, model, cl_ff)
    nl, maps, *_ = _design_parts(design)
    waves = power_waveforms(design)
    trace = step_waveforms(nl, waves, maps, dt=step_s)
    if isinstance(design, Cpa):
        loads_ff = {name: cl_ff for name in design.loaded_nets()}
        swing_v = design.stage.swing_v
        vdd = design.config.vdd
        digits = design.digits
        label = design.config.label
        carry_swing = design.config.carry_swing
    else:
        loads_ff = {n.name: cl_ff for n in nl.outputs}
        swing_v = design.swing_v
        vdd = design.vdd
        digits = 1
        label = design.label
        carry_swing = design.carry_swing
    period = trace.times[-1] - trace.times[0]
    power = dynamic_power(trace, model, period, loads_ff)
    return BenchReport(
        design=label,
        radix=design.radix,
        digits=digits,
        swing_v=swing_v,
        vdd_v=vdd,
        cl_ff=cl_ff,
        delays=delays,
        power_w=power,
        pdp_j=pdp(power, delays.cin_cout),
        area_nm=area(nl),
    )


@dataclass(frozen=True)
class LoadSweep:
    """Bench rows across loads plus least-squares delay-vs-load diagnostics."""

    rows: tuple[BenchReport, ...]
    fits: dict[str, tuple[float, float, float]]  # path -> (slope, intercept, r2); {} below two loads

    @property
    def loads_ff(self) -> tuple[float, ...]:
        return tuple(r.cl_ff for r in self.rows)


def sweep_load(
    design: FullAdder | Cpa,
    model: TimingModel,
    loads_ff: Iterable[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
) -> LoadSweep:
    """Bench at each load; the linear fits need at least two distinct loads
    and are left empty otherwise."""
    rows = tuple(bench(design, model, cl) for cl in loads_ff)
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
