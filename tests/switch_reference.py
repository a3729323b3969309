"""Independent switch-level reference for the differential tests.

A plain union-find conduction fixed point over the whole netlist, one vector
at a time, written from the netlist alone: it shares neither the library's
compiled tables nor its channel-connected regions.  The library's engine
must agree with it on every net of every vector.
"""

from __future__ import annotations

from mvladders.device import Polarity
from mvladders.solver import Conflict, DcState

EPS = 1e-9


def _conducts(is_n, vth, vg, vs, vd) -> bool:
    """Ideal-switch conduction; an unknown gate, or both channel ends
    unknown, leaves the device off."""
    if vg is None:
        return False
    known = [v for v in (vs, vd) if v is not None]
    if not known:
        return False
    return vg - min(known) > vth if is_n else max(known) - vg > vth


def _distinct(volts) -> tuple[float, ...]:
    out: list[float] = []
    for v in sorted(volts):
        if not out or v - out[-1] > EPS:
            out.append(v)
    return tuple(out)


def _find(parent: list[int], i: int) -> int:
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def reference_solve(nl, inputs) -> DcState | None:
    """The solved state of one input vector, or None when the conduction
    fixed point is not reached within 2 + 2 * devices sweeps.

    Conflicts are ordered by the smallest net index they hold, with their
    nets sorted by name.
    """
    names = list(nl.nets)
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    sources = {index[net.name]: net.voltage for net in nl.supplies}
    for name, volts in inputs.items():
        sources[index[name]] = float(volts)
    devices = [
        (
            d.spec.polarity is Polarity.N,
            d.spec.threshold_v,
            index[d.gate],
            index[d.source],
            index[d.drain],
        )
        for d in nl.devices
    ]
    val: list[float | None] = [sources.get(i) for i in range(n)]
    cond = None
    for _ in range(2 + 2 * len(devices)):
        new_cond = [_conducts(is_n, vth, val[g], val[s], val[d]) for is_n, vth, g, s, d in devices]
        parent = list(range(n))
        for on, (_, _, _, s, d) in zip(new_cond, devices):
            if on:
                ra, rb = _find(parent, s), _find(parent, d)
                parent[max(ra, rb)] = min(ra, rb)
        roots = [_find(parent, i) for i in range(n)]
        volts: dict[int, list[float]] = {}
        for i, v in sources.items():
            volts.setdefault(roots[i], []).append(v)
        distinct = {root: _distinct(vs) for root, vs in volts.items()}
        new_val = [
            distinct[root][0] if len(distinct.get(root, ())) == 1 else None for root in roots
        ]
        for i, v in sources.items():
            new_val[i] = v
        if new_cond == cond and new_val == val:
            return DcState(
                voltages={names[i]: v for i, v in enumerate(val) if v is not None},
                floating=frozenset(names[i] for i in range(n) if roots[i] not in volts),
                conflicts=tuple(
                    Conflict(tuple(sorted(names[i] for i in range(n) if roots[i] == root)), vs)
                    for root, vs in sorted(distinct.items())
                    if len(vs) > 1
                ),
            )
        cond, val = new_cond, new_val
    return None


def reference_step(nl, waveforms, maps):
    """(states, changes, stepped) of a level waveform: each column solved
    cold by the reference, after which every floating net keeps its previous
    voltage.  Every column must reach a fixed point."""
    inputs = [net.name for net in nl.inputs]
    states: list[DcState] = []
    changes: list[dict] = []
    stepped: list[frozenset[str]] = []
    for k in range(len(waveforms[inputs[0]])):
        state = reference_solve(nl, {n: maps[n].volts(waveforms[n][k]) for n in inputs})
        assert state is not None, f"step {k} has no fixed point"
        if not states:
            changes.append({})
            stepped.append(frozenset())
        else:
            prev = states[-1].voltages
            for name in state.floating:
                if name in prev:
                    state.voltages[name] = prev[name]
            changes.append({
                name: (prev.get(name), v)
                for name, v in state.voltages.items()
                if prev.get(name) is None or abs(v - prev[name]) > EPS
            })
            stepped.append(frozenset(n for n in inputs if waveforms[n][k] != waveforms[n][k - 1]))
        states.append(state)
    return states, changes, stepped
