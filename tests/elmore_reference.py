"""Plain-Python Elmore settling reference for the timing layer's tests.

Written from Rubinstein, Penfield and Horowitz (IEEE TCAD 1983): in an RC
tree driven from its root, node i settles after sum_k R_ik * C_k, where
R_ik is the resistance of the part of the root paths of i and k that both
share.  Here every conducting device is a resistor rho / overdrive, the
tree of a moved net is found by breadth-first search over the conducting
devices, and R_ik is summed by walking the two explicit root paths; only
moved nets carry charge.  A net also waits for the slowest moved net that
gates a device on its root path.  Nothing here uses numpy, a shortest-path
search or any code of the timing layer; it assumes the conducting devices
form trees, one source per tree.
"""

from __future__ import annotations

import math

from mvladders.analysis import TimingModel
from mvladders.device import Polarity
from mvladders.netlist import Netlist, NetRole


def reference_capacitance(
    nl: Netlist, model: TimingModel, loads_f: dict[str, float]
) -> dict[str, float]:
    """c_gate per gate terminal plus c_diff per channel terminal plus load."""
    caps = {name: loads_f.get(name, 0.0) for name in nl.nets}
    for dev in nl.devices:
        caps[dev.gate] += model.c_gate_f
        caps[dev.source] += model.c_diff_f
        caps[dev.drain] += model.c_diff_f
    return caps


def _overdrive(dev, volts: dict[str, float | None]) -> float | None:
    """Conduction margin of a device, None where it is unknown; one unknown
    channel end is ignored."""
    vg = volts[dev.gate]
    ends = [v for v in (volts[dev.source], volts[dev.drain]) if v is not None]
    if vg is None or not ends:
        return None
    if dev.spec.polarity is Polarity.N:
        return vg - min(ends) - dev.spec.threshold_v
    return max(ends) - vg - dev.spec.threshold_v


def reference_settle(
    nl: Netlist,
    model: TimingModel,
    before: dict[str, float | None],
    after: dict[str, float | None],
    driven: dict[str, bool],
    caps: dict[str, float],
) -> dict[str, float]:
    """Settling time of every net that moved from ``before`` to ``after``
    (held values, None where a net has none); ``driven`` marks the nets
    driven after the step, the only ones whose values conduct."""
    sources = {n.name for n in nl.nets.values() if n.role in (NetRole.SUPPLY, NetRole.INPUT)}
    moved = {
        name for name, new in after.items()
        if new is not None and (before[name] is None or abs(new - before[name]) > 1e-9)
    }
    volts = {name: (v if driven[name] else None) for name, v in after.items()}

    # each conducting device is a resistor between its channel ends
    neighbours: dict[str, dict[str, list]] = {name: {} for name in nl.nets}
    for dev in nl.devices:
        margin = _overdrive(dev, volts)
        if margin is not None and margin > 0:
            for a, b in ((dev.source, dev.drain), (dev.drain, dev.source)):
                neighbours[a].setdefault(b, []).append((margin / model.rho_ohm_v, dev.gate))

    def root_of(net: str) -> str:
        seen, frontier = {net}, [net]
        while frontier:
            nxt = []
            for a in frontier:
                for b in neighbours[a]:
                    if b in sources:
                        return b
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        raise AssertionError(f"{net} has no driving source")

    def tree(root: str) -> dict[str, tuple[str, float, list[str]]]:
        """Parent, edge resistance and edge gates of every net the root drives."""
        parent: dict[str, tuple[str, float, list[str]]] = {}
        frontier = [root]
        while frontier:
            nxt = []
            for a in frontier:
                for b, devices in neighbours[a].items():
                    if b in sources or b in parent or b == root:
                        continue
                    resistance = 1.0 / sum(g for g, _ in devices)
                    parent[b] = (a, resistance, [gate for _, gate in devices])
                    nxt.append(b)
            frontier = nxt
        return parent

    def root_path(net: str, parent) -> list[tuple[str, str, float, list[str]]]:
        edges = []
        while net in parent:
            up, resistance, gates = parent[net]
            edges.append((up, net, resistance, gates))
            net = up
        return edges[::-1]

    elmore: dict[str, float] = {}
    gating: dict[str, set[str]] = {}
    for net in moved - sources:
        parent = tree(root_of(net))
        path = root_path(net, parent)
        total = 0.0
        for other in moved - sources:
            if other not in parent:
                continue
            shared = 0.0
            for mine, theirs in zip(path, root_path(other, parent)):
                if mine[:2] != theirs[:2]:
                    break
                shared += mine[2]
            total += shared * caps[other]
        elmore[net] = total
        gating[net] = {gate for *_, gates in path for gate in gates if gate in moved - sources}

    settle: dict[str, float] = {name: 0.0 for name in moved & sources}

    def time(net: str, stack: frozenset = frozenset()) -> float:
        if net not in settle:
            assert net not in stack, "gating cycle"
            ready = max((time(g, stack | {net}) for g in gating[net]), default=0.0)
            settle[net] = ready + elmore[net]
        return settle[net]

    for net in moved - sources:
        time(net)
    assert all(math.isfinite(t) for t in settle.values())
    return settle
