"""Switch-level steady-state solver with conflict and floating-node detection.

The model is an ideal switch: a conducting channel has no threshold drop, so
a channel-connected component takes exactly the voltage of the supplies or
driven inputs inside it.  Components holding sources at different voltages
are recorded as conflicts; components with no source are floating.  Devices
whose gate or whole channel is unknown default to non-conducting, and the
fixed point is capped so genuinely bistable topologies surface as
non-convergence instead of a silent wrong answer.

There is one engine.  :func:`solve_dc_batch` splits the netlist into
channel-connected regions, solves them in dependency order on the distinct
local input tuples only, and solves rows with a conflict or no fixed point
again over the whole netlist.  Units of one structural class, such as the
repeated stages of a carry-propagate adder, share one table per call: each
distinct fixed column is relaxed once and its result reused bit for bit.
:func:`solve_dc` is its one-row case, and :func:`step_windows` and
:func:`step_waveforms` solve every column of their waveforms in one call to
it before applying charge retention step by step.  Results hold the solved
arrays and conflicts only: no sweep count, and a trace's steps are numbered,
not timed.
The tests check the engine vector by vector against an independent
union-find reference.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .device import Polarity
from .logic import VoltageMap
from .netlist import Netlist

__all__ = [
    "Conflict",
    "DcState",
    "StepTrace",
    "SolverError",
    "NonConvergenceError",
    "compile_netlist",
    "CompiledNetlist",
    "solve_dc",
    "solve_dc_batch",
    "BatchResult",
    "step_waveforms",
    "step_windows",
    "default_input_maps",
]

_EPS = 1e-9


class SolverError(ValueError):
    """Bad solver request (unflattened netlist, missing input, ...)."""


class NonConvergenceError(RuntimeError):
    """The conduction fixed point oscillated past the iteration cap."""


@dataclass(frozen=True)
class Conflict:
    """A channel-connected component that joins sources at different voltages."""

    nets: tuple[str, ...]
    voltages: tuple[float, ...]


@dataclass
class DcState:
    """Solved node voltages for one input vector.

    ``voltages`` holds every net with a defined value.  Nets in
    ``floating`` have no driver; nets inside a conflict have no value at
    all.
    """

    voltages: dict[str, float]
    floating: frozenset[str]
    conflicts: tuple[Conflict, ...]

    def voltage(self, net: str) -> float | None:
        return self.voltages.get(net)


def _overdrive(is_n, vth, vg, vs, vd):
    """Conduction margin of N devices ``vg - min(vs, vd) - vth`` and of P
    devices ``max(vs, vd) - vg - vth``; a device conducts where it is
    positive.  One unknown (NaN) channel end is ignored; an unknown gate or
    two unknown ends give NaN, which compares False."""
    return np.where(is_n, vg - np.fmin(vs, vd), np.fmax(vs, vd) - vg) - vth


@dataclass
class CompiledNetlist:
    """Index-based view of a flat netlist, from which the solver builds its
    channel-connected-region plan."""

    netlist: Netlist
    names: tuple[str, ...]
    index: dict[str, int]
    dev_is_n: tuple[bool, ...]
    dev_vth: tuple[float, ...]
    dev_g: tuple[int, ...]
    dev_s: tuple[int, ...]
    dev_d: tuple[int, ...]
    supply_v: dict[int, float]
    input_idx: tuple[int, ...]

    @property
    def n_nets(self) -> int:
        return len(self.names)

    @property
    def n_devices(self) -> int:
        return len(self.dev_g)

    @cached_property
    def device_arrays(self) -> tuple[np.ndarray, ...]:
        """(gate, source, drain, is_n, vth) of every device as arrays."""
        return (
            np.asarray(self.dev_g, dtype=np.intp),
            np.asarray(self.dev_s, dtype=np.intp),
            np.asarray(self.dev_d, dtype=np.intp),
            np.asarray(self.dev_is_n, dtype=bool),
            np.asarray(self.dev_vth, dtype=np.float64),
        )

    @cached_property
    def ccr_plan(self) -> "_CcrPlan":
        """Levelized channel-connected regions for :func:`solve_dc_batch`,
        built on first use."""
        return _build_plan(self)


def compile_netlist(nl: Netlist) -> CompiledNetlist:
    if not nl.is_flat:
        raise SolverError(f"netlist {nl.name!r} must be flattened before solving")
    names = tuple(nl.nets)
    index = {n: i for i, n in enumerate(names)}
    return CompiledNetlist(
        netlist=nl,
        names=names,
        index=index,
        dev_is_n=tuple(d.spec.polarity is Polarity.N for d in nl.devices),
        dev_vth=tuple(d.spec.threshold_v for d in nl.devices),
        dev_g=tuple(index[d.gate] for d in nl.devices),
        dev_s=tuple(index[d.source] for d in nl.devices),
        dev_d=tuple(index[d.drain] for d in nl.devices),
        supply_v={index[n.name]: n.voltage for n in nl.supplies},
        input_idx=tuple(index[n.name] for n in nl.inputs),
    )


def _as_compiled(nl: Netlist | CompiledNetlist) -> CompiledNetlist:
    return nl if isinstance(nl, CompiledNetlist) else compile_netlist(nl)


# --------------------------------------------------------------------------
# the engine: cold-start batch solving by channel-connected region


@dataclass
class BatchResult:
    """Vectorized cold-start solutions: one row per input vector, and one
    column of ``values`` and ``driven`` per net of ``names``: every net, or
    the nets the call asked for, sources included."""

    names: tuple[str, ...]
    values: np.ndarray       # [V, len(names)] float64, NaN where undefined
    driven: np.ndarray       # [V, len(names)] bool
    conflict: np.ndarray     # [V] bool
    nonconverged: np.ndarray  # [V] bool


@dataclass(frozen=True, eq=False)
class _Unit:
    """Devices relaxed together over a value table whose first rows are the
    unit's own nets and whose remaining rows, ``ext``, are held fixed."""

    nets: np.ndarray        # own nets: non-source channel ends
    ext: np.ndarray         # fixed nets: boundary sources and outside gates
    keys: tuple[int, ...]   # the ext nets that vary by row (all but supplies)
    g: np.ndarray           # device terminals as table rows
    s: np.ndarray
    d: np.ndarray
    is_n: np.ndarray        # [D, 1]
    vth: np.ndarray         # [D, 1]
    slot_dev: np.ndarray    # device of each channel-end slot, slots sorted by table row
    end_rows: np.ndarray    # distinct table rows that are channel ends
    end_starts: np.ndarray  # first slot of each end row
    cap: int
    devices: tuple[int, ...]  # the devices, ascending
    sources: tuple[int, ...]  # the ext nets that are supplies or inputs, ascending


@dataclass(frozen=True, eq=False, slots=True)
class _Reads:
    """Where each row of a unit's fixed column comes from: a constant (a
    supply, or NaN for a gate-only net, which nothing drives), the caller's
    input column, or the class table of the earlier unit that owns it."""

    consts: np.ndarray  # [ext, 1] each supply's voltage, NaN on every other row
    inputs: tuple[tuple[int, int], ...]      # (ext row, input net)
    owned: tuple[tuple[int, int, int], ...]  # (ext row, owner unit, row among its own nets)


def _make_reads(
    comp: CompiledNetlist,
    ext: np.ndarray,
    inputs: set[int],
    owner_of: Mapping[int, tuple[int, int]],
) -> _Reads:
    """``owner_of`` maps each net some unit owns to (unit, row among its
    own nets)."""
    consts = np.full((len(ext), 1), np.nan)
    from_input, owned = [], []
    for j, net in enumerate(ext.tolist()):
        if net in inputs:
            from_input.append((j, net))
        elif net in owner_of:
            owned.append((j, *owner_of[net]))
        elif net in comp.supply_v:
            consts[j] = comp.supply_v[net]
    return _Reads(consts=consts, inputs=tuple(from_input), owned=tuple(owned))


@dataclass(frozen=True, eq=False)
class _CcrPlan:
    """Units in dependency order, plus the whole netlist as one unit.

    Units of one structural class have equal own and fixed row counts and
    equal device rows, polarities and thresholds, so :func:`_relax` gives
    them the same bits on the same fixed column.  The timing layer plans
    settling per unit on ``unit_of``, ``edge``, ``rows`` and ``spans``."""

    units: tuple[_Unit, ...]
    classes: tuple[int, ...]  # structural class of each unit
    whole: _Unit
    reads: tuple[_Reads, ...]  # of each unit, then of the whole netlist
    # per unit: the keyed nets and the units whose tables no later unit reads
    last_keys: tuple[tuple[int, ...], ...]
    last_reads: tuple[tuple[int, ...], ...]
    keyed: frozenset[int]   # nets some unit takes as a key column
    is_source: np.ndarray   # [nets] supplies and inputs
    unit_of: dict[int, int]  # the unit owning each own net of some unit
    edge: np.ndarray        # id of each device's unordered (source, drain) pair
    rows: np.ndarray        # each unit's own, then its ext nets, unit after unit
    spans: tuple[tuple[int, int], ...]  # each unit's slice of rows


def _make_unit(comp: CompiledNetlist, devices: Sequence[int], nets: Sequence[int]) -> _Unit:
    devices = np.asarray(sorted(devices), dtype=np.intp)
    own = sorted(nets)
    g, s, d, is_n, vth = (a[devices] for a in comp.device_arrays)
    ext = sorted(set(np.concatenate([g, s, d]).tolist()) - set(own))
    to_row = np.zeros(comp.n_nets, dtype=np.intp)
    to_row[own + ext] = np.arange(len(own) + len(ext))
    s_row, d_row = to_row[s], to_row[d]
    ends = np.concatenate([s_row, d_row])
    by_end = np.argsort(ends, kind="stable")
    end_rows, end_starts = np.unique(ends[by_end], return_index=True)
    return _Unit(
        nets=np.asarray(own, dtype=np.intp),
        ext=np.asarray(ext, dtype=np.intp),
        keys=tuple(i for i in ext if i not in comp.supply_v),
        g=to_row[g],
        s=s_row,
        d=d_row,
        is_n=is_n[:, None],
        vth=vth[:, None],
        slot_dev=np.tile(np.arange(len(devices)), 2)[by_end],
        end_rows=end_rows,
        end_starts=end_starts,
        cap=2 + 2 * len(devices),
        devices=tuple(devices.tolist()),
        sources=tuple(i for i in ext if i in comp.supply_v or i in comp.input_idx),
    )


def _dependency_order(deps: Sequence[set[int]]) -> list[list[int]]:
    """Strongly connected components of a dependency graph, each listed after
    every component it depends on (iterative Tarjan)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    out: list[list[int]] = []
    for root in range(len(deps)):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(sorted(deps[root])))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(deps[w]))))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    scc = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.append(w)
                        if w == v:
                            break
                    out.append(scc)
    return out


def _build_plan(comp: CompiledNetlist) -> _CcrPlan:
    """Partition into channel-connected regions (CCRs) and levelize them.

    A CCR is a set of non-source nets joined by channels, bounded by the
    supplies and inputs; a device with both channel ends on sources is a
    CCR of its own.  CCRs that gate each other, directly or in a cycle,
    form one unit.
    """
    sources = set(comp.supply_v) | set(comp.input_idx)
    adjacent: dict[int, list[int]] = {}
    for a, b in zip(comp.dev_s, comp.dev_d):
        if a not in sources and b not in sources:
            adjacent.setdefault(a, []).append(b)
            adjacent.setdefault(b, []).append(a)
        for net in (a, b):
            if net not in sources:
                adjacent.setdefault(net, [])
    region: dict[int, int] = {}
    region_nets: list[list[int]] = []
    for net in sorted(adjacent):
        if net in region:
            continue
        region[net] = len(region_nets)
        members, todo = [], [net]
        while todo:
            a = todo.pop()
            members.append(a)
            for b in adjacent[a]:
                if b not in region:
                    region[b] = region[net]
                    todo.append(b)
        region_nets.append(members)
    region_devs: list[list[int]] = [[] for _ in region_nets]
    for j, (a, b) in enumerate(zip(comp.dev_s, comp.dev_d)):
        if a in region or b in region:
            region_devs[region[a if a in region else b]].append(j)
        else:
            region_nets.append([])
            region_devs.append([j])
    deps = [
        {region[comp.dev_g[j]] for j in devs if comp.dev_g[j] in region}
        for devs in region_devs
    ]
    units = tuple(
        _make_unit(
            comp,
            [j for r in scc for j in region_devs[r]],
            [net for r in scc for net in region_nets[r]],
        )
        for scc in _dependency_order(deps)
    )
    signatures: dict[tuple, int] = {}
    classes = tuple(
        signatures.setdefault(
            (len(u.nets), len(u.ext), *(a.tobytes() for a in (u.g, u.s, u.d, u.is_n, u.vth))),
            len(signatures),
        )
        for u in units
    )
    rows = [[*unit.nets.tolist(), *unit.ext.tolist()] for unit in units]
    ends = np.cumsum([0, *map(len, rows)]).tolist()
    pairs: dict[tuple[int, int], int] = {}
    edge = [
        pairs.setdefault((min(a, b), max(a, b)), len(pairs)) for a, b in zip(comp.dev_s, comp.dev_d)
    ]
    whole = _make_unit(comp, range(comp.n_devices), list(region))
    owner_of = {
        net: (u, row) for u, unit in enumerate(units) for row, net in enumerate(unit.nets.tolist())
    }
    inputs = set(comp.input_idx)
    reads = tuple(_make_reads(comp, unit.ext, inputs, owner_of) for unit in (*units, whole))
    last_key = {net: u for u, unit in enumerate(units) for net in unit.keys}
    last_read = {u: u for u in range(len(units))}
    last_read.update((owner, u) for u, r in enumerate(reads[:-1]) for _, owner, _ in r.owned)
    last_keys: list[list[int]] = [[] for _ in units]
    last_reads: list[list[int]] = [[] for _ in units]
    for net, u in last_key.items():
        last_keys[u].append(net)
    for owner, u in last_read.items():
        last_reads[u].append(owner)
    return _CcrPlan(
        units=units,
        classes=classes,
        whole=whole,
        reads=reads,
        last_keys=tuple(map(tuple, last_keys)),
        last_reads=tuple(map(tuple, last_reads)),
        keyed=frozenset(last_key),
        is_source=np.isin(np.arange(comp.n_nets), list(sources)),
        unit_of={net: u for net, (u, _) in owner_of.items()},
        edge=np.asarray(edge, dtype=np.intp),
        rows=np.asarray([n for r in rows for n in r], dtype=np.intp),
        spans=tuple(zip(ends, ends[1:])),
    )


def _components(
    unit: _Unit, cond: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``lo`` and highest ``hi`` over each table row's component of
    conducting channels.  Given source voltages (+inf/-inf elsewhere), that
    is the source voltage range each row is joined to."""
    vmin, vmax = lo.copy(), hi.copy()
    if not len(unit.slot_dev):
        return vmin, vmax
    on = cond[unit.slot_dev]
    rows, starts = unit.end_rows, unit.end_starts
    while True:
        pair_lo = np.minimum(vmin[unit.s], vmin[unit.d])[unit.slot_dev]
        pair_hi = np.maximum(vmax[unit.s], vmax[unit.d])[unit.slot_dev]
        new_lo = np.minimum(
            vmin[rows], np.minimum.reduceat(np.where(on, pair_lo, np.inf), starts, axis=0)
        )
        new_hi = np.maximum(
            vmax[rows], np.maximum.reduceat(np.where(on, pair_hi, -np.inf), starts, axis=0)
        )
        if np.array_equal(new_lo, vmin[rows], equal_nan=True) and np.array_equal(
            new_hi, vmax[rows], equal_nan=True
        ):
            return vmin, vmax
        vmin[rows] = new_lo
        vmax[rows] = new_hi


def _conduction(unit: _Unit, val: np.ndarray) -> np.ndarray:
    """Which devices conduct, per column of the value table ``val``.  NaN
    (unknown) terminals compare False: those devices stay off.  For finite
    x, x - y > 0 exactly when x > y, so this is the threshold test itself."""
    return _overdrive(unit.is_n, unit.vth, val[unit.g], val[unit.s], val[unit.d]) > 0


def _relax(
    unit: _Unit, fixed: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cold-start conduction fixed point of one unit, one column per row of
    ``fixed`` (the values of ``unit.ext``).

    Returns (values, driven, spread, conflict, nonconverged): values and
    driven over the unit's own nets; per row, ``spread`` marks a component
    joining unequal source voltages, ``conflict`` one whose voltages differ
    by more than _EPS, and ``nonconverged`` a row still changing after
    ``unit.cap`` sweeps.  Columns never interact: a column's bits do not
    depend on the others.
    """
    n_own, n_rows = len(unit.nets), fixed.shape[1]
    val = np.concatenate([np.full((n_own, n_rows), np.nan), fixed])
    lo = np.concatenate([np.full((n_own, n_rows), np.inf), fixed])
    hi = np.concatenate([np.full((n_own, n_rows), -np.inf), fixed])
    cond = np.zeros((len(unit.g), n_rows), dtype=bool)
    for _ in range(unit.cap):
        new_cond = _conduction(unit, val)
        vmin, vmax = _components(unit, new_cond, lo, hi)
        own_lo, own_hi = vmin[:n_own], vmax[:n_own]
        new_val = np.where((own_lo <= own_hi) & (own_hi - own_lo <= _EPS), own_lo, np.nan)
        old_val = val[:n_own]
        same = (new_val == old_val) | (np.isnan(new_val) & np.isnan(old_val))
        changed = (new_cond != cond).any(axis=0) | ~same.all(axis=0)
        cond = new_cond
        val[:n_own] = new_val
        if not changed.any():
            break
    driven = vmin <= vmax
    return (
        val[:n_own],
        driven[:n_own],
        (vmax > vmin).any(axis=0),
        (driven & (vmax - vmin > _EPS)).any(axis=0),
        changed,
    )


def _index_type(count: int) -> np.dtype:
    """The narrowest unsigned type that holds the indices below ``count``."""
    return np.min_scalar_type(max(count - 1, 0))


def _rank(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Class of each value (NaN is one class of its own), narrowed, and the
    class count."""
    uniq, inverse = np.unique(values, return_inverse=True)
    return inverse.astype(_index_type(len(uniq))), len(uniq)


_CODE_LIMIT = 1 << 62


def _distinct_rows(
    columns: Sequence[tuple[np.ndarray, int]], n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """First row of each distinct tuple of ranked columns, in ascending code
    order, and each row's tuple, narrowed.  Ranks combine in mixed radix,
    re-ranked before the code could overflow int64.  A span of at most
    ``n_rows`` codes is counted densely, without a sort."""
    code = np.zeros(n_rows, dtype=np.int64)
    span = 1
    for rank, classes in columns:
        if span * classes > _CODE_LIMIT:
            rank_of_code, span = _rank(code)
            # a narrowed code would wrap in the products below
            code = rank_of_code.astype(np.int64)
        code = code * classes + rank
        span *= classes
    if span > n_rows:
        _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    else:
        first = np.full(span, n_rows)
        np.minimum.at(first, code, np.arange(n_rows))
        present = first < n_rows
        first, inverse = first[present], (np.cumsum(present) - 1)[code]
    return first, inverse.astype(_index_type(len(first)))


class _ClassTable:
    """The relaxed columns of one structural class of units, keyed by the
    bytes of their fixed column, supplies included.  Equal bytes give equal
    bits; a NaN payload or -0.0 can only miss.  Lives for one call."""

    def __init__(self, n_own: int) -> None:
        self.index: dict[bytes, int] = {}
        self.values = np.empty((n_own, 0))
        self.driven = np.empty((n_own, 0), dtype=bool)
        self.redo = np.empty(0, dtype=bool)

    def lookup(self, unit: _Unit, fixed: np.ndarray) -> np.ndarray:
        """The entry of each column of ``fixed``, relaxing the new ones."""
        keys = [column.tobytes() for column in fixed.T]
        new = {key: j for j, key in enumerate(keys) if key not in self.index}
        if new:
            values, driven, spread, _, nonconv = _relax(unit, fixed[:, list(new.values())])
            for key in new:
                self.index[key] = len(self.index)
            self.values = np.concatenate([self.values, values], axis=1)
            self.driven = np.concatenate([self.driven, driven], axis=1)
            self.redo = np.concatenate([self.redo, spread | nonconv])
        return np.array([self.index[key] for key in keys], dtype=np.intp)


def _fixed(
    reads: _Reads,
    columns: Mapping[int, np.ndarray],
    rows: np.ndarray,
    hits: Mapping[int, tuple[_ClassTable, np.ndarray, np.ndarray]],
) -> np.ndarray:
    """The fixed column of a unit on each of ``rows``, ``[ext, rows]``.  An
    owned net is read from its owner's table through the owner's (table,
    entry, inverse): those are the bits the owner scatters to a stored row."""
    fixed = reads.consts.repeat(len(rows), axis=1)
    for j, net in reads.inputs:
        fixed[j] = columns[net][rows]
    for j, owner, row in reads.owned:
        table, entry, inverse = hits[owner]
        fixed[j] = table.values[row, entry[inverse[rows]]]
    return fixed


def solve_dc_batch(
    nl: Netlist | CompiledNetlist,
    inputs: Mapping[str, np.ndarray],
    *,
    nets: Sequence[str] | None = None,
) -> BatchResult:
    """Cold-start solve of many input vectors at once.

    ``inputs`` maps each input net to a voltage column; all columns must
    share one length, and a netlist without inputs is one row.  ``nets``
    names the columns of the result, in that order; by default they are
    every net, in ``comp.names`` order.  This is the library's only
    switch-level solver: :func:`solve_dc` and the stepping functions call it
    for every net, and exhaustive verification for its outputs only, one
    chunk of rows at a time.

    Units of channel-connected regions are solved in dependency order, each
    only on the distinct tuples of its key columns (its outside gate nets and
    boundary inputs), and scattered back to every row.  The driven and
    re-solve flags are gathered per row only where the entries a unit hits
    differ.  A row in which some unit joins unequal source voltages or fails
    to converge is solved again with the whole netlist as one unit: a short
    then poisons every net it reaches through a shared supply, and
    ``nonconverged`` keeps the whole-netlist meaning.

    Units with the same structure (own and fixed row counts, device rows,
    polarities and thresholds) form a class, and the call keeps one table
    per class keyed by the bytes of each fixed column, supplies included.
    Only columns the table does not hold are relaxed.  That is exact:
    columns never interact in the relaxation, so equal bytes give equal
    bits, and a NaN payload or -0.0 can only miss.  The tables live for
    this call only.

    Per row, the call keeps a float and a driven flag only for the nets of
    the result.  A unit reads its fixed values from constants (supplies),
    from the caller's input columns, and from the class table of the unit
    that owns each of its gate nets, through that unit's table entries and
    each row's entry; a keyed net keeps each row's rank.  Ranks and entries
    are uint8 or uint16 where the counts allow, and each is dropped after
    the last unit that reads it.
    """
    comp = _as_compiled(nl)
    input_names = {comp.names[i] for i in comp.input_idx}
    unknown = set(inputs) - input_names
    if unknown:
        raise SolverError(f"assignments to non-input nets: {sorted(unknown)}")
    missing = input_names - set(inputs)
    if missing:
        raise SolverError(f"unassigned input nets: {sorted(missing)}")
    if nets is None:
        order = list(range(comp.n_nets))
    else:
        unknown = set(nets).difference(comp.index)
        if unknown:
            raise SolverError(f"unknown nets requested: {sorted(unknown)}")
        order = list(dict.fromkeys(comp.index[name] for name in nets))
    columns = {comp.index[name]: np.asarray(col, dtype=np.float64) for name, col in inputs.items()}
    lengths = {len(c) for c in columns.values()}
    if len(lengths) > 1:
        raise SolverError("batch input columns must share one length")
    # without inputs there is one vector to solve: the supplies alone
    n_vec = lengths.pop() if lengths else 1

    # Nets of the result are rows, so every per-net slice is contiguous;
    # slot[net] is the net's row, or -1 if it has none.
    slot = np.full(comp.n_nets, -1, dtype=np.intp)
    slot[order] = np.arange(len(order))
    plan = comp.ccr_plan
    val = np.full((int((slot >= 0).sum()), n_vec), np.nan)
    for i, v in comp.supply_v.items():
        if slot[i] >= 0:
            val[slot[i]] = v
    for i, col in columns.items():
        if slot[i] >= 0:
            val[slot[i]] = col
    driven = ~np.isnan(val)

    ranks: dict[int, tuple[np.ndarray, int]] = {}
    tables: dict[int, _ClassTable] = {}
    hits: dict[int, tuple[_ClassTable, np.ndarray, np.ndarray]] = {}  # per unit
    redo = np.zeros(n_vec, dtype=bool)
    unit_rows = slot[plan.rows]
    for u, (unit, cls, reads, (start, stop)) in enumerate(
        zip(plan.units, plan.classes, plan.reads, plan.spans)
    ):
        for net in unit.keys:
            if net not in ranks:
                # an input's column, or a gate-only net's: NaN throughout
                column = columns[net] if net in columns else np.full(n_vec, np.nan)
                ranks[net] = _rank(column)
        first, inverse = _distinct_rows([ranks[net] for net in unit.keys], n_vec)
        table = tables.setdefault(cls, _ClassTable(len(unit.nets)))
        entry = table.lookup(unit, _fixed(reads, columns, first, hits))
        hits[u] = table, entry, inverse
        values = table.values[:, entry]
        own_rows = unit_rows[start : start + len(unit.nets)]
        kept = own_rows >= 0
        if kept.any():
            val[own_rows[kept]] = values[kept].take(inverse, axis=1)
            hit_driven = table.driven[kept][:, entry]
            driven[own_rows[kept]] = True if hit_driven.all() else hit_driven.take(inverse, axis=1)
        hit_redo = table.redo[entry]
        if hit_redo.any():
            redo |= hit_redo.take(inverse)
        for row, net in enumerate(unit.nets.tolist()):
            if net in plan.keyed:
                rank, classes = _rank(values[row])
                ranks[net] = rank.take(inverse), classes
        for net in plan.last_keys[u]:
            del ranks[net]
        for owner in plan.last_reads[u]:
            del hits[owner]

    conflict = np.zeros(n_vec, dtype=bool)
    nonconverged = np.zeros(n_vec, dtype=bool)
    if redo.any():
        rows = np.flatnonzero(redo)
        whole = plan.whole
        values, own_driven, _, conflict[rows], nonconverged[rows] = _relax(
            whole, _fixed(plan.reads[-1], columns, rows, {})
        )
        own_rows = slot[whole.nets]
        kept = own_rows >= 0
        val[np.ix_(own_rows[kept], rows)] = values[kept]
        driven[np.ix_(own_rows[kept], rows)] = own_driven[kept]
    names = comp.names if nets is None else tuple(nets)
    if len(order) < len(names):
        # a net named twice repeats its row
        picked = slot[[comp.index[name] for name in names]]
        val, driven = val[picked], driven[picked]
    return BatchResult(
        names=names,
        values=val.T,
        driven=driven.T,
        conflict=conflict,
        nonconverged=nonconverged,
    )


# --------------------------------------------------------------------------
# solved states of single vectors


def _distinct(volts: list[float]) -> tuple[float, ...]:
    out: list[float] = []
    for v in sorted(volts):
        if not out or v - out[-1] > _EPS:
            out.append(v)
    return tuple(out)


def _conflict_groups(
    comp: CompiledNetlist, batch: BatchResult
) -> dict[int, tuple[Conflict, ...]]:
    """The conflicts of each batch row whose ``conflict`` flag is set.

    The components come from the final values' conduction (at the fixed
    point that is the last sweep's), labelled by their smallest net index;
    conflicts are listed in label order with their nets sorted by name.
    """
    rows = np.flatnonzero(batch.conflict).tolist()
    if not rows:
        return {}
    whole = comp.ccr_plan.whole
    table = np.concatenate([whole.nets, whole.ext])
    val = batch.values[np.ix_(rows, table)].T
    label = np.repeat(table.astype(np.float64)[:, None], len(rows), axis=1)
    root, _ = _components(whole, _conduction(whole, val), label, label)
    sources = [
        t for t, net in enumerate(table.tolist())
        if net in comp.supply_v or net in comp.input_idx
    ]
    groups = {}
    for col, row in enumerate(rows):
        volts: dict[float, list[float]] = {}
        for t in sources:
            volts.setdefault(root[t, col], []).append(float(val[t, col]))
        conflicts = []
        for key in sorted(volts):
            distinct = _distinct(volts[key])
            if len(distinct) > 1:
                members = table[root[:, col] == key].tolist()
                conflicts.append(
                    Conflict(nets=tuple(sorted(comp.names[i] for i in members)), voltages=distinct)
                )
        groups[row] = tuple(conflicts)
    return groups


def _dc_state(
    comp: CompiledNetlist, values: list[float], driven: list[bool], conflicts: tuple[Conflict, ...]
) -> DcState:
    """One cold-solved row as a :class:`DcState`: an undriven net is NaN."""
    names = comp.names
    return DcState(
        voltages={n: v for n, v in zip(names, values) if not math.isnan(v)},
        floating=frozenset(n for n, on in zip(names, driven) if not on),
        conflicts=conflicts,
    )


def _no_fixed_point(comp: CompiledNetlist) -> str:
    return (
        f"{comp.netlist.name!r} did not reach a conduction fixed point "
        f"within {comp.ccr_plan.whole.cap} sweeps"
    )


def solve_dc(nl: Netlist | CompiledNetlist, inputs: Mapping[str, float]) -> DcState:
    """Solve one input vector to the conduction fixed point, as a one-row
    :func:`solve_dc_batch`."""
    comp = _as_compiled(nl)
    batch = solve_dc_batch(comp, {name: [volts] for name, volts in inputs.items()})
    if batch.nonconverged[0]:
        raise NonConvergenceError(_no_fixed_point(comp))
    return _dc_state(
        comp,
        batch.values[0].tolist(),
        batch.driven[0].tolist(),
        _conflict_groups(comp, batch).get(0, ()),
    )


# --------------------------------------------------------------------------
# quasi-static stepping


@dataclass(eq=False)
class StepTrace:
    """Solved node voltages across a level waveform, as arrays over
    ``comp.names`` with one row per step.

    ``values`` is ``[steps x nets]``, NaN where a net has no value.  A net
    that is not driven keeps its previous value (charge retention):
    ``values[k, i]`` is the solved voltage if ``driven[k, i]`` and
    ``values[k - 1, i]`` otherwise.  ``conflicts[k]`` lists the supply
    conflicts of step k.  ``moved``, built on first use, marks the nets
    that moved at each step; an input moves exactly at the steps where its
    level changes.
    """

    comp: CompiledNetlist
    values: np.ndarray      # [steps, nets] float64
    driven: np.ndarray      # [steps, nets] bool
    conflicts: tuple[tuple[Conflict, ...], ...]

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def moved(self) -> np.ndarray:
        """``[steps x nets]`` bool: the nets that gained a value or moved by
        more than 1 nV at each step; row 0 is all False."""
        new, old = self.values[1:], self.values[:-1]
        moved = np.zeros(self.values.shape, dtype=bool)
        moved[1:] = ~np.isnan(new) & (np.isnan(old) | (np.abs(new - old) > _EPS))
        return moved


def default_input_maps(nl: Netlist) -> dict[str, VoltageMap]:
    """Digit maps for each input net: full range up to the largest supply.
    A netlist with inputs but no supply above 0 V is a :class:`SolverError`."""
    vdd = nl.max_supply_v()
    if nl.inputs and not vdd > 0:
        raise SolverError(
            f"netlist {nl.name!r} has no supply above 0 V to scale its input "
            "digits by; pass maps= with a VoltageMap for each input"
        )
    return {n.name: VoltageMap(vdd, n.radix) for n in nl.inputs}


def step_windows(
    nl: Netlist | CompiledNetlist,
    windows: Sequence[Mapping[str, Sequence[int]]],
    maps: Mapping[str, VoltageMap] | None = None,
) -> Iterator[StepTrace]:
    """Quasi-static stepping of several independent waveform windows.

    Every column of every window is solved cold in one
    :func:`solve_dc_batch` call; charge retention is then applied as a
    forward fill within each window.  That is exact because retained charge
    never gates a device.  Each window's first column is its solved initial
    vector.  An input's level k is driven at ``levels[k]`` of its map in
    ``maps`` (by default :func:`default_input_maps`).  The traces share the
    batch's arrays; an input's ``moved`` column marks the steps where its
    level changes.
    """
    comp = _as_compiled(nl)
    if maps is None:
        maps = default_input_maps(comp.netlist)
    input_names = [comp.names[i] for i in comp.input_idx]
    columns: dict[str, list[float]] = {name: [] for name in input_names}

    starts = [0]
    for waveforms in windows:
        missing = set(input_names) - set(waveforms)
        if missing:
            raise SolverError(f"waveforms missing for inputs: {sorted(missing)}")
        lengths = {len(waveforms[name]) for name in input_names}
        if len(lengths) != 1:
            raise SolverError("waveform sequences must share one length")
        (steps,) = lengths
        if steps < 1:
            raise SolverError("waveforms must contain at least one step")
        for name in input_names:
            vmap = maps[name]
            levels = vmap.levels
            # any level but an in-range int goes through volts(), which refuses it
            columns[name].extend(
                levels[level] if type(level) is int and 0 <= level < len(levels)
                else vmap.volts(level)
                for level in waveforms[name]
            )
        starts.append(starts[-1] + steps)

    batch = solve_dc_batch(comp, columns)
    stuck = np.flatnonzero(batch.nonconverged)
    if len(stuck):
        window = bisect.bisect_right(starts, stuck[0]) - 1
        where = f"step {stuck[0] - starts[window]}"
        if len(windows) > 1:
            where = f"window {window}, {where}"
        raise NonConvergenceError(f"{where}: {_no_fixed_point(comp)}")
    conflicts = _conflict_groups(comp, batch)

    # each value comes from the latest row of its window that drove the net,
    # or from the window's first row
    rows = np.arange(len(batch.values))[:, None]
    source = np.where(batch.driven, rows, -1)
    source[starts[:-1]] = rows[starts[:-1]]
    np.maximum.accumulate(source, axis=0, out=source)
    values = np.take_along_axis(batch.values, source, axis=0)

    def trace(window: int) -> StepTrace:
        first, stop = starts[window], starts[window + 1]
        return StepTrace(
            comp=comp,
            values=values[first:stop],
            driven=batch.driven[first:stop],
            conflicts=tuple(conflicts.get(row, ()) for row in range(first, stop)),
        )

    return (trace(window) for window in range(len(windows)))


def step_waveforms(
    nl: Netlist | CompiledNetlist,
    waveforms: Mapping[str, Sequence[int]],
    maps: Mapping[str, VoltageMap] | None = None,
) -> StepTrace:
    """Quasi-static stepping of one waveform window: :func:`step_windows`
    with a single window.  The first column is the solved initial vector."""
    (trace,) = step_windows(nl, [waveforms], maps)
    return trace
