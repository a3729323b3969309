import hashlib
import itertools
import json
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mvladders.device import Polarity
from mvladders.gates import GateKind, build
from mvladders.logic import VoltageMap
from mvladders import solver
from mvladders.netlist import NetlistBuilder, parse, serialize
from mvladders.solver import (
    Conflict,
    DcState,
    BatchResult,
    _distinct_rows,
    NonConvergenceError,
    SolverError,
    compile_netlist,
    default_input_maps,
    solve_dc,
    solve_dc_batch,
    step_windows,
)
from switch_reference import reference_solve, reference_step


def _states(trace) -> list[DcState]:
    """Each step of a trace as a DcState; an undriven net with a value holds
    retained charge."""
    names = trace.comp.names
    return [
        DcState(
            voltages={n: v for n, v in zip(names, values) if not math.isnan(v)},
            floating=frozenset(n for n, on in zip(names, driven) if not on),
            conflicts=conflicts,
        )
        for values, driven, conflicts in zip(
            trace.values.tolist(), trace.driven.tolist(), trace.conflicts
        )
    ]


def _changes(trace) -> list[dict[str, tuple[float | None, float]]]:
    """For each step, every net whose voltage moved, mapped to (old, new);
    the first step is empty, matching the solved initial vector."""
    changes = [{}]
    for k in range(1, len(trace)):
        old, new = trace.values[k - 1].tolist(), trace.values[k].tolist()
        changes.append({
            trace.comp.names[i]: (None if math.isnan(old[i]) else old[i], new[i])
            for i in np.flatnonzero(trace.moved[k]).tolist()
        })
    return changes


def test_inverter_dc():
    inv = build(GateKind("Inverter"))
    assert solve_dc(inv, {"a": 0.0}).voltage("y") == pytest.approx(0.9)
    assert solve_dc(inv, {"a": 0.9}).voltage("y") == pytest.approx(0.0)


def test_nti_dc_matches_table():
    nti = build(GateKind("NTI"))
    vmap = VoltageMap(0.9, 3)
    expect = {0: 2, 1: 0, 2: 0}
    for digit, out in expect.items():
        state = solve_dc(nti, {"a": vmap.volts(digit)})
        assert state.voltage("y") == pytest.approx(vmap.volts(out))
        assert not state.conflicts


def _conflict_fixture():
    b = NetlistBuilder()
    b.add_supply("vdd", 0.9)
    b.add_supply("gnd", 0.0)
    b.add_input("a", 2)
    b.add_output("y", 2)
    # always-on bridge between the rails
    b.add_device(Polarity.N, 37, "vdd", "gnd", "vdd")
    return b.build("clash")


def test_supply_conflict_reported():
    state = solve_dc(_conflict_fixture(), {"a": 0.0})
    assert len(state.conflicts) == 1
    conflict = state.conflicts[0]
    assert set(conflict.nets) >= {"vdd", "gnd"}
    assert conflict.voltages == (0.0, 0.9)
    # supplies keep their declared voltages even inside the conflict
    assert state.voltage("vdd") == pytest.approx(0.9)
    assert state.voltage("gnd") == pytest.approx(0.0)


def test_missing_input_rejected():
    inv = build(GateKind("Inverter"))
    with pytest.raises(SolverError):
        solve_dc(inv, {})
    with pytest.raises(SolverError):
        solve_dc(inv, {"a": 0.0, "nope": 1.0})


def test_unflattened_rejected():
    from mvladders.adders import AdderVariant, CpaConfig, build_cpa
    from mvladders.logic import CarrySwing

    cpa = build_cpa(CpaConfig(AdderVariant.BFA1_14T, 2, CarrySwing.FULL))
    with pytest.raises(SolverError):
        solve_dc(cpa.hierarchical, {})


def test_determinism_under_device_order():
    nti = build(GateKind("NTI"))
    shuffled = replace(nti, devices=tuple(reversed(nti.devices)))
    for volts in (0.0, 0.45, 0.9):
        s1 = solve_dc(nti, {"a": volts})
        s2 = solve_dc(shuffled, {"a": volts})
        assert s1.voltages == s2.voltages
        assert s1.floating == s2.floating


def _selfgate_fixture(pullup_gate="gnd"):
    # a pulldown gated by its own drain: pulling the node up turns the
    # pulldown on, which poisons the node, which turns it back off; with
    # pullup_gate="a" that happens only while a is low
    b = NetlistBuilder()
    b.add_supply("vdd", 0.9)
    b.add_supply("gnd", 0.0)
    b.add_input("a", 2)
    b.add_output("y", 2)
    b.add_device(Polarity.P, 19, pullup_gate, "vdd", "y")
    b.add_device(Polarity.N, 19, "y", "gnd", "y")
    return b.build("selfgate")


def test_oscillating_topology_reports_nonconvergence():
    with pytest.raises(NonConvergenceError):
        solve_dc(_selfgate_fixture(), {"a": 0.0})


def test_one_window_constant_inputs():
    inv = build(GateKind("Inverter"))
    (trace,) = step_windows(inv, [{"a": [1, 1, 1]}])
    assert len(trace) == 3
    assert all(not c for c in _changes(trace))
    v = [s.voltage("y") for s in _states(trace)]
    assert v == [v[0]] * 3


def test_one_window_records_deltas_and_retention():
    mux = build(GateKind("Mux3Ternary"))
    waves = {"d0": [0, 0], "d1": [2, 2], "d2": [1, 1], "s": [0, 1]}
    (trace,) = step_windows(mux, [waves])
    states = _states(trace)
    assert states[0].voltage("y") == pytest.approx(0.0)
    assert states[1].voltage("y") == pytest.approx(0.9)
    assert "y" in _changes(trace)[1]

    # a TGate turned off leaves y undriven, holding its 0.9 V
    tgate = build(GateKind("TGate"))
    binary = dict.fromkeys(("d", "en", "enb"), VoltageMap(0.9, 2))
    (trace,) = step_windows(tgate, [{"d": [1, 1], "en": [1, 0], "enb": [0, 1]}], binary)
    states = _states(trace)
    assert states[0].voltage("y") == 0.9 and "y" not in states[0].floating
    assert "y" in states[1].floating
    assert [n for n in states[1].floating if states[1].voltage(n) is not None] == ["y"]
    assert states[1].voltage("y") == 0.9


def test_default_input_maps_need_a_positive_supply():
    # TGate has only a gnd rail, so its digits have no voltage to scale by
    with pytest.raises(SolverError, match="'tgate' has no supply above 0 V.*pass maps="):
        step_windows(build(GateKind("TGate")), [{"d": [1, 1], "en": [1, 0], "enb": [0, 1]}])
    # a netlist with no inputs needs no map
    tie = parse("SUPPLY gnd 0\nOUTPUT y 2\nDEVICE N n=19 g=gnd s=gnd d=y\n")
    assert default_input_maps(tie) == {}


def test_netlist_without_inputs_is_refused():
    tie = parse("SUPPLY gnd 0\nOUTPUT y 2\nDEVICE N n=19 g=gnd s=gnd d=y\n")
    with pytest.raises(SolverError, match=r"^netlist 'netlist' has no inputs to step$"):
        step_windows(tie, [{}])


def test_qfa2_staircase_sum_trace():
    from mvladders.adders import AdderVariant, build_full_adder

    fa = build_full_adder(AdderVariant.QFA2)
    waves = {"A": [0, 1, 2, 3, 2, 1, 0], "B": [0] * 7, "Cin": [0] * 7}
    (trace,) = step_windows(fa.netlist, [waves], fa.input_maps())
    vmap = VoltageMap(0.9, 4)
    digits = [vmap.decode(s.voltage("Sum")) for s in _states(trace)]
    assert digits == [0, 1, 2, 3, 2, 1, 0]


def test_qfa1_cin_pulse_cout_trace():
    from mvladders.adders import AdderVariant, build_full_adder

    fa = build_full_adder(AdderVariant.QFA1)
    waves = {"A": [2, 2, 2], "B": [1, 1, 1], "Cin": [0, 1, 0]}
    (trace,) = step_windows(fa.netlist, [waves], fa.input_maps())
    cmap = fa.output_maps()["Cout"]
    assert [cmap.decode(s.voltage("Cout")) for s in _states(trace)] == [0, 1, 0]


def test_warm_start_equivalence():
    from mvladders.adders import AdderVariant, build_full_adder

    fa = build_full_adder(AdderVariant.TFA2)
    waves = {"A": [0, 2, 1, 2], "B": [1, 1, 2, 0], "Cin": [0, 1, 1, 0]}
    maps = fa.input_maps()
    (trace,) = step_windows(fa.netlist, [waves], maps)
    final = _states(trace)[-1]
    cold = solve_dc(
        fa.netlist,
        {name: maps[name].volts(waves[name][-1]) for name in waves},
    )
    assert final.floating == cold.floating
    for name, volts in cold.voltages.items():
        assert final.voltage(name) == pytest.approx(volts)


def _every_vector(maps):
    """Columns holding every combination of each input's digit levels."""
    names = sorted(maps)
    rows = list(itertools.product(*(maps[n].levels for n in names)))
    return {n: np.array([row[i] for row in rows]) for i, n in enumerate(names)}


def _assert_batch_matches_scalar(nl, columns):
    """solve_dc_batch agrees with the union-find reference on every net's
    value, the driven/floating split, conflicts and non-convergence.  Rows
    with a conflict or no fixed point also go through solve_dc, whose
    conflict groups (nets and voltages) or NonConvergenceError must match."""
    comp = compile_netlist(nl)
    batch = solve_dc_batch(comp, columns)
    for row in range(len(batch.conflict)):
        inputs = {name: float(col[row]) for name, col in columns.items()}
        state = reference_solve(nl, inputs)
        if state is None:
            assert batch.nonconverged[row], inputs
            with pytest.raises(NonConvergenceError):
                solve_dc(comp, inputs)
            continue
        assert not batch.nonconverged[row], inputs
        assert batch.conflict[row] == bool(state.conflicts), inputs
        if state.conflicts:
            assert solve_dc(comp, inputs).conflicts == state.conflicts, inputs
        for i, name in enumerate(comp.names):
            want = state.voltage(name)
            got = batch.values[row, i]
            assert (np.isnan(got) if want is None else got == want), (inputs, name)
            assert batch.driven[row, i] == (name not in state.floating), (inputs, name)
    return batch


def test_batch_matches_scalar(single_stage_designs):
    for fa in single_stage_designs:
        batch = _assert_batch_matches_scalar(fa.netlist, _every_vector(fa.input_maps()))
        assert not batch.conflict.any() and not batch.nonconverged.any(), fa.label


_TWO_DIGIT_CASES = [("BFA1_14T", "full"), ("TFA2", "full"), ("QFA1", "reduced")]


@pytest.mark.parametrize("variant, swing", _TWO_DIGIT_CASES)
def test_batch_matches_scalar_two_digit_cpa(variant, swing):
    cpa = _two_digit_cpa(variant, swing)
    assert len(compile_netlist(cpa.netlist).ccr_plan.units) > 2
    _assert_batch_matches_scalar(cpa.netlist, _every_vector(cpa.input_maps()))


def _two_digit_cpa(variant, swing):
    from mvladders.adders import AdderVariant, CpaConfig, build_cpa
    from mvladders.logic import CarrySwing

    return build_cpa(CpaConfig(AdderVariant[variant], 2, CarrySwing(swing)))


def test_comparison_cpas_share_few_unit_classes():
    from mvladders.adders import build_cpa
    from mvladders.cli import _COMPARE_CONFIGS

    for config in _COMPARE_CONFIGS:
        plan = compile_netlist(build_cpa(config).netlist).ccr_plan
        assert len(set(plan.classes)) <= 7 < len(plan.units), config.label
        members: dict[int, list] = {}
        for unit, cls in zip(plan.units, plan.classes):
            members.setdefault(cls, []).append(unit)
        for first, *others in members.values():
            for unit in others:
                assert (len(unit.nets), len(unit.ext)) == (len(first.nets), len(first.ext))
                for name in ("gsd", "is_n", "vth"):
                    assert np.array_equal(getattr(unit, name), getattr(first, name)), name


_CHIRALITIES = [8, 10, 13, 19, 29, 37]


@st.composite
def _random_netlists(draw):
    """A small flat netlist: three supplies at unequal voltages and up to 8
    devices with random terminals, which gives shorts, islands and feedback
    loops."""
    vdd = draw(st.sampled_from([0.45, 0.9]))
    b = NetlistBuilder()
    b.add_supply("vdd", vdd)
    b.add_supply("gnd", 0.0)
    b.add_supply("vmid", draw(st.sampled_from([vdd / 3, vdd / 2, 2 * vdd / 3])))
    radices = draw(st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=2))
    inputs = [b.add_input(f"in{i}", r) for i, r in enumerate(radices)]
    b.add_output("out", 2)
    internals = [b.add_internal(f"n{i}") for i in range(draw(st.integers(0, 3)))]
    nets = st.sampled_from(["vdd", "gnd", "vmid", "out", *inputs, *internals])
    for _ in range(draw(st.integers(1, 8))):
        b.add_device(
            draw(st.sampled_from(Polarity)),
            draw(st.sampled_from(_CHIRALITIES)),
            draw(nets),
            draw(nets),
            draw(nets),
        )
    return b.build("fuzz")


def _levels(draw, radix, steps):
    return draw(st.lists(st.integers(0, radix - 1), min_size=steps, max_size=steps))


@st.composite
def _random_cases(draw):
    """A random netlist and input columns for it at its inputs' digit
    levels."""
    nl = draw(_random_netlists())
    vdd = nl.max_supply_v()
    rows = draw(st.integers(1, 6))
    columns = {
        net.name: np.array(_levels(draw, net.radix, rows)) * vdd / (net.radix - 1)
        for net in nl.inputs
    }
    return nl, columns


def _tgate_distinct_voltages():
    # one unit keyed on three inputs of 100 classes each: joined, their
    # codes span 10^6 values, more than there are rows
    rng = np.random.default_rng(26)
    columns = {name: rng.uniform(0.0, 0.9, 100) for name in ("d", "en", "enb")}
    return build(GateKind("TGate")), columns


@settings(max_examples=150)
@given(_random_cases())
@example(_tgate_distinct_voltages())
def test_batch_matches_reference_on_random_netlists(case):
    _assert_batch_matches_scalar(*case)


@st.composite
def _repeated_cell_cases(draw):
    """2-3 copies of one random cell in a chain, and input columns for it.

    Copy k's input ``a`` is copy k-1's output ``y``, so later copies are
    units of the same structure as earlier ones; each copy sits on a 0.9 V
    or a 0.45 V rail, so the same structure meets other supply values.  The
    first ``a`` may come through a pass device whose gate is an input, which
    leaves it and what it gates floating on some rows (NaN fixed values).
    Nets are declared so that every copy orders its rows alike."""
    n_internal = draw(st.integers(0, 2))
    local = st.sampled_from(["rail", "gnd", "a", "b", "y", *(f"n{i}" for i in range(n_internal))])
    cell = [
        (draw(st.sampled_from(Polarity)), draw(st.sampled_from(_CHIRALITIES)),
         draw(local), draw(local), draw(local))
        for _ in range(draw(st.integers(1, 5)))
    ]
    copies = draw(st.integers(2, 3))
    rails = [draw(st.sampled_from(["vhi", "vlo"])) for _ in range(copies)]
    gated = draw(st.booleans())
    b = NetlistBuilder()
    b.add_supply("vhi", 0.9)
    b.add_supply("vlo", 0.45)
    b.add_supply("gnd", 0.0)
    b.add_input("b", 2)
    b.add_input("in", 3)
    if gated:
        b.add_input("en", 2)
        b.add_internal("a0")
        b.add_device(Polarity.N, 19, "en", "in", "a0")
    a = "a0" if gated else "in"
    for k, rail in enumerate(rails):
        y = f"y{k}"
        if k == copies - 1:
            b.add_output(y, 2)
        else:
            b.add_internal(y)
        names = {"rail": rail, "gnd": "gnd", "a": a, "b": "b", "y": y}
        names.update((f"n{i}", b.add_internal(f"c{k}n{i}")) for i in range(n_internal))
        for polarity, n, *terminals in cell:
            b.add_device(polarity, n, *(names[t] for t in terminals))
        a = y
    nl = b.build("chain")
    rows = draw(st.integers(1, 8))
    columns = {
        net.name: np.array(_levels(draw, net.radix, rows)) * 0.9 / (net.radix - 1)
        for net in nl.inputs
    }
    return nl, columns


@settings(max_examples=100)
@given(_repeated_cell_cases())
def test_batch_matches_reference_on_repeated_cells(case):
    _assert_batch_matches_scalar(*case)


def test_batch_conflict_fixture():
    batch = _assert_batch_matches_scalar(_conflict_fixture(), {"a": np.array([0.0, 0.9])})
    assert batch.conflict.all()


def test_batch_selfgate_reports_nonconvergence():
    batch = _assert_batch_matches_scalar(_selfgate_fixture(), {"a": np.array([0.0, 0.9])})
    assert batch.nonconverged.all()


def _two_clashes_fixture():
    # two disjoint supply shorts: vb-vc (0.45 V against 0.3 V) and va-x-gnd
    # (0.9 V against 0 V); vb is declared first, so its group comes first
    # although "gnd" sorts before "vb"
    b = NetlistBuilder()
    b.add_supply("vb", 0.45)
    b.add_supply("va", 0.9)
    b.add_supply("gnd", 0.0)
    b.add_supply("vc", 0.3)
    b.add_input("a", 2)
    b.add_output("y", 2)
    b.add_internal("x")
    b.add_device(Polarity.N, 37, "va", "vb", "vc")
    b.add_device(Polarity.P, 37, "gnd", "va", "x")
    b.add_device(Polarity.N, 37, "va", "x", "gnd")
    return b.build("twoclash")


def test_two_disjoint_conflicts_keep_their_order():
    nl = _two_clashes_fixture()
    state = solve_dc(nl, {"a": 0.0})
    assert state.conflicts == (
        Conflict(nets=("vb", "vc"), voltages=(0.3, 0.45)),
        Conflict(nets=("gnd", "va", "x"), voltages=(0.0, 0.9)),
    )
    assert state.floating == {"y"}
    batch = _assert_batch_matches_scalar(nl, {"a": np.array([0.0, 0.9])})
    assert batch.conflict.all()


def _shared_supply_fixture():
    # two channel-connected regions that share vdd and gnd: an inverter y,
    # and a node x held high by an always-on pullup that a=1 shorts to gnd
    b = NetlistBuilder()
    b.add_supply("vdd", 0.9)
    b.add_supply("gnd", 0.0)
    b.add_input("a", 2)
    b.add_output("y", 2)
    b.add_internal("x")
    b.add_device(Polarity.P, 19, "a", "vdd", "y")
    b.add_device(Polarity.N, 19, "a", "gnd", "y")
    b.add_device(Polarity.P, 19, "gnd", "vdd", "x")
    b.add_device(Polarity.N, 19, "a", "gnd", "x")
    return b.build("sharedshort")


def test_short_in_one_region_poisons_another_through_shared_supply():
    nl = _shared_supply_fixture()
    plan = compile_netlist(nl).ccr_plan
    assert sorted(len(u.nets) for u in plan.units) == [1, 1]
    batch = _assert_batch_matches_scalar(nl, {"a": np.array([0.0, 0.9, 0.9])})
    y = batch.names.index("y")
    # a=0: x and y are both high through vdd, with no short
    assert batch.values[0, y] == pytest.approx(0.9)
    assert not batch.conflict[0]
    # a=1: the inverter alone would pull y to 0 V, but y joins gnd, which the
    # short in x's region joins to vdd
    assert batch.conflict[1:].all()
    assert np.isnan(batch.values[1:, y]).all()
    assert batch.driven[1:, y].all()


def _floating_gate_fixture():
    # an N pass device puts a onto f only when en is high and a is low (an
    # ideal N switch cannot pass a high level onto an unknown node); f gates
    # an inverter in a second region
    b = NetlistBuilder()
    b.add_supply("vdd", 0.9)
    b.add_supply("gnd", 0.0)
    b.add_input("a", 2)
    b.add_input("en", 2)
    b.add_output("y", 2)
    b.add_internal("f")
    b.add_device(Polarity.N, 19, "en", "a", "f")
    b.add_device(Polarity.P, 19, "f", "vdd", "y")
    b.add_device(Polarity.N, 19, "f", "gnd", "y")
    return b.build("floatgate")


def test_floating_upstream_net_gates_downstream_region():
    nl = _floating_gate_fixture()
    comp = compile_netlist(nl)
    assert [[comp.names[i] for i in u.nets] for u in comp.ccr_plan.units] == [["f"], ["y"]]
    rows = list(itertools.product((0.0, 0.9), repeat=2)) * 2
    columns = {
        "a": np.array([a for a, _ in rows]),
        "en": np.array([en for _, en in rows]),
    }
    batch = _assert_batch_matches_scalar(nl, columns)
    f, y = batch.names.index("f"), batch.names.index("y")
    passing = (columns["en"] == 0.9) & (columns["a"] == 0.0)
    assert (batch.values[passing, y] == 0.9).all()
    assert np.isnan(batch.values[~passing, f]).all()
    assert np.isnan(batch.values[~passing, y]).all()
    assert not batch.driven[~passing, y].any()
    assert not batch.conflict.any()


def test_step_windows_match_reference_with_retention():
    from mvladders.adders import AdderVariant, build_full_adder

    mux = build(GateKind("Mux3Ternary"))
    fa = build_full_adder(AdderVariant.TFA2)
    cases = [
        (mux, None, [
            {"d0": [0, 0], "d1": [2, 2], "d2": [1, 1], "s": [0, 1]},
            {"d0": [1, 1, 1, 2], "d1": [0, 2, 2, 2], "d2": [2, 2, 0, 0], "s": [2, 1, 0, 2]},
            {"d0": [2], "d1": [1], "d2": [0], "s": [1]},
        ]),
        (fa.netlist, fa.input_maps(), [
            {"A": [0, 2, 1, 2], "B": [1, 1, 2, 0], "Cin": [0, 1, 1, 0]},
            {"A": [0, 1, 2, 1, 0], "B": [0] * 5, "Cin": [0] * 5},
            {"A": [2, 2], "B": [1, 1], "Cin": [0, 1]},
        ]),
        # f and y float once en falls, and keep their voltages
        (_floating_gate_fixture(), None, [
            {"a": [0, 0, 0, 1], "en": [1, 0, 0, 1]},
            {"a": [1, 0, 1, 1], "en": [0, 1, 0, 0]},
        ]),
    ]
    retained = sum(_assert_windows_match_reference(*case) for case in cases)
    assert retained  # the cases exercise charge retention


def _reference_maps(nl):
    return {n.name: VoltageMap(nl.max_supply_v(), n.radix) for n in nl.inputs}


def _assert_windows_match_reference(nl, maps, windows) -> int:
    """step_windows agrees with reference_step on every window: values with
    retained charge, floating nets, conflicts, changes, and the stepped
    inputs, which are the inputs that moved.  Returns how many retained
    values the windows hold."""
    traces = list(step_windows(nl, windows, maps))
    assert len(traces) == len(windows)
    retained = 0
    for waves, trace in zip(windows, traces):
        states, changes, stepped = reference_step(nl, waves, maps or _reference_maps(nl))
        got = _states(trace)
        assert [s.voltages for s in got] == [s.voltages for s in states]
        assert [s.floating for s in got] == [s.floating for s in states]
        assert [s.conflicts for s in got] == [s.conflicts for s in states]
        assert list(_changes(trace)) == changes
        inputs = [net.name for net in nl.inputs]
        assert [
            frozenset(n for n in inputs if trace.moved[k, trace.comp.index[n]])
            for k in range(len(trace))
        ] == stepped
        retained += sum(n in s.voltages for s in got for n in s.floating)
    return retained


@st.composite
def _random_windows(draw):
    """A random netlist and 2-3 waveform windows of 1-6 steps each over its
    inputs' digit levels."""
    nl = draw(_random_netlists())
    windows = []
    for _ in range(draw(st.integers(2, 3))):
        steps = draw(st.integers(1, 6))
        windows.append({net.name: _levels(draw, net.radix, steps) for net in nl.inputs})
    return nl, windows


@settings(max_examples=100)
@given(_random_windows())
def test_step_windows_and_text_round_trip_on_random_netlists(case):
    nl, windows = case
    # parse -> serialize -> parse keeps every net, port and device
    parsed = parse(serialize(nl))
    again = parse(serialize(parsed))
    for other in (parsed, again):
        assert other.nets == nl.nets
        assert other.ports == nl.ports
        assert Counter(other.devices) == Counter(nl.devices)
    assert serialize(again) == serialize(parsed) == serialize(nl)

    maps = _reference_maps(nl)
    stuck = [
        (w, k)
        for w, waves in enumerate(windows)
        for k in range(len(next(iter(waves.values()))))
        if reference_solve(nl, {n: maps[n].volts(waves[n][k]) for n in waves}) is None
    ]
    if stuck:
        with pytest.raises(NonConvergenceError, match=rf"^window {stuck[0][0]}, step {stuck[0][1]}: "):
            list(step_windows(nl, windows, maps))
    else:
        _assert_windows_match_reference(nl, maps, windows)


def test_nonconverging_step_is_named():
    nl = _selfgate_fixture(pullup_gate="a")
    assert _states(next(step_windows(nl, [{"a": [1, 1]}])))[1].floating == {"y"}
    with pytest.raises(NonConvergenceError, match=r"^step 1: 'selfgate' did not reach"):
        step_windows(nl, [{"a": [1, 0]}])
    with pytest.raises(NonConvergenceError, match=r"^window 1, step 2: "):
        step_windows(nl, [{"a": [1]}, {"a": [1, 1, 0]}, {"a": [0]}])


def test_batch_handles_zero_rows():
    batch = solve_dc_batch(build(GateKind("Inverter")), {"a": np.array([])})
    assert batch.values.shape == (0, len(batch.names))
    assert not batch.conflict.any() and not batch.nonconverged.any()


def test_ccr_plan_orders_dependencies_first():
    from mvladders.adders import AdderVariant, CpaConfig, build_cpa
    from mvladders.logic import CarrySwing

    cpa = build_cpa(CpaConfig(AdderVariant.TFA2, 3, CarrySwing.REDUCED))
    comp = compile_netlist(cpa.netlist)
    sources = set(comp.supply_v) | set(comp.input_idx)
    solved: set[int] = set()
    for unit in comp.ccr_plan.units:
        assert not solved & set(unit.nets)
        assert all(k in solved or k in sources for k in unit.keys)
        solved |= set(unit.nets.tolist())
    assert solved == set(comp.whole.nets.tolist())


def _first_seen_reference(keys):
    # a dict of keys: each key's class, classes numbered in order of their
    # first index, and the first index of each class
    first: dict = {}
    for row, key in enumerate(keys):
        first.setdefault(key, row)
    order = {key: i for i, key in enumerate(first)}
    return [order[key] for key in keys], list(first.values())


def _reference_distinct_rows(columns, n_rows):
    # the first row of each distinct tuple of ranks, and each row's tuple
    tuples = [tuple(int(rank[row]) for rank, _ in columns) for row in range(n_rows)]
    inverse, first = _first_seen_reference(tuples)
    return first, inverse


@st.composite
def _ranked_columns(draw):
    n_rows = draw(st.integers(0, 40))
    classes = draw(st.lists(st.sampled_from([1, 2, 3, 5, 64, 1 << 20, 1 << 40]), max_size=6))
    columns = []
    for c in classes:
        ranks = draw(st.lists(st.integers(0, c - 1), min_size=n_rows, max_size=n_rows))
        columns.append((np.asarray(ranks, dtype=np.intp), c))
    return columns, n_rows


# 2^96 codes without a re-rank: past int64
_WIDE = [(np.array([5, 0, 5, 2]) << 28, 1 << 32)] * 3
# uint8 ranks, as the solver keeps them: a uint8 code times 255 would wrap
# and reorder the rows
_NARROW = [(np.array([3, 0, 2, 1], dtype=np.uint8), 255)] * 7 + [(np.zeros(4, np.uint8), 255)]


@settings(max_examples=150)
@given(_ranked_columns())
@example(([], 5))
@example(([(np.array([3]), 7)], 1))
@example(([(np.array([1, 0, 1, 1, 0]), 2), (np.array([1, 1, 0, 1, 1]), 2)], 5))
@example((_WIDE, 4))
@example((_NARROW, 4))
def test_distinct_rows_match_plain_reference(case):
    columns, n_rows = case
    expected = _reference_distinct_rows(columns, n_rows)
    # rows compared as tuples, and rows coded in mixed radix
    for few_rows in (solver._FEW_ROWS, 0):
        with mock.patch.object(solver, "_FEW_ROWS", few_rows):
            first, inverse = _distinct_rows(columns, n_rows)
        assert (first.tolist(), inverse.tolist()) == expected, few_rows


_NAN2 = np.array([0x7FF8000000000002], dtype=np.uint64).view(np.float64)[0]


@settings(max_examples=100)
@given(
    st.lists(st.sampled_from([0.0, -0.0, 0.45, 0.9, math.nan, _NAN2, math.inf]) | st.floats()),
)
def test_ranks_match_plain_reference(values):
    # -0.0 and 0.0 are one class, and so is every NaN; classes are numbered
    # in order of their first index, by a dict and by a binary search
    keys = [None if math.isnan(v) else v for v in values]
    inverse, first = _first_seen_reference(keys)
    for few_rows in (solver._FEW_ROWS, 0):
        with mock.patch.object(solver, "_FEW_ROWS", few_rows):
            got_first, got_inverse = solver._rank(np.array(values, dtype=np.float64))
        assert (got_first.tolist(), got_inverse.tolist()) == (first, inverse), few_rows


def _view_rows(view):
    """Each row's class in a view, and the first row of each class."""
    return view.cmap[view.part.inverse].tolist(), view.part.first[view.firsts].tolist()


@st.composite
def _unit_chains(draw):
    # input columns, then units that each key on some of the views so far
    # and hand on views of their own nets: a function of the unit's classes
    n_rows = draw(st.integers(1, 90))
    levels = st.sampled_from([0.0, -0.0, 0.45, 0.9, math.nan])
    inputs = [
        draw(st.lists(levels, min_size=n_rows, max_size=n_rows))
        for _ in range(draw(st.integers(1, 3)))
    ]
    units = []
    for _ in range(draw(st.integers(1, 5))):
        picks = draw(st.lists(st.integers(0, 99), min_size=1, max_size=5))
        nets = draw(st.lists(st.lists(st.integers(0, 2), min_size=8, max_size=8), max_size=3))
        units.append((picks, nets))
    return n_rows, inputs, units


@settings(max_examples=150)
@given(_unit_chains())
def test_unit_views_match_plain_reference(chain):
    # keys on one partition, on several, and on a partition finer than
    # the others give the classes of the rows' key tuples, and the first
    # row of each
    n_rows, inputs, units = chain
    for few_rows in (solver._FEW_ROWS, 0):
        with mock.patch.object(solver, "_FEW_ROWS", few_rows):
            views = [solver._View(solver._Partition(*solver._rank(np.array(c)))) for c in inputs]
            for picks, nets in units:
                keys = [views[i % len(views)] for i in picks]
                keys = [key for key in keys if len(key.firsts) > 1]
                if not keys:
                    continue
                view = solver._unit_view(keys, n_rows)
                tuples = list(zip(*(_view_rows(key)[0] for key in keys)))
                assert _view_rows(view) == _first_seen_reference(tuples)
                classes = _view_rows(view)[0]
                for net in nets:
                    values = np.array([net[c % 8] for c in range(len(view.firsts))], dtype=float)
                    net_firsts, net_cmap = solver._rank(values)
                    firsts = view.firsts[net_firsts]
                    own = solver._View(view.part, net_cmap.take(view.cmap), firsts)
                    expected = _first_seen_reference([net[c % 8] for c in classes])
                    assert _view_rows(own) == expected
                    views.append(own)


def _batch_digest(batch) -> str:
    digest = hashlib.sha256()
    for array in (batch.values, batch.driven, batch.conflict, batch.nonconverged):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _representative_rows_batch():
    # y and w pass a and b on unchanged, so they keep the bits of the row
    # that stands for their tuple: 0.0 and -0.0 share one rank, and so do
    # the two NaN payloads; y also gates an inverter
    nl = parse(
        "SUPPLY vdd 0.9\nSUPPLY gnd 0\nINPUT a 2\nINPUT b 2\nOUTPUT z 2\nNET y\nNET w\n"
        "DEVICE N n=19 g=vdd s=a d=y\nDEVICE N n=19 g=vdd s=b d=w\n"
        "DEVICE P n=19 g=y s=vdd d=z\nDEVICE N n=19 g=y s=gnd d=z\n"
    )
    nan1, nan2 = np.array([0x7FF8000000000001, 0x7FF8000000000002], dtype=np.uint64).view(np.float64)
    a = np.array([-0.0, 0.0, nan1, nan2, -0.0, 0.9, nan2, 0.0, nan1])
    b = np.array([0.0, nan2, -0.0, 0.0, nan1, -0.0, 0.9, nan1, -0.0])
    return solve_dc_batch(nl, {"a": a, "b": b})


def _all_columns(design) -> dict[str, np.ndarray]:
    """The input columns of every vector of the design's exhaustive
    verification."""
    from mvladders.adders import _exhaustive_columns, _exhaustive_operands

    vectors = range(2 * (design.radix**design.digits) ** 2)
    return _exhaustive_columns(design, _exhaustive_operands(design, vectors))


def test_batch_results_match_recorded_digests(single_stage_designs):
    # the bits of every array of the full batch on each design's exhaustive
    # verification columns, and the representative row chosen among equal
    # ranks
    from mvladders.adders import build_cpa
    from mvladders.cli import _COMPARE_CONFIGS

    digests = {}
    for design in [*single_stage_designs, *map(build_cpa, _COMPARE_CONFIGS)]:
        columns = _all_columns(design)
        digests[design.label] = _batch_digest(solve_dc_batch(design.compiled, columns))
    digests["representative rows"] = _batch_digest(_representative_rows_batch())
    recorded = json.loads((Path(__file__).parent / "golden" / "solver_digests.json").read_text())
    assert digests == recorded


def _bits(array) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def _assert_requested_nets_match_full_batch(comp, columns, nets):
    """solve_dc_batch asked for ``nets`` has the full batch's bits on those
    columns, and its conflict and non-convergence."""
    full = solve_dc_batch(comp, columns)
    part = solve_dc_batch(comp, columns, nets=nets)
    picked = [comp.index[name] for name in nets]
    assert part.names == tuple(nets)
    assert part.values.shape == (len(full.conflict), len(nets))
    assert _bits(part.values) == _bits(full.values[:, picked])
    assert _bits(part.driven) == _bits(full.driven[:, picked])
    assert _bits(part.conflict) == _bits(full.conflict)
    assert _bits(part.nonconverged) == _bits(full.nonconverged)
    return full


def test_requested_nets_have_the_full_batch_bits(single_stage_designs):
    from mvladders.adders import build_cpa
    from mvladders.cli import _COMPARE_CONFIGS

    for design in [*single_stage_designs, *map(build_cpa, _COMPARE_CONFIGS)]:
        columns = _all_columns(design)
        outputs = [*design.s_ports, design.cout_port]
        _assert_requested_nets_match_full_batch(design.compiled, columns, outputs)


def _gate_only_fixture():
    # g gates y's pulldown but nothing drives it; a=1 turns on a vdd-gnd
    # short, so those rows take the whole-netlist re-solve; x, which y's
    # pullup takes as its gate, is solved in a unit of its own
    return parse(
        "SUPPLY vdd 0.9\nSUPPLY gnd 0\nINPUT a 2\nOUTPUT y 2\nNET g\nNET x\n"
        "DEVICE N n=19 g=a s=vdd d=gnd\nDEVICE P n=19 g=a s=vdd d=x\n"
        "DEVICE N n=19 g=a s=gnd d=x\nDEVICE P n=19 g=x s=vdd d=y\n"
        "DEVICE N n=19 g=g s=gnd d=y\n"
    )


@st.composite
def _requested_net_cases(draw):
    nl, columns = draw(_random_cases())
    nets = draw(st.lists(st.sampled_from(list(nl.nets)), unique=True))
    return nl, columns, nets


@settings(max_examples=150)
@given(_requested_net_cases())
@example((_gate_only_fixture(), {"a": np.array([0.0, 0.9, 0.0])}, ["y", "g"]))
@example((_gate_only_fixture(), {"a": np.array([0.9, 0.0])}, []))
# sources only: an input and a supply, which no unit owns
@example((build(GateKind("Inverter")), {"a": np.array([0.0, 0.9, 0.45])}, ["a", "gnd"]))
@example((build(GateKind("Inverter")), {"a": np.array([0.9, 0.0])}, ["vdd_900mv", "a", "a"]))
def test_requested_nets_match_full_batch_on_random_netlists(case):
    nl, columns, nets = case
    _assert_requested_nets_match_full_batch(compile_netlist(nl), columns, nets)


def test_gate_only_fixture_takes_both_paths():
    comp = compile_netlist(_gate_only_fixture())
    g = comp.index["g"]
    assert g not in comp.ccr_plan.unit_of and not comp.ccr_plan.is_source[g]
    full = _assert_requested_nets_match_full_batch(comp, {"a": np.array([0.0, 0.9])}, ["y", "g"])
    assert full.conflict.tolist() == [False, True]
    assert np.isnan(full.values[:, g]).all()


def _chunked(comp, columns, cuts, nets=None):
    """One BatchResult from a :func:`solve_dc_batch` call per chunk of the
    rows of ``columns`` split at ``cuts``."""
    bounds = [0, *cuts, len(next(iter(columns.values())))]
    parts = [
        solve_dc_batch(comp, {name: col[a:b] for name, col in columns.items()}, nets=nets)
        for a, b in zip(bounds, bounds[1:])
    ]
    return BatchResult(
        names=parts[0].names,
        values=np.concatenate([p.values for p in parts]),
        driven=np.concatenate([p.driven for p in parts]),
        conflict=np.concatenate([p.conflict for p in parts]),
        nonconverged=np.concatenate([p.nonconverged for p in parts]),
    )


def test_row_chunks_reproduce_recorded_digests(single_stage_designs):
    # the recorded one-call digests, from one call per row chunk at
    # several chunk sizes: a row's bits do not depend on the other rows
    from mvladders.adders import build_cpa
    from mvladders.cli import _COMPARE_CONFIGS

    recorded = json.loads((Path(__file__).parent / "golden" / "solver_digests.json").read_text())
    for design in [*single_stage_designs, *map(build_cpa, _COMPARE_CONFIGS)]:
        columns = _all_columns(design)
        n_vec = len(next(iter(columns.values())))
        for size in (5, 3000, 5000):
            if not 1 < -(-n_vec // size) <= 10:
                continue
            cuts = list(range(size, n_vec, size))
            batch = _chunked(design.compiled, columns, cuts)
            assert _batch_digest(batch) == recorded[design.label], (design.label, size)


@st.composite
def _split_cases(draw):
    nl, columns = draw(st.one_of(_random_cases(), _repeated_cell_cases()))
    n_vec = len(next(iter(columns.values()))) if columns else 1
    cuts = sorted(draw(st.sets(st.integers(1, max(n_vec - 1, 1)), max_size=3)) - {n_vec})
    nets = draw(st.none() | st.lists(st.sampled_from(list(nl.nets)), unique=True))
    return nl, columns, cuts, nets


@settings(max_examples=75)
@given(_split_cases())
def test_row_chunks_match_one_call_on_random_netlists(case):
    nl, columns, cuts, nets = case
    comp = compile_netlist(nl)
    whole = solve_dc_batch(comp, columns, nets=nets)
    chunked = _chunked(comp, columns, cuts, nets)
    assert chunked.names == whole.names
    for field in ("values", "driven", "conflict", "nonconverged"):
        assert _bits(getattr(chunked, field)) == _bits(getattr(whole, field)), field


def test_unknown_requested_net_is_refused():
    with pytest.raises(SolverError, match="unknown nets requested: \\['nope'\\]"):
        solve_dc_batch(build(GateKind("Inverter")), {"a": np.array([0.0])}, nets=["y", "nope"])
