import hashlib
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mvladders
from mvladders.adders import AdderVariant, CpaConfig, build_cpa, build_full_adder
from mvladders.analysis import (
    AnalysisError,
    TimingModel,
    area,
    _load_caps,
    _walk,
    bench,
    dynamic_power,
    path_delay,
    pdp,
    power_waveforms,
    sweep_load,
)
from mvladders.cli import _COMPARE_CONFIGS
from mvladders.device import Polarity, threshold_voltage_v
from mvladders.gates import GateKind, build, build_tgate_chain
from mvladders.logic import CarrySwing
from mvladders.netlist import NetlistBuilder, parse
from mvladders.solver import compile_netlist, step_windows
from elmore_reference import reference_capacitance, reference_settle


def scaled_model(model: TimingModel, rho: float = 1.0, caps: float = 1.0) -> TimingModel:
    return replace(
        model,
        rho_ohm_v=model.rho_ohm_v * rho,
        c_gate_f=model.c_gate_f * caps,
        c_diff_f=model.c_diff_f * caps,
    )


def test_default_calibration():
    model = TimingModel.default()
    # the reference inverter (n=19 pair, 0.9 V, 2 fF load) settles in 10 ps
    inv = build(GateKind("Inverter"))
    (trace,) = step_windows(inv, [{"a": [0, 1]}])
    assert path_delay(trace, model, "a", "y", cl_ff=2.0) == pytest.approx(10e-12, rel=1e-6)


def test_area_examples(designs_by_label):
    inv = build(GateKind("Inverter", n_chirality=10, p_chirality=10))
    assert area(inv) == pytest.approx(1.566, rel=0.001)
    tfa1 = designs_by_label["TFA1[reduced,0.9V]"].netlist
    tfa2_red = designs_by_label["TFA2[reduced,0.9V]"].netlist
    tfa1_full = designs_by_label["TFA1[full,0.9V]"].netlist
    tfa2_full = designs_by_label["TFA2[full,0.9V]"].netlist
    assert area(tfa1) == pytest.approx(72.0, rel=0.15)
    assert area(tfa1_full) == pytest.approx(73.0, rel=0.15)
    assert area(tfa2_red) == pytest.approx(111.0, rel=0.15)
    assert area(tfa2_full) == pytest.approx(112.0, rel=0.15)


def test_tgate_chain_growth(model):
    delays = {}
    for restored in (False, True):
        for k in (4, 8):
            nl = build_tgate_chain(k, restored=restored)
            (trace,) = step_windows(nl, [{"a": [0, 1]}])
            delays[(restored, k)] = path_delay(trace, model, "a", "y", cl_ff=0.0)
    assert delays[(False, 8)] / delays[(False, 4)] > 2.5
    assert delays[(True, 8)] / delays[(True, 4)] == pytest.approx(2.0, rel=0.1)


def test_restoration_beats_chain(model):
    for k in (4, 6, 8):
        plain = build_tgate_chain(k, restored=False)
        restored = build_tgate_chain(k, restored=True)
        d_plain = path_delay(next(step_windows(plain, [{"a": [0, 1]}])), model, "a", "y", 0.0)
        d_rest = path_delay(next(step_windows(restored, [{"a": [0, 1]}])), model, "a", "y", 0.0)
        if k >= 8:
            assert d_rest < d_plain


def test_rho_scale_law(model, designs_by_label):
    fa = designs_by_label["TFA2[full,0.9V]"]
    base = bench(fa, model, 2.0).delays
    scaled = bench(fa, scaled_model(model, rho=3.0), 2.0).delays
    for path in ("in_cout", "in_sum", "cin_cout", "cin_sum"):
        assert getattr(scaled, path) == pytest.approx(3.0 * getattr(base, path))
    # power is independent of rho
    waves = power_waveforms(fa)
    (trace,) = step_windows(fa.netlist, [waves], fa.input_maps())
    span = (len(trace) - 1) * 1e-9
    assert dynamic_power(trace, model, span) == pytest.approx(
        dynamic_power(trace, scaled_model(model, rho=3.0), span)
    )


def test_cap_scale_law(model, designs_by_label):
    fa = designs_by_label["TFA2[full,0.9V]"]
    s = 2.0
    base = bench(fa, model, 2.0).delays
    scaled = bench(fa, scaled_model(model, caps=s), 2.0 * s).delays
    for path in ("in_cout", "in_sum", "cin_cout", "cin_sum"):
        assert getattr(scaled, path) == pytest.approx(s * getattr(base, path))
    waves = power_waveforms(fa)
    (trace,) = step_windows(fa.netlist, [waves], fa.input_maps())
    span = (len(trace) - 1) * 1e-9
    loads = {"Sum": 2.0, "Cout": 2.0}
    loads_scaled = {"Sum": 2.0 * s, "Cout": 2.0 * s}
    e1 = dynamic_power(trace, model, span, loads)
    e2 = dynamic_power(trace, scaled_model(model, caps=s), span, loads_scaled)
    assert e2 == pytest.approx(s * e1)


def test_supply_quadratic_power_law(model):
    hi = build_full_adder(AdderVariant.BFA1_14T, CarrySwing.FULL, 0.9)
    lo = build_full_adder(AdderVariant.BFA1_14T, CarrySwing.FULL, 0.45)
    p = {}
    for fa in (hi, lo):
        waves = power_waveforms(fa)
        (trace,) = step_windows(fa.netlist, [waves], fa.input_maps())
        p[fa.vdd] = dynamic_power(
            trace, model, (len(trace) - 1) * 1e-9, {"Sum": 2.0, "Cout": 2.0}
        )
    assert p[0.45] / p[0.9] == pytest.approx(0.25, abs=1e-12)


def test_power_monotone_in_load(model, designs_by_label):
    fa = designs_by_label["QFA2[full,0.9V]"]
    sweep = sweep_load(fa, model, loads_ff=(0.25, 4.0))
    assert sweep.rows[1].power_w > sweep.rows[0].power_w


def test_delays_monotone_in_load(model, single_stage_designs):
    for fa in single_stage_designs:
        lo = bench(fa, model, 0.25).delays
        hi = bench(fa, model, 4.0).delays
        for path in ("in_cout", "in_sum", "cin_cout", "cin_sum"):
            assert getattr(hi, path) > getattr(lo, path), (fa.label, path)


def test_ternary_extreme_transitions_never_set_maximum(model, designs_by_label):
    """0<->2 input steps are faster than the adjacent-step worst case."""
    for label in (
        "TFA1[full,0.9V]",
        "TFA1[reduced,0.9V]",
        "TFA2[full,0.9V]",
        "TFA2[reduced,0.9V]",
    ):
        fa = designs_by_label[label]
        maps = fa.input_maps()
        worst = bench(fa, model, 2.0).delays
        for pair in ((0, 2), (2, 0)):
            for b in range(3):
                for cin in (0, 1):
                    waves = {"A": list(pair), "B": [b, b], "Cin": [cin, cin]}
                    (trace,) = step_windows(fa.netlist, [waves], maps)
                    for target, bound in (("Cout", worst.in_cout), ("Sum", worst.in_sum)):
                        d = path_delay(trace, model, "A", target, cl_ff=2.0)
                        assert d <= bound + 1e-18


def test_sweep_fits_and_slopes(model, designs_by_label):
    for label in ("TFA2[full,0.9V]", "TFA2[reduced,0.9V]", "QFA2[full,0.9V]"):
        sweep = sweep_load(designs_by_label[label], model)
        for path, (slope, _, r2) in sweep.fits.items():
            assert r2 > 0.95, (label, path, r2)
        assert sweep.fits["cin_sum"][0] > sweep.fits["cin_cout"][0]
        assert all(r.delays.in_sum > 0 for r in sweep.rows)


def test_carry_swing_speedup_band(model, designs_by_label):
    pairs = [
        ("TFA1[reduced,0.9V]", "TFA1[full,0.9V]"),
        ("TFA2[reduced,0.9V]", "TFA2[full,0.9V]"),
        ("QFA1[reduced,0.9V]", "QFA2[full,0.9V]"),
    ]
    for red_label, full_label in pairs:
        red = bench(designs_by_label[red_label], model, 2.0).delays
        full = bench(designs_by_label[full_label], model, 2.0).delays
        ratio = red.cin_cout / full.cin_cout
        assert 1.4 <= ratio <= 3.0, (red_label, ratio)


def test_binary_low_vdd_slower(model, designs_by_label):
    hi = bench(designs_by_label["BFA1_14T[full,0.9V]"], model, 2.0).delays
    lo = bench(designs_by_label["BFA1_14T[full,0.45V]"], model, 2.0).delays
    for path in ("in_cout", "in_sum", "cin_cout", "cin_sum"):
        assert getattr(lo, path) > getattr(hi, path)


def test_path_delay_requires_transition(model):
    inv = build(GateKind("Inverter"))
    (trace,) = step_windows(inv, [{"a": [0, 0]}])
    with pytest.raises(AnalysisError):
        path_delay(trace, model, "a", "y", cl_ff=1.0)


def test_analysis_refuses_conflicts(model):
    from mvladders.device import Polarity
    from mvladders.netlist import NetlistBuilder

    b = NetlistBuilder()
    b.add_supply("vdd", 0.9)
    b.add_supply("gnd", 0.0)
    b.add_input("a", 2)
    b.add_output("y", 2)
    b.add_device(Polarity.N, 37, "vdd", "gnd", "vdd")
    b.add_device(Polarity.P, 19, "a", "vdd", "y")
    b.add_device(Polarity.N, 19, "a", "gnd", "y")
    nl = b.build("clashinv")
    (trace,) = step_windows(nl, [{"a": [0, 1]}])
    with pytest.raises(AnalysisError, match="conflicted state"):
        path_delay(trace, model, "a", "y", cl_ff=1.0)


def test_series_transmission_gates_match_closed_form_elmore(model):
    # a -> TG1 -> n1 -> TG2 -> y, both enabled.  Once a is high only the P
    # devices conduct (the N ones have no gate overdrive at 0.9 V), and TG2's
    # thinner tube makes R2 differ from R1, so the shared-path weighting shows.
    nl = parse(
        "SUPPLY vdd 0.9\nSUPPLY gnd 0\nINPUT a 2\nOUTPUT y 2\nNET n1\n"
        "DEVICE N n=19 g=vdd s=a d=n1\nDEVICE P n=19 g=gnd s=a d=n1\n"
        "DEVICE N n=19 g=vdd s=n1 d=y\nDEVICE P n=10 g=gnd s=n1 d=y\n"
    )
    (trace,) = step_windows(nl, [{"a": [0, 1]}])
    r1 = model.rho_ohm_v / (0.9 - threshold_voltage_v(19))
    r2 = model.rho_ohm_v / (0.9 - threshold_voltage_v(10))
    c1 = 4 * model.c_diff_f  # n1: four channel terminals
    c2 = 2 * model.c_diff_f + 3e-15  # y: two channel terminals and the load
    delay = path_delay(trace, model, "a", "y", cl_ff=3.0)
    assert delay == pytest.approx(r1 * (c1 + c2) + r2 * c2, rel=1e-12)


def test_bench_does_not_depend_on_hash_seed():
    # Elmore terms and path ties follow net-index order, never set order
    code = (
        "from mvladders.adders import AdderVariant, CpaConfig, build_cpa\n"
        "from mvladders.analysis import TimingModel, bench\n"
        "from mvladders.logic import CarrySwing\n"
        "cpa = build_cpa(CpaConfig(AdderVariant.QFA2, 3, CarrySwing.FULL))\n"
        "row = bench(cpa, TimingModel.default(), 2.0)\n"
        "print(repr((*row.delays.as_dict().values(), row.power_w)))\n"
    )
    src = str(Path(mvladders.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = [
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("1", "3")
    ]
    assert outs[0] == outs[1] != ""


def test_load_batching_is_bit_exact(model, single_stage_designs):
    # every load column of one batched pricing pass has the bits of a
    # one-load pass: the Elmore sums must not depend on the number of loads
    cpas = [
        build_cpa(CpaConfig(variant, 2, CarrySwing.FULL))
        for variant in (AdderVariant.BFA1_14T, AdderVariant.TFA2, AdderVariant.QFA2)
    ]
    loads = (0.25, 2.0, 4.0)
    for design in (*single_stage_designs, *cpas):
        rows = sweep_load(design, model, loads).rows
        assert len(rows) == len(loads)
        for load, row in zip(loads, rows):
            assert row == bench(design, model, load), (row.design, load)


def test_bench_steps_power_in_the_delay_batch(monkeypatch, model, single_stage_designs):
    # bench solves the delay windows and the power waveform in one batch;
    # the power trace it prices has the bits of the waveform stepped alone
    from mvladders import analysis, solver

    batches, traces = [], []
    solve, power = solver.solve_dc_batch, analysis.dynamic_power

    def counted_solve(*args):
        batches.append(args)
        return solve(*args)

    def recorded_power(trace, *args):
        traces.append(trace)
        return power(trace, *args)

    monkeypatch.setattr(solver, "solve_dc_batch", counted_solve)
    monkeypatch.setattr(analysis, "dynamic_power", recorded_power)
    for design in (*single_stage_designs, build_cpa(_COMPARE_CONFIGS[-1])):
        batches.clear()
        traces.clear()
        bench(design, model, 2.0)
        assert len(batches) == 1, design.label
        (merged,) = traces
        (alone,) = step_windows(design.netlist, [power_waveforms(design)], design.input_maps())
        assert merged.values.tobytes() == alone.values.tobytes(), design.label
        assert merged.driven.tobytes() == alone.driven.tobytes(), design.label
        assert merged.moved.tobytes() == alone.moved.tobytes(), design.label
        assert merged.conflicts == alone.conflicts, design.label


def test_bench_reads_each_port_level_once(monkeypatch, model):
    # step_windows builds each input port's level table once per call, so a
    # bench converts at most ports x radix digits to volts
    from mvladders import logic

    calls = []
    check = logic.check_digit

    def counted(radix, digit):
        calls.append(digit)
        return check(radix, digit)

    cpa = build_cpa(CpaConfig(AdderVariant.TFA2, 4, CarrySwing.FULL))
    monkeypatch.setattr(logic, "check_digit", counted)
    bench(cpa, model, 2.0)
    assert 0 < len(calls) <= len(cpa.input_maps()) * cpa.radix


@pytest.mark.parametrize(
    "variant, swing",
    [
        (AdderVariant.BFA1_14T, CarrySwing.FULL),
        (AdderVariant.TFA2, CarrySwing.FULL),
        (AdderVariant.TFA2, CarrySwing.REDUCED),
        (AdderVariant.QFA2, CarrySwing.FULL),
        (AdderVariant.QFA1, CarrySwing.REDUCED),
    ],
    ids=lambda v: v.value,
)
def test_carry_chain_delay_is_linear_in_width(model, variant, swing):
    # the restoring carry inverter keeps the Cin -> Cout delay linear in the
    # digit count: from 2 digits on, every stage adds the same delay, up to
    # rounding.  A 1-digit CPA's only stage drives no next stage; for QFA2
    # its delay at 2 fF lies 2.97 ps above the line through the wider CPAs,
    # which puts r^2 at 0.99975 over 1 to 8 digits (1.0 from 2 digits on)
    widths = np.arange(1, 9)
    delays = np.array([
        bench(build_cpa(CpaConfig(variant, int(n), swing)), model, 2.0).delays.cin_cout
        for n in widths
    ])
    steps = np.diff(delays)
    assert steps[1:] == pytest.approx(np.full(len(steps) - 1, steps[1]), rel=1e-9)
    slope, intercept = np.polyfit(widths, delays, 1)
    residual = delays - (slope * widths + intercept)
    r2 = 1.0 - (residual**2).sum() / ((delays - delays.mean()) ** 2).sum()
    assert r2 >= 0.9997
    assert 16e-12 < slope < 68e-12


@pytest.mark.parametrize("load", [-5.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "entry",
    [
        "bench",
        "sweep_load",
        "path_delay cl_ff",
        "dynamic_power",
        "_load_caps",
    ],
)
def test_bad_load_is_refused(model, entry, load):
    fa = build_full_adder(AdderVariant.BFA1_14T)
    (trace,) = step_windows(build(GateKind("Inverter")), [{"a": [0, 1]}])
    call = {
        "bench": lambda: bench(fa, model, load),
        "sweep_load": lambda: sweep_load(fa, model, (1.0, load)),
        "path_delay cl_ff": lambda: path_delay(trace, model, "a", "y", cl_ff=load),
        "dynamic_power": lambda: dynamic_power(trace, model, 1e-9, {"y": load}),
        # the bad load sits in the second column: every column is checked
        "_load_caps": lambda: _load_caps(fa.compiled, model, [{"Cout": 1.0}, {"Cout": load}]),
    }[entry]
    with pytest.raises(AnalysisError, match=f"got {load:g}$"):
        call()


@pytest.mark.parametrize("entry", ["dynamic_power", "_load_caps"])
def test_load_on_unknown_net_is_refused(model, entry):
    (trace,) = step_windows(build(GateKind("Inverter")), [{"a": [0, 1]}])
    call = {
        "dynamic_power": lambda: dynamic_power(trace, model, 1e-9, {"nope": 1.0}),
        # the unknown net sits in the second column: every column is checked
        "_load_caps": lambda: _load_caps(trace.comp, model, [{"y": 1.0}, {"nope": 1.0}]),
    }[entry]
    with pytest.raises(AnalysisError, match=r"^load on unknown net 'nope'$"):
        call()


@pytest.mark.parametrize(
    "variant",
    [AdderVariant.BFA1_14T, AdderVariant.TFA1, AdderVariant.QFA2, AdderVariant.BFA3_MUX],
)
def test_load_caps_columns_have_the_bits_of_one_column_calls(model, variant):
    # the base capacitances are computed once per call and each column adds
    # its own loads, so a column's bits do not depend on the other columns
    comp = build_full_adder(variant).compiled
    outputs = [n.name for n in comp.netlist.outputs]
    load_maps = [{}, *({o: cl for o in outputs} for cl in (0.25, 2.0, 4.0)), {outputs[0]: 3.0}]
    caps = _load_caps(comp, model, load_maps)
    assert caps.shape == (comp.n_nets, len(load_maps))
    for col, loads in enumerate(load_maps):
        (alone,) = _load_caps(comp, model, [loads]).T
        assert caps[:, col].tobytes() == alone.tobytes()
    # a column's loads land on their own rows only
    for col, loads in enumerate(load_maps):
        moved = caps[:, col] != caps[:, 0]
        assert sorted(np.array(comp.names)[moved].tolist()) == sorted(
            n for n, ff in loads.items() if ff
        )


@pytest.mark.parametrize("load", [1e200, 1e308])
@pytest.mark.parametrize("entry", ["bench", "sweep_load"])
def test_overflowing_figure_is_refused(model, entry, load):
    # every load is finite, but power * delay overflows to inf
    fa = build_full_adder(AdderVariant.TFA2)
    call = {
        "bench": lambda: bench(fa, model, load),
        "sweep_load": lambda: sweep_load(fa, model, (1.0, load)),
    }[entry]
    message = rf"^pdp_j of TFA2\[full,0\.9V\] at {re.escape(f'{load:g}')} fF is not finite$"
    with pytest.raises(AnalysisError, match=message):
        call()


@pytest.mark.parametrize("period", [math.nan, math.inf])
def test_non_finite_period_is_refused(model, period):
    (trace,) = step_windows(build(GateKind("Inverter")), [{"a": [0, 1]}])
    with pytest.raises(AnalysisError, match=f"period .* got {period:g}$"):
        dynamic_power(trace, model, period)


@pytest.mark.parametrize(
    "params",
    [
        {"rho_ohm_v": math.nan},
        {"rho_ohm_v": math.inf},
        {"rho_ohm_v": 1.0, "c_gate_f": math.nan},
        {"rho_ohm_v": 1.0, "c_diff_f": math.inf},
    ],
)
def test_non_finite_timing_model_is_refused(params):
    with pytest.raises(ValueError, match="finite"):
        TimingModel(**params)


def test_energy_model_definition(model):
    # one node of capacitance C swung 0 -> V -> 0 dissipates 2 C V^2
    inv = build(GateKind("Inverter"))
    comp = compile_netlist(inv)
    (caps,) = _load_caps(comp, model, [{"y": 2.0}]).T
    (trace,) = step_windows(inv, [{"a": [0, 1, 0]}])
    # energy counted on a and y; isolate y's contribution analytically
    power = dynamic_power(trace, model, 2e-9, {"y": 2.0})
    e_y = 2 * caps[comp.index["y"]] * 0.9**2
    e_a = 2 * caps[comp.index["a"]] * 0.9**2
    assert power == pytest.approx((e_y + e_a) / 2e-9)


def test_pdp_definition():
    assert pdp(2e-6, 5e-11) == pytest.approx(1e-16)


def test_bench_row_fields(model, designs_by_label):
    fa = designs_by_label["TFA2[full,0.9V]"]
    row = bench(fa, model, 2.0)
    assert row.radix == 3 and row.digits == 1
    assert row.pdp_j == pytest.approx(row.power_w * row.delays.cin_cout)
    assert row.area_nm == pytest.approx(area(fa.netlist))
    assert all(
        v > 0
        for v in (
            row.delays.in_cout,
            row.delays.in_sum,
            row.delays.cin_cout,
            row.delays.cin_sum,
            row.power_w,
            row.pdp_j,
        )
    )


def test_cpa_bench_quick(model):
    cpa = build_cpa(CpaConfig(AdderVariant.BFA1_14T, 3, CarrySwing.FULL))
    row = bench(cpa, model, 2.0)
    assert row.digits == 3
    # carry ripple: a 3-stage chain is at least twice the single-stage delay
    single = bench(build_full_adder(AdderVariant.BFA1_14T), model, 2.0)
    assert row.delays.cin_cout > 2 * single.delays.cin_cout


def test_csv_header_is_bit_exact():
    from mvladders.analysis import CSV_HEADER

    assert CSV_HEADER == (
        "design,radix,digits,swing_v,vdd_v,cl_ff,d_in_cout_s,d_in_sum_s,"
        "d_cin_cout_s,d_cin_sum_s,power_w,pdp_j,area_nm"
    )


_TUBES = [8, 10, 13, 19, 29, 37]


@st.composite
def _rc_trees(draw):
    """Random trees of conducting devices with unequal tubes, driven from
    inputs ``a`` and ``b``.  A few enable nets copy or invert an input; then
    each new net hangs off an earlier net through an always-on transmission
    gate (sometimes two in parallel), an inverter or a NAND2 that net gates,
    or one pass device gated by an enable or an earlier net.  NAND2s and
    pass devices put two moved gates on one root path.  Some nets carry an
    extra load in fF.  Both inputs step through six random levels."""
    b = NetlistBuilder()
    b.add_supply("vdd", 0.9)
    b.add_supply("gnd", 0.0)
    nets = [b.add_input("a", 2), b.add_input("b", 2)]
    tube = st.sampled_from(_TUBES)

    def hang(net, parent, kind, gate=None):
        if kind == "inv":
            b.add_device(Polarity.P, draw(tube), parent, "vdd", net)
            b.add_device(Polarity.N, draw(tube), parent, "gnd", net)
        elif kind == "pass":
            b.add_device(draw(st.sampled_from(Polarity)), draw(tube), gate, parent, net)
        elif kind == "nand":
            mid = b.fresh(f"{net}m")
            for g in (parent, gate):
                b.add_device(Polarity.P, draw(tube), g, "vdd", net)
            b.add_device(Polarity.N, draw(tube), parent, mid, net)
            b.add_device(Polarity.N, draw(tube), gate, "gnd", mid)
        else:
            for _ in range(1 + (kind == "tg2")):
                b.add_device(Polarity.N, draw(tube), "vdd", parent, net)
                b.add_device(Polarity.P, draw(tube), "gnd", parent, net)

    enables = []
    for i in range(draw(st.integers(1, 3))):
        enables.append(b.add_internal(f"e{i}"))
        hang(enables[-1], draw(st.sampled_from(nets[:2])), draw(st.sampled_from(["tg", "inv"])))
    for i in range(draw(st.integers(1, 8))):
        net = b.add_output(f"y{i}", 2) if draw(st.booleans()) else b.add_internal(f"n{i}")
        kind = draw(st.sampled_from(["tg", "tg2", "inv", "nand", "pass"]))
        # half of the nets hang off a tree net, so the chains grow deep
        parents = nets[2:] if nets[2:] and draw(st.booleans()) else nets
        hang(net, draw(st.sampled_from(parents)), kind, draw(st.sampled_from(enables + nets[2:])))
        nets.append(net)
    loads = {net: draw(st.sampled_from([0.0, 0.5, 3.0])) for net in nets[2:] + enables}
    levels = st.lists(st.integers(0, 1), min_size=6, max_size=6)
    return b.build("rctree"), loads, {"a": draw(levels), "b": draw(levels)}


@settings(max_examples=100)
@given(_rc_trees())
def test_walk_matches_plain_elmore_reference(model, case):
    # relative tolerance 1e-12: the two sum the same terms in other orders
    nl, loads_ff, waveforms = case
    comp = compile_netlist(nl)
    loads_f = {n: ff * 1e-15 for n, ff in loads_ff.items()}
    # two load columns: the drawn loads and none
    ref_caps = [reference_capacitance(nl, model, loads_f), reference_capacitance(nl, model, {})]
    caps = np.array([[c[name] for c in ref_caps] for name in comp.names])
    assert caps == pytest.approx(_load_caps(comp, model, [loads_ff, {}]), rel=1e-15)
    (trace,) = step_windows(comp, [waveforms])
    names = comp.names
    is_source = comp.ccr_plan.is_source
    for k in range(1, len(trace)):
        held = [
            {n: None if math.isnan(v) else v for n, v in zip(names, trace.values[j].tolist())}
            for j in (k - 1, k)
        ]
        driven = dict(zip(names, trace.driven[k].tolist()))
        assert not trace.conflicts[k]
        # the walk prices every moved net but the sources, which settle at once
        moved = trace.moved[k]
        got = _walk(trace, k, model, caps, {}, np.flatnonzero(moved & ~is_source).tolist())
        at_once = {names[i] for i in np.flatnonzero(moved & is_source).tolist()}
        for col, node_caps in enumerate(ref_caps):
            want = reference_settle(nl, model, *held, driven, node_caps)
            assert {names[i] for i in got} | at_once == set(want)
            assert all(want[n] == 0.0 for n in at_once)
            for i, times in got.items():
                assert times[col] == pytest.approx(want[names[i]], rel=1e-12, abs=0.0), names[i]


# sha256 of the repr of every delay and power figure below, as a settle plan
# over the whole netlist gave them; the CSV and golden files round to 7
# digits, so only this catches a last-bit drift in the Elmore sums
_FIGURES_SHA256 = "44b397536bcc87ffa227217793beaca764ef898137653b2131102b4eb654cf5e"


def test_figures_match_recorded_bits(model, single_stage_designs):
    rows = [bench(build_cpa(cfg), model, 2.0) for cfg in _COMPARE_CONFIGS]
    for fa in single_stage_designs:
        rows.extend(sweep_load(fa, model, (0.25, 0.5, 1.0, 2.0, 4.0)).rows)
    text = "".join(
        f"{r.design}@{r.cl_ff!r} "
        f"{' '.join(map(repr, (*r.delays.as_dict().values(), r.power_w)))}\n"
        for r in rows
    )
    assert len(rows) == 66
    assert hashlib.sha256(text.encode()).hexdigest() == _FIGURES_SHA256


def test_conflicted_step_is_refused_by_name(model):
    # the short between its own two rails leaves the inverter's output valid
    nl = parse(
        "SUPPLY vdd 0.9\nSUPPLY gnd 0\nSUPPLY hi 0.9\nSUPPLY lo 0\nINPUT a 2\nOUTPUT y 2\n"
        "DEVICE P n=19 g=a s=vdd d=y\nDEVICE N n=19 g=a s=gnd d=y\n"
        "DEVICE N n=37 g=vdd s=hi d=lo\n"
    )
    (trace,) = step_windows(nl, [{"a": [0, 1]}])
    with pytest.raises(
        AnalysisError,
        match=r"^conflicted state: Conflict\(nets=\('hi', 'lo'\), voltages=\(0\.0, 0\.9\)\)$",
    ):
        path_delay(trace, model, "a", "y", cl_ff=1.0)


def test_moved_net_without_driving_path_is_refused(model):
    # A moved net is driven at its step, so the solver never yields one
    # without a conducting path; mark the inverter's input undriven by hand.
    (trace,) = step_windows(build(GateKind("Inverter")), [{"a": [0, 1]}])
    driven = trace.driven.copy()
    driven[1, trace.comp.index["a"]] = False
    with pytest.raises(AnalysisError, match=r"^changed net 'y' has no driving path$"):
        path_delay(replace(trace, driven=driven), model, "a", "y")


def test_gating_cycle_is_refused(model):
    # x is driven through a device y gates and y through one x gates; both
    # gain a value at step 1, so neither can settle first
    nl = parse(
        "SUPPLY vdd 0.9\nSUPPLY gnd 0\nINPUT a 2\nINPUT b 2\nOUTPUT x 2\nOUTPUT y 2\n"
        "DEVICE N n=19 g=vdd s=a d=x\nDEVICE N n=19 g=y s=a d=x\n"
        "DEVICE P n=19 g=x s=b d=y\n"
    )
    (trace,) = step_windows(nl, [{"a": [1, 0], "b": [0, 1]}])
    with pytest.raises(AnalysisError, match=r"^settle ordering did not resolve for \['x', 'y'\]$"):
        path_delay(trace, model, "a", "x")


def test_chain_walk_has_the_bits_of_the_full_walk(model, single_stage_designs):
    # _worst_settle prices only the gating chains of its targets; each
    # figure must be the maximum of a walk from every moved net
    from mvladders import analysis

    cases = [(build_cpa(cfg), (2.0,)) for cfg in _COMPARE_CONFIGS]
    cases += [(fa, (0.25, 0.5, 1.0, 2.0, 4.0)) for fa in single_stage_designs]
    for design, loads in cases:
        comp = design.compiled
        load_maps = [dict.fromkeys(design.loaded_nets(), cl) for cl in loads]
        caps = analysis._load_caps(comp, model, load_maps)
        targets = [comp.index[design.s_ports[-1]], comp.index[design.cout_port]]
        plans = {}
        for stepped, trace in analysis._delay_traces(design, comp)[0]:
            steps = np.flatnonzero(trace.moved[:, comp.index[stepped]]).tolist()
            got = analysis._worst_settle(trace, model, caps, steps, targets, plans)
            want = [[0.0] * len(loads) for _ in targets]
            for k in steps:
                moved = np.flatnonzero(trace.moved[k] & ~comp.ccr_plan.is_source).tolist()
                settle = analysis._walk(trace, k, model, caps, {}, moved)
                want = [list(map(max, w, settle.get(t, w))) for w, t in zip(want, targets)]
            assert repr(got) == repr(want), (design.label, stepped)


def test_bench_plans_only_the_gating_chains(monkeypatch, model):
    # pricing every moved net's unit took 488 driving trees and 980 Elmore
    # plans for one bench of the six comparison CPAs
    from mvladders import analysis

    calls = {"trees": 0, "plans": 0}
    drive_tree, unit_plan = analysis._drive_tree, analysis._unit_plan

    def counted_tree(*args):
        calls["trees"] += 1
        return drive_tree(*args)

    def counted_plan(*args):
        calls["plans"] += 1
        return unit_plan(*args)

    monkeypatch.setattr(analysis, "_drive_tree", counted_tree)
    monkeypatch.setattr(analysis, "_unit_plan", counted_plan)
    for cfg in _COMPARE_CONFIGS:
        bench(build_cpa(cfg), model, 2.0)
    assert calls["trees"] < 488
    assert calls["plans"] < 980


def test_net_off_the_chain_refuses_only_a_walk_over_it(model):
    # Mark b undriven by hand at step 1: z moves without a driving path.
    # z is off y's chain, so a->y keeps its figure, while a walk from every
    # moved net refuses the step.
    nl = parse(
        "SUPPLY vdd 0.9\nSUPPLY gnd 0\nINPUT a 2\nINPUT b 2\nOUTPUT y 2\nOUTPUT z 2\n"
        "DEVICE P n=19 g=a s=vdd d=y\nDEVICE N n=19 g=a s=gnd d=y\n"
        "DEVICE P n=19 g=b s=vdd d=z\nDEVICE N n=19 g=b s=gnd d=z\n"
    )
    (trace,) = step_windows(nl, [{"a": [0, 1], "b": [0, 1]}])
    driven = trace.driven.copy()
    driven[1, trace.comp.index["b"]] = False
    cut = replace(trace, driven=driven)
    delay = path_delay(cut, model, "a", "y", cl_ff=1.0)
    assert delay > 0
    assert delay == path_delay(trace, model, "a", "y", cl_ff=1.0)
    caps = _load_caps(trace.comp, model, [{}])
    moved = np.flatnonzero(cut.moved[1] & ~cut.comp.ccr_plan.is_source).tolist()
    with pytest.raises(AnalysisError, match=r"^changed net 'z' has no driving path$"):
        _walk(cut, 1, model, caps, {}, moved)
    with pytest.raises(AnalysisError, match=r"^changed net 'z' has no driving path$"):
        path_delay(cut, model, "b", "z", cl_ff=1.0)
