import hashlib
import itertools
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from mvladders import adders
from mvladders.adders import (
    AdderVariant,
    CpaConfig,
    all_single_stage_designs,
    build_cpa,
    build_full_adder,
    verify_design,
)
from mvladders.cli import _COMPARE_CONFIGS
from mvladders.logic import CarrySwing, full_adder_oracle
from mvladders.netlist import parse, serialize
from mvladders.solver import solve_dc


def _solve_adder(fa, a, b, cin):
    maps = fa.input_maps()
    state = solve_dc(
        fa.netlist,
        {"A": maps["A"].volts(a), "B": maps["B"].volts(b), "Cin": maps["Cin"].volts(cin)},
    )
    assert not state.conflicts
    out = fa.output_maps()
    return out["Sum"].decode(state.voltage("Sum")), out["Cout"].decode(state.voltage("Cout"))


def test_spot_rows_from_truth_tables():
    tfa2 = build_full_adder(AdderVariant.TFA2)
    assert _solve_adder(tfa2, 1, 2, 1) == (1, 1)
    qfa2 = build_full_adder(AdderVariant.QFA2)
    assert _solve_adder(qfa2, 2, 2, 0) == (0, 1)
    bfa1 = build_full_adder(AdderVariant.BFA1_14T)
    assert _solve_adder(bfa1, 1, 1, 1) == (1, 1)


def test_every_design_exhaustive(single_stage_designs):
    for design in single_stage_designs:
        report = verify_design(design)
        assert report.ok, f"{report.design}: {report.failure_samples}"
        assert report.vectors == design.radix**2 * 2
        assert report.floating_outputs == 0


def test_single_stage_matches_oracle_digits(designs_by_label):
    fa = designs_by_label["TFA2[full,0.9V]"]
    for a, b, cin in itertools.product(range(3), range(3), (0, 1)):
        assert _solve_adder(fa, a, b, cin) == full_adder_oracle(3, a, b, cin)


def test_carry_binarity_exact_voltages(single_stage_designs):
    """The carry output always sits at exactly 0 or the swing voltage."""
    for fa in single_stage_designs:
        maps = fa.input_maps()
        radix = fa.radix
        for a, b, cin in itertools.product(range(radix), range(radix), (0, 1)):
            state = solve_dc(
                fa.netlist,
                {
                    "A": maps["A"].volts(a),
                    "B": maps["B"].volts(b),
                    "Cin": maps["Cin"].volts(cin),
                },
            )
            volts = state.voltage("Cout")
            assert volts == pytest.approx(0.0) or volts == pytest.approx(fa.swing_v), (
                fa.label,
                (a, b, cin),
                volts,
            )


def test_swing_independence_of_logic(designs_by_label):
    reduced = designs_by_label["TFA2[reduced,0.9V]"]
    full = designs_by_label["TFA2[full,0.9V]"]
    for a, b, cin in itertools.product(range(3), range(3), (0, 1)):
        assert _solve_adder(reduced, a, b, cin) == _solve_adder(full, a, b, cin)


def test_illegal_combinations_rejected():
    with pytest.raises(ValueError):
        build_full_adder(AdderVariant.QFA1, CarrySwing.FULL)
    with pytest.raises(ValueError):
        build_full_adder(AdderVariant.QFA2, CarrySwing.REDUCED)
    with pytest.raises(ValueError):
        build_full_adder(AdderVariant.TFA2, CarrySwing.FULL, vdd=0.45)
    with pytest.raises(ValueError):
        build_full_adder(AdderVariant.BFA1_14T, CarrySwing.FULL, vdd=0.6)


@pytest.mark.parametrize("vdd", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_vdd_rejected(vdd):
    from mvladders.logic import VoltageMap

    builds = (
        lambda: build_full_adder(AdderVariant.TFA2, vdd=vdd),
        lambda: build_full_adder(AdderVariant.BFA1_14T, vdd=vdd),
        lambda: build_cpa(CpaConfig(AdderVariant.QFA1, 2, CarrySwing.REDUCED, vdd)),
        lambda: VoltageMap(vdd, 3),
    )
    for make in builds:
        with pytest.raises(ValueError, match="vdd"):
            make()


def test_binary_swings_coincide():
    full = build_full_adder(AdderVariant.BFA1_14T, CarrySwing.FULL)
    assert full.swing_v == CarrySwing.REDUCED.carry_high_v(2, 0.9) == 0.9


@pytest.mark.parametrize(
    "variant", [AdderVariant.BFA1_14T, AdderVariant.BFA2_28T, AdderVariant.BFA3_MUX]
)
def test_binary_reduced_swing_is_refused(variant):
    # a binary carry's reduced swing is vdd, so the build would be the
    # full-swing netlist under a second label
    with pytest.raises(ValueError, match="binary adders have a full-swing carry"):
        build_full_adder(variant, CarrySwing.REDUCED)
    with pytest.raises(ValueError, match="binary adders have a full-swing carry"):
        build_cpa(CpaConfig(variant, 2, CarrySwing.REDUCED, 0.45))


def test_cpa_flattening_counts():
    cpa = build_cpa(CpaConfig(AdderVariant.TFA2, 4, CarrySwing.REDUCED))
    assert cpa.netlist.device_count == 4 * cpa.stage.netlist.device_count
    assert cpa.netlist.is_flat
    assert not cpa.hierarchical.is_flat
    assert cpa.netlist.ports == cpa.hierarchical.ports


def test_cpa_spot_sums():
    cpa = build_cpa(CpaConfig(AdderVariant.TFA2, 4, CarrySwing.FULL))
    maps = cpa.input_maps()

    def solve(a_digits, b_digits, c0):
        inputs = {}
        for i, d in enumerate(a_digits):
            inputs[f"A{i}"] = maps[f"A{i}"].volts(d)
        for i, d in enumerate(b_digits):
            inputs[f"B{i}"] = maps[f"B{i}"].volts(d)
        inputs["C0"] = maps["C0"].volts(c0)
        state = solve_dc(cpa.netlist, inputs)
        assert not state.conflicts
        outs = cpa.output_maps()
        s = [outs[f"S{i}"].decode(state.voltage(f"S{i}")) for i in range(4)]
        return s, outs["C_final"].decode(state.voltage("C_final"))

    s, c = solve((2, 2, 2, 2), (1, 0, 0, 0), 0)  # 80 + 1 = 81 = 3^4
    assert (s, c) == ([0, 0, 0, 0], 1)
    s, c = solve((0, 0, 0, 0), (0, 0, 0, 0), 1)
    assert (s, c) == ([1, 0, 0, 0], 0)


def test_cpa_small_exhaustive():
    cpa = build_cpa(CpaConfig(AdderVariant.BFA1_14T, 2, CarrySwing.FULL))
    report = verify_design(cpa)
    assert report.ok
    assert report.vectors == 4 * 4 * 2


def test_quaternary_cpa_spot():
    cpa = build_cpa(CpaConfig(AdderVariant.QFA1, 3, CarrySwing.REDUCED))
    maps = cpa.input_maps()
    inputs = {f"A{i}": maps[f"A{i}"].volts(3) for i in range(3)}
    inputs |= {f"B{i}": maps[f"B{i}"].volts(0) for i in range(3)}
    inputs["C0"] = maps["C0"].volts(1)
    state = solve_dc(cpa.netlist, inputs)
    outs = cpa.output_maps()
    digits = [outs[f"S{i}"].decode(state.voltage(f"S{i}")) for i in range(3)]
    assert digits == [0, 0, 0]
    assert outs["C_final"].decode(state.voltage("C_final")) == 1


@pytest.mark.parametrize(
    "variant, swing",
    [
        (AdderVariant.TFA2, CarrySwing.FULL),
        (AdderVariant.QFA1, CarrySwing.REDUCED),
        (AdderVariant.BFA1_14T, CarrySwing.FULL),
    ],
    ids=lambda v: v.value,
)
def test_one_digit_cpa_verifies(variant, swing):
    # a 1-digit CPA keeps its C0/S0/C_final ports; verification must use them
    cpa = build_cpa(CpaConfig(variant, 1, swing))
    report = verify_design(cpa)
    assert report.ok, report.failure_samples
    assert report.vectors == 2 * variant.radix**2
    assert report.design == cpa.label


def _netlist_digest(design) -> str:
    """sha256 of the flat netlist's nets and devices, in order, and of the
    serialized hierarchical netlist."""
    h = hashlib.sha256()
    for net in design.netlist.nets.values():
        h.update(f"net {net.name} {net.role.value} {net.voltage!r} {net.radix!r}\n".encode())
    for d in design.netlist.devices:
        h.update(
            f"device {d.spec.polarity.value} {d.spec.chirality_n} "
            f"{d.gate} {d.source} {d.drain}\n".encode()
        )
    h.update(serialize(design.hierarchical).encode())
    return h.hexdigest()


def test_netlists_match_recorded_digests():
    # any renamed, reordered or resized device or net changes a digest
    recorded = json.loads((Path(__file__).parent / "golden" / "netlist_digests.json").read_text())
    designs = [*all_single_stage_designs(), *map(build_cpa, _COMPARE_CONFIGS)]
    assert {d.label: _netlist_digest(d) for d in designs} == recorded


def _broken_bfa3():
    fa = build_full_adder(AdderVariant.BFA3_MUX)
    bad_text = serialize(fa.netlist).replace("g=cinb s=s0 d=Sum", "g=cinb s=s1 d=Sum")
    return replace(fa, netlist=parse(bad_text))


def test_verify_exhaustive_reports_failures():
    # a wrong netlist must be reported, not masked: swap the sum mux data
    report = verify_design(_broken_bfa3())
    assert report.failures > 0
    assert report.failure_samples[0] == "A=(0,) B=(0,) cin=0: expected 0, decoded 0 [floating]"


def test_exhaustive_columns_drive_the_input_map_levels(single_stage_designs):
    # bit for bit: a quaternary digit 3 is driven at levels[3] == 0.9, not
    # at 3 * (0.9 / 3) == 0.8999999999999999
    for design in [*single_stage_designs, *map(build_cpa, _COMPARE_CONFIGS)]:
        n_vec = 2 * (design.radix**design.digits) ** 2
        columns = adders._exhaustive_columns(design, range(n_vec))
        maps = design.input_maps()
        assert set(columns) == set(maps)
        for port, column in columns.items():
            assert set(column.tolist()) <= set(maps[port].levels), (design.label, port)


def test_chunked_verification_matches_one_chunk(monkeypatch, single_stage_designs):
    # counts and failure samples do not depend on the chunk size.  The
    # 2-digit CPA's first sum mux has its data swapped, so every one of its
    # 162 vectors fails and the 20 samples kept end inside a chunk.
    cpa = build_cpa(CpaConfig(AdderVariant.TFA2, 2, CarrySwing.FULL))
    text = serialize(cpa.netlist).replace("s=fa0_s0 d=S0", "s=swap d=S0")
    text = text.replace("s=fa0_s1 d=S0", "s=fa0_s0 d=S0").replace("s=swap d=S0", "s=fa0_s1 d=S0")
    designs = [*single_stage_designs, replace(cpa, netlist=parse(text)), _broken_bfa3()]
    whole = [verify_design(design) for design in designs]
    assert whole[-2].failures == 162 and len(whole[-2].failure_samples) == 20
    assert whole[-1].failure_samples
    for size in (1, 2, 7, 64):
        monkeypatch.setattr(adders, "_VERIFY_CHUNK", size)
        assert [verify_design(design) for design in designs] == whole, size


def test_chunked_verification_of_a_comparison_cpa(monkeypatch):
    cpa = build_cpa(CpaConfig(AdderVariant.TFA2, 4, CarrySwing.FULL))
    whole = verify_design(cpa)
    monkeypatch.setattr(adders, "_VERIFY_CHUNK", 4096)
    assert verify_design(cpa) == whole


def _verify_peak(design):
    """The report and the tracemalloc peak of verifying a compiled design."""
    design.compiled.ccr_plan
    tracemalloc.start()
    try:
        report = verify_design(design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak


def test_verify_keeps_only_its_output_nets():
    # the solver keeps a row per vector for the sums and the carry-out
    # only; this design's tracemalloc peak was 19.6 MiB with the full
    # [vectors x nets] table and 4.9 MiB with rows for every source
    report, peak = _verify_peak(build_cpa(CpaConfig(AdderVariant.TFA2, 4, CarrySwing.FULL)))
    assert report.ok and report.vectors == 13_122
    assert peak < 3.5 * 2**20


def test_verify_memory_follows_the_chunk_not_the_width():
    # 118,098 vectors in 8 chunks; solved in one piece, the peak was about
    # ten times the 4-digit one
    _, peak4 = _verify_peak(build_cpa(CpaConfig(AdderVariant.TFA2, 4, CarrySwing.FULL)))
    report, peak5 = _verify_peak(build_cpa(CpaConfig(AdderVariant.TFA2, 5, CarrySwing.FULL)))
    assert report.ok and report.vectors == 118_098
    assert peak5 <= 2 * peak4


def test_area_additivity():
    for digits in (2, 4):
        cpa = build_cpa(CpaConfig(AdderVariant.TFA1, digits, CarrySwing.FULL))
        assert cpa.netlist.sum_diameter_nm() == pytest.approx(
            digits * cpa.stage.netlist.sum_diameter_nm()
        )


def test_mux_style_exposes_conditional_carries():
    """The complemented conditional carries exist as internal nets."""
    for variant in (AdderVariant.TFA1, AdderVariant.TFA2, AdderVariant.QFA2, AdderVariant.BFA3_MUX):
        fa = build_full_adder(variant)
        assert "c0b" in fa.netlist.nets
        assert "c1b" in fa.netlist.nets
        assert "coutb" in fa.netlist.nets
