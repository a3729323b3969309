"""Acceptance gate: every criterion at its stated tolerance, one line each.

Absolute picosecond/microwatt outputs of the timing model are calibrated
surrogates, so every externally meaningful assertion here is a ratio, an
ordering, or an exact-arithmetic check.
"""

import time

import pytest

from mvladders.adders import AdderVariant, CpaConfig, build_cpa, verify_design
from mvladders.analysis import (
    MODEL_NOTE,
    area,
    bench,
    path_delay,
    sweep_load,
)
from mvladders.device import CALIBRATION_ROWS, diameter_nm, threshold_voltage_v
from mvladders.gates import build_tgate_chain
from mvladders.logic import CarrySwing
from mvladders.solver import step_windows


def _report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{tag}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


@pytest.fixture(scope="module")
def cpa_designs():
    return {
        "bin09": build_cpa(CpaConfig(AdderVariant.BFA1_14T, 6, CarrySwing.FULL, 0.9)),
        "bin045": build_cpa(CpaConfig(AdderVariant.BFA1_14T, 6, CarrySwing.FULL, 0.45)),
        "ter_red": build_cpa(CpaConfig(AdderVariant.TFA2, 4, CarrySwing.REDUCED)),
        "ter_full": build_cpa(CpaConfig(AdderVariant.TFA2, 4, CarrySwing.FULL)),
        "quat_red": build_cpa(CpaConfig(AdderVariant.QFA1, 3, CarrySwing.REDUCED)),
        "quat_full": build_cpa(CpaConfig(AdderVariant.QFA2, 3, CarrySwing.FULL)),
    }


def test_01_functional_conformance(single_stage_designs):
    t0 = time.monotonic()
    expected_vectors = {2: 8, 3: 18, 4: 32}
    for design in single_stage_designs:
        report = verify_design(design)
        assert report.vectors == expected_vectors[design.radix]
        assert report.failures == 0, (design.label, report.failure_samples)
        assert report.conflicts == 0
        assert report.floating_outputs == 0
    elapsed = time.monotonic() - t0
    _report(
        "functional conformance: 12 single-stage configurations exhaustive",
        elapsed < 5.0,
        f"{elapsed:.2f} s",
    )


def test_02_cpa_oracle_equivalence(cpa_designs):
    t0 = time.monotonic()
    expectations = [("bin09", 8192), ("ter_red", 13122), ("quat_red", 8192)]
    for key, vectors in expectations:
        report = verify_design(cpa_designs[key])
        assert report.vectors == vectors
        assert report.ok, (key, report.failure_samples)
    elapsed = time.monotonic() - t0
    _report(
        "CPA oracle equivalence: 6-bit, 4-trit, 3-quit exact vs integer addition",
        elapsed < 60.0,
        f"{elapsed:.2f} s",
    )


def test_03_device_table_reproduction():
    for n, d_ref, vth_ref in CALIBRATION_ROWS:
        assert abs(diameter_nm(n) - d_ref) / d_ref <= 0.005, n
        assert abs(threshold_voltage_v(n) - vth_ref) / vth_ref <= 0.01, n
    _report("device table: six (n, d, Vth) rows within 0.5% / 1%", True)


def test_04_area_anchors(designs_by_label, cpa_designs):
    tfa1_red = area(designs_by_label["TFA1[reduced,0.9V]"].netlist)
    tfa1_full = area(designs_by_label["TFA1[full,0.9V]"].netlist)
    tfa2_red = area(designs_by_label["TFA2[reduced,0.9V]"].netlist)
    tfa2_full = area(designs_by_label["TFA2[full,0.9V]"].netlist)
    ok = abs(tfa1_red - 72.0) / 72.0 <= 0.15 and abs(tfa1_full - 73.0) / 73.0 <= 0.15
    ok &= abs(tfa2_red - 111.0) / 111.0 <= 0.15 and abs(tfa2_full - 112.0) / 112.0 <= 0.15
    ratio_red = tfa2_red / tfa1_red
    ratio_full = tfa2_full / tfa1_full
    ok &= 1.3 <= ratio_red <= 1.7 and 1.3 <= ratio_full <= 1.7
    bin_area = area(cpa_designs["bin09"].netlist)
    for key in ("ter_red", "ter_full", "quat_red", "quat_full"):
        ok &= bin_area <= 0.65 * area(cpa_designs[key].netlist)
    _report(
        "area anchors: TFA1/TFA2 bands, x1.5 ratio, binary CPA <= 0.65x m-valued",
        ok,
        f"TFA1 {tfa1_red:.1f}/{tfa1_full:.1f} nm, TFA2 {tfa2_red:.1f}/{tfa2_full:.1f} nm, "
        f"ratio {ratio_red:.2f}/{ratio_full:.2f}, 6-bit CPA {bin_area:.1f} nm",
    )


def test_05_power_laws(model, designs_by_label, single_stage_designs):
    hi = bench(designs_by_label["BFA1_14T[full,0.9V]"], model, 2.0)
    lo = bench(designs_by_label["BFA1_14T[full,0.45V]"], model, 2.0)
    quarter = lo.power_w / hi.power_w
    ok = abs(quarter - 0.25) <= 0.05 * 0.25
    ratios = {}
    for design in single_stage_designs:
        sweep = sweep_load(design, model, loads_ff=(0.25, 4.0))
        r = sweep.rows[1].power_w / sweep.rows[0].power_w
        ratios[design.label] = r
        ok &= 1.5 <= r <= 4.0
    worst = min(ratios.values()), max(ratios.values())
    _report(
        "power laws: BFA1 vdd/2 quarter power, x16-load ratio in [1.5, 4]",
        ok,
        f"quarter={quarter:.4f}, load ratios {worst[0]:.2f}..{worst[1]:.2f}",
    )


def test_06_carry_swing_speedup(model, designs_by_label, cpa_designs):
    pairs = [
        ("TFA1[reduced,0.9V]", "TFA1[full,0.9V]"),
        ("TFA2[reduced,0.9V]", "TFA2[full,0.9V]"),
        ("QFA1[reduced,0.9V]", "QFA2[full,0.9V]"),
    ]
    ok = True
    details = []
    for red_label, full_label in pairs:
        red = bench(designs_by_label[red_label], model, 2.0).delays
        full = bench(designs_by_label[full_label], model, 2.0).delays
        ratio = red.cin_cout / full.cin_cout
        details.append(f"{red_label.split('[')[0]} {ratio:.2f}")
        ok &= 1.4 <= ratio <= 3.0
    for red_key, full_key in (("ter_red", "ter_full"), ("quat_red", "quat_full")):
        red = bench(cpa_designs[red_key], model, 2.0).delays
        full = bench(cpa_designs[full_key], model, 2.0).delays
        ok &= full.cin_cout < red.cin_cout
        details.append(f"{full_key} chain {full.cin_cout * 1e12:.0f} < {red.cin_cout * 1e12:.0f} ps")
    _report("carry-swing speedup: reduced/full in [1.4, 3.0]; full-swing CPAs faster", ok, "; ".join(details))


def test_07_load_linearity(model, single_stage_designs):
    ok = True
    worst_r2 = 1.0
    for design in single_stage_designs:
        sweep = sweep_load(design, model)
        for path, (slope, _, r2) in sweep.fits.items():
            worst_r2 = min(worst_r2, r2)
            ok &= r2 > 0.95
        if design.radix > 2:
            ok &= sweep.fits["cin_sum"][0] > sweep.fits["cin_cout"][0]
    _report(
        "load linearity: R^2 > 0.95 on every delay column; sum slope above carry slope",
        ok,
        f"worst R^2 = {worst_r2:.4f}",
    )


def test_08_rc_chain_property(model):
    delays = {}
    for restored in (False, True):
        for k in (4, 8):
            nl = build_tgate_chain(k, restored=restored)
            (trace,) = step_windows(nl, [{"a": [0, 1]}])
            delays[(restored, k)] = path_delay(trace, model, "a", "y", cl_ff=0.0)
    plain_ratio = delays[(False, 8)] / delays[(False, 4)]
    restored_ratio = delays[(True, 8)] / delays[(True, 4)]
    ok = plain_ratio > 2.5 and abs(restored_ratio - 2.0) <= 0.2
    _report(
        "RC chain: raw TGate chain superlinear, restored chain linear",
        ok,
        f"plain d8/d4 = {plain_ratio:.2f}, restored = {restored_ratio:.2f}",
    )


def test_09_absolute_values_labelled_as_model():
    from mvladders.cli import main
    import io
    import sys

    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        status = main(["bench", "bfa1", "--cl", "2"])
    finally:
        sys.stdout = old
    text = out.getvalue()
    ok = status == 0 and "calibrated-model" in text and "calibrated-model" in MODEL_NOTE
    _report(
        "absolute delay/power figures are labelled calibrated-model, ratio suite substitutes",
        ok,
    )
