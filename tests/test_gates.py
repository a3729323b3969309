import math

import numpy as np
import pytest

from mvladders.device import threshold_voltage_v
from mvladders.gates import (
    GateKind,
    behavioral_table,
    build,
    build_tgate_chain,
    input_ports,
    mux2_chiralities,
)
from mvladders.logic import VoltageMap
from mvladders.netlist import serialize_subckt
from mvladders.solver import solve_dc, solve_dc_batch

# Complement ports the behavioral table hides; the harness derives them.
_COMPLEMENTS = {"en": "enb", "s": "sb"}


def representative_kinds() -> tuple[GateKind, ...]:
    """One instance of every kind (plus the parameter variants worth testing)."""
    return (
        GateKind("Inverter"),
        GateKind("Inverter", vdd=0.45),
        GateKind("NTI"),
        GateKind("PTI"),
        GateKind("QDetLow"),
        GateKind("QDetMid"),
        GateKind("QDetHigh"),
        GateKind("Buffer"),
        GateKind("TGate", data_radix=3),
        GateKind("TGate", data_radix=4),
        GateKind("Mux2", data_radix=2),
        GateKind("Mux2", data_radix=3, sel_swing=0.45),
        GateKind("Mux2", data_radix=4, sel_swing=0.3),
        GateKind("Mux3Ternary"),
        GateKind("Mux4Quaternary"),
        GateKind("SuccTernary", k=1),
        GateKind("SuccTernary", k=2),
        GateKind("SuccQuaternary", k=1),
        GateKind("SuccQuaternary", k=2),
        GateKind("SuccQuaternary", k=3),
        GateKind("Nand2"),
        GateKind("Nor2"),
        GateKind("Xor2"),
    )


def _columns(kind: GateKind, nl, combos) -> dict[str, np.ndarray]:
    """Input voltage columns for behavioral-table rows; a binary select with
    a complement port in the netlist also drives that complement."""
    columns = {}
    for col, (port, radix) in enumerate(input_ports(kind)):
        digits = np.array([combo[col] for combo in combos])
        complement = _COMPLEMENTS.get(port)
        if complement in nl.nets:
            swing = kind.sel_swing if port == "s" and kind.sel_swing is not None else kind.vdd
            columns[port] = digits * swing
            columns[complement] = (1 - digits) * kind.vdd
        else:
            columns[port] = digits * kind.vdd / (radix - 1)
    return columns


def _conformance_failures(kind: GateKind) -> list[str]:
    """Every behavioral-table row solved in one batch; a row fails on no
    fixed point, a conflict, a floating output or a wrong or unclean
    decode of the netlist's single output."""
    nl = build(kind)
    table = behavioral_table(kind)
    (out,) = nl.outputs
    out_map = VoltageMap(kind.vdd, out.radix)
    batch = solve_dc_batch(nl, _columns(kind, nl, list(table)))
    volts = batch.values[:, batch.names.index(out.name)].tolist()
    failures = []
    for row, (combo, expected) in enumerate(table.items()):
        if batch.nonconverged[row]:
            failures.append(f"{combo}: no fixed point")
        elif batch.conflict[row]:
            failures.append(f"{combo}: conflict")
        elif math.isnan(volts[row]):
            failures.append(f"{combo}: output floating")
        elif (got := out_map.decode(volts[row])) != expected:
            failures.append(f"{combo}: {volts[row]} V decodes to {got}, want {expected}")
    return failures


@pytest.mark.parametrize("kind", representative_kinds(), ids=str)
def test_kind_conformance(kind):
    assert _conformance_failures(kind) == []


def test_nti_voltages():
    nl = build(GateKind("NTI"))
    vmap = VoltageMap(0.9, 3)
    outs = [solve_dc(nl, {"a": vmap.volts(d)}).voltage("y") for d in range(3)]
    assert outs == pytest.approx([0.9, 0.0, 0.0])


def test_succ_ternary_example():
    nl = build(GateKind("SuccTernary", k=1))
    state = solve_dc(nl, {"a": 0.9})  # digit 2
    assert state.voltage("y") == pytest.approx(0.0)  # digit 0


def test_qdetmid_switch_point():
    # independent oracle: the n=13 threshold sits between the 1 and 2 levels,
    # so the detector flips between 0.3 V and 0.6 V
    vth = threshold_voltage_v(13)
    assert 0.3 < vth < 0.6
    nl = build(GateKind("QDetMid"))
    outs = [solve_dc(nl, {"a": v}).voltage("y") for v in (0.0, 0.3, 0.6, 0.9)]
    assert outs == pytest.approx([0.9, 0.9, 0.0, 0.0])


def test_detector_pair_never_fights():
    for name in ("NTI", "PTI"):
        nl = build(GateKind(name))
        for v in (0.0, 0.45, 0.9):
            assert not solve_dc(nl, {"a": v}).conflicts
    for name in ("QDetLow", "QDetMid", "QDetHigh"):
        nl = build(GateKind(name))
        for v in (0.0, 0.3, 0.6, 0.9):
            assert not solve_dc(nl, {"a": v}).conflicts


def test_tgate_disabled_floats():
    nl = build(GateKind("TGate", data_radix=3))
    for level in (0.0, 0.45, 0.9):
        state = solve_dc(nl, {"d": level, "en": 0.0, "enb": 0.9})
        assert "y" in state.floating


def test_mux2_reduced_select_blocks_leak():
    # disabled branch holds full-rail data while the select sits at the
    # reduced swing; the high-threshold P must not leak it to the output
    kind = GateKind("Mux2", data_radix=3, sel_swing=0.45)
    nl = build(kind)
    state = solve_dc(nl, {"d0": 0.9, "d1": 0.0, "s": 0.45, "sb": 0.0})
    assert not state.conflicts
    assert state.voltage("y") == pytest.approx(0.0)


def test_mux2_chirality_plan():
    assert mux2_chiralities(0.9, 0.9) == (19, 19)
    assert mux2_chiralities(0.9, 0.45) == (19, 10)
    assert mux2_chiralities(0.9, 0.3) == (37, 8)
    with pytest.raises(ValueError):
        mux2_chiralities(0.9, 0.2)


def test_succ_composability_all_shifts():
    for radix, name in ((3, "SuccTernary"), (4, "SuccQuaternary")):
        vmap = VoltageMap(0.9, radix)
        for k in range(1, radix):
            nl = build(GateKind(name, k=k))
            for a in range(radix):
                got = solve_dc(nl, {"a": vmap.volts(a)}).voltage("y")
                assert got == pytest.approx(vmap.volts((a + k) % radix))


def test_chain_fixture_shapes():
    plain = build_tgate_chain(4, restored=False)
    restored = build_tgate_chain(4, restored=True)
    assert plain.device_count == 2 + 4 * 2
    assert restored.device_count == 2 + 4 * 4
    # both are logically a buffer/inverter of the head input
    s = solve_dc(plain, {"a": 0.0})
    assert s.voltage("y") == pytest.approx(0.9)


def test_kind_subckt_export():
    text = serialize_subckt(build(GateKind("SuccTernary", k=2)))
    assert text.startswith("SUBCKT succternary a y")
    assert text.rstrip().endswith("ENDS")
    assert "DEVICE" in text
