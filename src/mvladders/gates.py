"""Parametric netlist generators for the building-block cells.

Chirality choices follow two rules.  Threshold detectors pick N/P indices
whose thresholds bracket the intended switching level:

    NTI      N19/P10   switches between ternary 0 and 1  (0.293 < 0.45 < 0.557)
    PTI      N10/P19   switches between ternary 1 and 2
    QDetLow  N37/P8    switches between quaternary 0 and 1 (0.150 < 0.3, 0.696 > 0.6)
    QDetMid  N13/P13   switches between quaternary 1 and 2 (0.428 brackets 0.3/0.6)
    QDetHigh N8/P29    switches between quaternary 2 and 3

Binary gates and transmission gates default to n=19 pairs.  A MUX2 whose
select runs at a reduced carry swing instead picks, for the N gated by the
select, the lowest threshold that still passes level 0, and for the P gated
by the select, a threshold above vdd minus the swing so the off branch
cannot leak full-rail data.  MUX data paths always use complementary
transmission gates, never single pass transistors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .device import Polarity
from .logic import check_radix, succ as succ_digit, ni as ni_digit, pi as pi_digit
from .netlist import Netlist, NetlistBuilder

__all__ = [
    "DEFAULT_N",
    "GateKind",
    "KIND_NAMES",
    "build",
    "behavioral_table",
    "input_ports",
    "supply_name",
    "mux2_chiralities",
    "emit_inverter",
    "emit_tgate",
    "emit_detector",
    "emit_mux2",
    "emit_ternary_selects",
    "emit_mux3_branches",
    "emit_quaternary_selects",
    "emit_mux4_branches",
    "build_tgate_chain",
]

DEFAULT_N = 19

KIND_NAMES = (
    "Inverter",
    "NTI",
    "PTI",
    "QDetLow",
    "QDetMid",
    "QDetHigh",
    "Buffer",
    "TGate",
    "Mux2",
    "Mux3Ternary",
    "Mux4Quaternary",
    "SuccTernary",
    "SuccQuaternary",
    "Nand2",
    "Nor2",
    "Xor2",
)

_DETECTOR_PAIRS = {
    "NTI": (19, 10),
    "PTI": (10, 19),
    "QDetLow": (37, 8),
    "QDetMid": (13, 13),
    "QDetHigh": (8, 29),
}


@dataclass(frozen=True)
class GateKind:
    """A cell selector: name plus the parameters that kind understands."""

    name: str
    vdd: float = 0.9
    n_chirality: int = DEFAULT_N
    p_chirality: int = DEFAULT_N
    k: int = 1
    sel_swing: float | None = None
    data_radix: int = 2

    def __post_init__(self) -> None:
        if self.name not in KIND_NAMES:
            raise ValueError(f"unknown gate kind {self.name!r}")


def supply_name(volts: float) -> str:
    """Canonical supply-net name for a rail voltage; rails merge by name."""
    if abs(volts) <= 1e-12:
        return "gnd"
    return f"vdd_{int(round(volts * 1000))}mv"


def _rail(b: NetlistBuilder, volts: float) -> str:
    return b.add_supply(supply_name(volts), 0.0 if abs(volts) <= 1e-12 else volts)


def emit_inverter(
    b: NetlistBuilder,
    a: str,
    y: str,
    vdd_v: float,
    n_n: int = DEFAULT_N,
    n_p: int = DEFAULT_N,
) -> None:
    vdd = _rail(b, vdd_v)
    gnd = _rail(b, 0.0)
    b.add_device(Polarity.P, n_p, a, vdd, y)
    b.add_device(Polarity.N, n_n, a, gnd, y)


def emit_tgate(
    b: NetlistBuilder,
    d: str,
    y: str,
    en: str,
    enb: str,
    n_n: int = DEFAULT_N,
    n_p: int = DEFAULT_N,
) -> None:
    b.add_device(Polarity.N, n_n, en, d, y)
    b.add_device(Polarity.P, n_p, enb, d, y)


def emit_detector(b: NetlistBuilder, kind: str, a: str, y: str, vdd_v: float = 0.9) -> None:
    n_n, n_p = _DETECTOR_PAIRS[kind]
    emit_inverter(b, a, y, vdd_v, n_n=n_n, n_p=n_p)


def mux2_chiralities(vdd: float, sel_swing: float) -> tuple[int, int]:
    """(n for N-by-select, n for P-by-select) for a MUX2 select swing.

    The N gated by the select needs Vth below the swing to pass level 0;
    the P gated by the select needs Vth above vdd - swing so the disabled
    branch blocks full-rail data.
    """
    if abs(sel_swing - vdd) <= 1e-9:
        return DEFAULT_N, DEFAULT_N
    if abs(sel_swing - vdd / 2) <= 1e-9:
        return 19, 10
    if abs(sel_swing - vdd / 3) <= 1e-9:
        return 37, 8
    raise ValueError(f"unsupported MUX2 select swing {sel_swing} at vdd {vdd}")


def emit_mux2(
    b: NetlistBuilder,
    d0: str,
    d1: str,
    s: str,
    sb: str,
    y: str,
    vdd: float,
    sel_swing: float | None = None,
    data_radix: int = 2,
) -> None:
    """Complementary-TGate 2:1 mux; ``sb`` is the full-swing complement of ``s``.

    With a reduced select over quaternary data the select-gated side loses
    one polarity per mid level, so the complement-gated pair drops to the
    lowest threshold to pass 0.3/0.6 V with usable margin.
    """
    swing = vdd if sel_swing is None else sel_swing
    n_sel, p_sel = mux2_chiralities(vdd, swing)
    n_selb = p_selb = DEFAULT_N
    if data_radix == 4 and swing < vdd - 1e-9:
        n_selb = p_selb = 37
    b.add_device(Polarity.N, n_sel, s, d1, y)
    b.add_device(Polarity.P, p_selb, sb, d1, y)
    b.add_device(Polarity.N, n_selb, sb, d0, y)
    b.add_device(Polarity.P, p_sel, s, d0, y)


def emit_ternary_selects(b: NetlistBuilder, s: str, prefix: str, vdd: float) -> dict[str, str]:
    sn = b.fresh(f"{prefix}_sn")
    sp = b.fresh(f"{prefix}_sp")
    snb = b.fresh(f"{prefix}_snb")
    spb = b.fresh(f"{prefix}_spb")
    emit_detector(b, "NTI", s, sn, vdd)
    emit_detector(b, "PTI", s, sp, vdd)
    emit_inverter(b, sn, snb, vdd)
    emit_inverter(b, sp, spb, vdd)
    return {"sn": sn, "sp": sp, "snb": snb, "spb": spb}


def emit_mux3_branches(
    b: NetlistBuilder, data: tuple[str, str, str], y: str, sel: dict[str, str], prefix: str
) -> None:
    d0, d1, d2 = data
    emit_tgate(b, d0, y, en=sel["sn"], enb=sel["snb"])
    mid = b.fresh(f"{prefix}_m1")
    emit_tgate(b, d1, mid, en=sel["snb"], enb=sel["sn"])
    emit_tgate(b, mid, y, en=sel["sp"], enb=sel["spb"])
    emit_tgate(b, d2, y, en=sel["spb"], enb=sel["sp"])


def emit_quaternary_selects(
    b: NetlistBuilder, s: str, prefix: str, vdd: float, buffered: bool = True
) -> dict[str, str]:
    sigs: dict[str, str] = {}
    for tag, det in (("n", "QDetLow"), ("i", "QDetMid"), ("p", "QDetHigh")):
        raw = b.fresh(f"{prefix}_b{tag}")
        emit_detector(b, det, s, raw, vdd)
        inv1 = b.fresh(f"{prefix}_b{tag}b")
        emit_inverter(b, raw, inv1, vdd)
        sigs[f"b{tag}b"] = inv1
        if buffered:
            # detectors drive many gates; the double inverter is the buffered copy
            inv2 = b.fresh(f"{prefix}_b{tag}bb")
            emit_inverter(b, inv1, inv2, vdd)
            sigs[f"b{tag}"] = inv2
        else:
            sigs[f"b{tag}"] = raw
    return sigs


def emit_mux4_branches(
    b: NetlistBuilder, data: tuple[str, str, str, str], y: str, sel: dict[str, str], prefix: str
) -> None:
    d0, d1, d2, d3 = data
    emit_tgate(b, d0, y, en=sel["bn"], enb=sel["bnb"])
    mid1 = b.fresh(f"{prefix}_m1")
    emit_tgate(b, d1, mid1, en=sel["bnb"], enb=sel["bn"])
    emit_tgate(b, mid1, y, en=sel["bi"], enb=sel["bib"])
    mid2 = b.fresh(f"{prefix}_m2")
    emit_tgate(b, d2, mid2, en=sel["bib"], enb=sel["bi"])
    emit_tgate(b, mid2, y, en=sel["bp"], enb=sel["bpb"])
    emit_tgate(b, d3, y, en=sel["bpb"], enb=sel["bp"])


def _succ_rails(radix: int, k: int, vdd: float) -> tuple[float, ...]:
    return tuple(succ_digit(radix, a, k) * vdd / (radix - 1) for a in range(radix))


# --------------------------------------------------------------------------
# kind builders


def build(kind: GateKind) -> Netlist:
    """Build the kind as a flat netlist with named ports."""
    builder = NetlistBuilder()
    name = kind.name.lower()
    if kind.name == "Inverter":
        a = builder.add_input("a", 2)
        y = builder.add_output("y", 2)
        emit_inverter(builder, a, y, kind.vdd, kind.n_chirality, kind.p_chirality)
    elif kind.name in ("NTI", "PTI"):
        a = builder.add_input("a", 3)
        y = builder.add_output("y", 3)
        emit_detector(builder, kind.name, a, y, kind.vdd)
    elif kind.name in ("QDetLow", "QDetMid", "QDetHigh"):
        a = builder.add_input("a", 4)
        y = builder.add_output("y", 4)
        emit_detector(builder, kind.name, a, y, kind.vdd)
    elif kind.name == "Buffer":
        a = builder.add_input("a", 2)
        y = builder.add_output("y", 2)
        mid = builder.add_internal("m")
        emit_inverter(builder, a, mid, kind.vdd)
        emit_inverter(builder, mid, y, kind.vdd)
    elif kind.name == "TGate":
        check_radix(kind.data_radix)
        d = builder.add_input("d", kind.data_radix)
        en = builder.add_input("en", 2)
        enb = builder.add_input("enb", 2)
        y = builder.add_output("y", kind.data_radix)
        _rail(builder, 0.0)
        emit_tgate(builder, d, y, en, enb, kind.n_chirality, kind.p_chirality)
    elif kind.name == "Mux2":
        check_radix(kind.data_radix)
        d0 = builder.add_input("d0", kind.data_radix)
        d1 = builder.add_input("d1", kind.data_radix)
        s = builder.add_input("s", 2)
        sb = builder.add_input("sb", 2)
        y = builder.add_output("y", kind.data_radix)
        _rail(builder, 0.0)
        emit_mux2(builder, d0, d1, s, sb, y, kind.vdd, kind.sel_swing, kind.data_radix)
    elif kind.name == "Mux3Ternary":
        d = [builder.add_input(f"d{i}", 3) for i in range(3)]
        s = builder.add_input("s", 3)
        y = builder.add_output("y", 3)
        sel = emit_ternary_selects(builder, s, name, kind.vdd)
        emit_mux3_branches(builder, tuple(d), y, sel, name)
    elif kind.name == "Mux4Quaternary":
        d = [builder.add_input(f"d{i}", 4) for i in range(4)]
        s = builder.add_input("s", 4)
        y = builder.add_output("y", 4)
        sel = emit_quaternary_selects(builder, s, name, kind.vdd)
        emit_mux4_branches(builder, tuple(d), y, sel, name)
    elif kind.name == "SuccTernary":
        a = builder.add_input("a", 3)
        y = builder.add_output("y", 3)
        sel = emit_ternary_selects(builder, a, name, kind.vdd)
        rails = _succ_rails(3, kind.k, kind.vdd)
        data = tuple(_rail(builder, v) for v in rails)
        emit_mux3_branches(builder, data, y, sel, name)
    elif kind.name == "SuccQuaternary":
        a = builder.add_input("a", 4)
        y = builder.add_output("y", 4)
        sel = emit_quaternary_selects(builder, a, name, kind.vdd, buffered=False)
        rails = _succ_rails(4, kind.k, kind.vdd)
        data = tuple(_rail(builder, v) for v in rails)
        emit_mux4_branches(builder, data, y, sel, name)
    elif kind.name == "Nand2":
        a = builder.add_input("a", 2)
        bb = builder.add_input("b", 2)
        y = builder.add_output("y", 2)
        vdd = _rail(builder, kind.vdd)
        gnd = _rail(builder, 0.0)
        mid = builder.add_internal("m")
        builder.add_device(Polarity.P, DEFAULT_N, a, vdd, y)
        builder.add_device(Polarity.P, DEFAULT_N, bb, vdd, y)
        builder.add_device(Polarity.N, DEFAULT_N, a, mid, y)
        builder.add_device(Polarity.N, DEFAULT_N, bb, gnd, mid)
    elif kind.name == "Nor2":
        a = builder.add_input("a", 2)
        bb = builder.add_input("b", 2)
        y = builder.add_output("y", 2)
        vdd = _rail(builder, kind.vdd)
        gnd = _rail(builder, 0.0)
        mid = builder.add_internal("m")
        builder.add_device(Polarity.P, DEFAULT_N, a, vdd, mid)
        builder.add_device(Polarity.P, DEFAULT_N, bb, mid, y)
        builder.add_device(Polarity.N, DEFAULT_N, a, gnd, y)
        builder.add_device(Polarity.N, DEFAULT_N, bb, gnd, y)
    elif kind.name == "Xor2":
        a = builder.add_input("a", 2)
        bb = builder.add_input("b", 2)
        y = builder.add_output("y", 2)
        ab = builder.add_internal("ab")
        bbb = builder.add_internal("bbb")
        emit_inverter(builder, a, ab, kind.vdd)
        emit_inverter(builder, bb, bbb, kind.vdd)
        emit_tgate(builder, bb, y, en=ab, enb=a)
        emit_tgate(builder, bbb, y, en=a, enb=ab)
    else:  # pragma: no cover
        raise ValueError(f"unknown gate kind {kind.name!r}")
    return builder.build(name)


# --------------------------------------------------------------------------
# behavioral oracles


def input_ports(kind: GateKind) -> tuple[tuple[str, int], ...]:
    """(port, radix) pairs forming the behavioral-table domain, in key order.

    Complement ports (``enb``, ``sb``) are excluded: harnesses derive them.
    """
    if kind.name in ("Inverter", "Buffer"):
        return (("a", 2),)
    if kind.name in ("NTI", "PTI"):
        return (("a", 3),)
    if kind.name in ("QDetLow", "QDetMid", "QDetHigh"):
        return (("a", 4),)
    if kind.name == "TGate":
        return (("d", kind.data_radix), ("en", 2))
    if kind.name == "Mux2":
        return (("d0", kind.data_radix), ("d1", kind.data_radix), ("s", 2))
    if kind.name == "Mux3Ternary":
        return (("d0", 3), ("d1", 3), ("d2", 3), ("s", 3))
    if kind.name == "Mux4Quaternary":
        return (("d0", 4), ("d1", 4), ("d2", 4), ("d3", 4), ("s", 4))
    if kind.name == "SuccTernary":
        return (("a", 3),)
    if kind.name == "SuccQuaternary":
        return (("a", 4),)
    if kind.name in ("Nand2", "Nor2", "Xor2"):
        return (("a", 2), ("b", 2))
    raise ValueError(f"unknown gate kind {kind.name!r}")


def behavioral_table(kind: GateKind) -> dict[tuple[int, ...], int]:
    """The oracle each built kind is verified against, total on its domain.

    TGate rows cover the enabled state only; a disabled TGate floats.
    """
    domain = [range(r) for _, r in input_ports(kind)]
    table: dict[tuple[int, ...], int] = {}
    for combo in itertools.product(*domain):
        table[combo] = _behavior(kind, combo)
    if kind.name == "TGate":
        table = {combo: out for combo, out in table.items() if combo[1] == 1}
    return table


def _behavior(kind: GateKind, combo: tuple[int, ...]) -> int:
    name = kind.name
    if name == "Inverter":
        return 1 - combo[0]
    if name == "NTI":
        return ni_digit(combo[0])
    if name == "PTI":
        return pi_digit(combo[0])
    if name == "QDetLow":
        return 3 if combo[0] == 0 else 0
    if name == "QDetMid":
        return 3 if combo[0] <= 1 else 0
    if name == "QDetHigh":
        return 3 if combo[0] <= 2 else 0
    if name == "Buffer":
        return combo[0]
    if name == "TGate":
        return combo[0]
    if name == "Mux2":
        d0, d1, s = combo
        return d1 if s else d0
    if name == "Mux3Ternary":
        return combo[combo[3]]
    if name == "Mux4Quaternary":
        return combo[combo[4]]
    if name == "SuccTernary":
        return succ_digit(3, combo[0], kind.k)
    if name == "SuccQuaternary":
        return succ_digit(4, combo[0], kind.k)
    if name == "Nand2":
        return 1 - (combo[0] & combo[1])
    if name == "Nor2":
        return 1 - (combo[0] | combo[1])
    if name == "Xor2":
        return combo[0] ^ combo[1]
    raise ValueError(f"unknown gate kind {name!r}")


# --------------------------------------------------------------------------
# carry-chain fixtures for the RC-restoration comparison


def build_tgate_chain(k: int, restored: bool, vdd: float = 0.9) -> Netlist:
    """A driver inverter feeding k enabled TGates toward an output.

    ``restored`` inserts an inverter after every TGate, which is the
    anti-RC measure the restoring carry inverter implements in the adders.
    """
    if k < 1:
        raise ValueError("chain length must be >= 1")
    b = NetlistBuilder()
    a = b.add_input("a", 2)
    y = b.add_output("y", 2)
    vdd_net = _rail(b, vdd)
    gnd = _rail(b, 0.0)
    node = b.add_internal("n0")
    emit_inverter(b, a, node, vdd)
    for i in range(1, k + 1):
        if restored:
            mid = b.add_internal(f"m{i}")
            emit_tgate(b, node, mid, en=vdd_net, enb=gnd)
            nxt = y if i == k else b.add_internal(f"n{i}")
            emit_inverter(b, mid, nxt, vdd)
        else:
            nxt = y if i == k else b.add_internal(f"n{i}")
            emit_tgate(b, node, nxt, en=vdd_net, enb=gnd)
        node = nxt
    return b.build(f"tgate_chain_{'restored' if restored else 'plain'}_{k}")
