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

The gate kinds and the adders are built from the same emitters: the radix-r
TGate mux :func:`emit_mux_branches` over the (select, complement) pairs of
:func:`emit_ternary_selects` or :func:`emit_quaternary_selects`, the MUX2,
NAND2 and NOR2.  Each kind name is declared once, with its builder and its
behaviour; a kind's ports are read from the netlist it builds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .device import Polarity
from .logic import VoltageMap, check_radix, succ as succ_digit, ni as ni_digit, pi as pi_digit
from .netlist import Netlist, NetlistBuilder

__all__ = [
    "DEFAULT_N",
    "GateKind",
    "build",
    "behavioral_table",
    "input_ports",
    "supply_name",
    "mux2_chiralities",
    "emit_inverter",
    "emit_tgate",
    "emit_detector",
    "emit_mux2",
    "emit_nand2",
    "emit_nor2",
    "emit_ternary_selects",
    "emit_quaternary_selects",
    "emit_mux_branches",
    "build_tgate_chain",
]

DEFAULT_N = 19

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
        if self.name not in _KINDS:
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


def emit_nand2(b: NetlistBuilder, a: str, bb: str, y: str, vdd_v: float, mid: str = "m") -> None:
    """Complementary 2-input NAND; ``mid`` names the stack node between the Ns."""
    vdd = _rail(b, vdd_v)
    gnd = _rail(b, 0.0)
    m = b.fresh(mid)
    b.add_device(Polarity.P, DEFAULT_N, a, vdd, y)
    b.add_device(Polarity.P, DEFAULT_N, bb, vdd, y)
    b.add_device(Polarity.N, DEFAULT_N, a, m, y)
    b.add_device(Polarity.N, DEFAULT_N, bb, gnd, m)


def emit_nor2(b: NetlistBuilder, a: str, bb: str, y: str, vdd_v: float, mid: str = "m") -> None:
    """Complementary 2-input NOR; ``mid`` names the stack node between the Ps."""
    vdd = _rail(b, vdd_v)
    gnd = _rail(b, 0.0)
    m = b.fresh(mid)
    b.add_device(Polarity.P, DEFAULT_N, a, vdd, m)
    b.add_device(Polarity.P, DEFAULT_N, bb, m, y)
    b.add_device(Polarity.N, DEFAULT_N, a, gnd, y)
    b.add_device(Polarity.N, DEFAULT_N, bb, gnd, y)


def emit_ternary_selects(
    b: NetlistBuilder, s: str, prefix: str, vdd: float, inv_n: int = DEFAULT_N
) -> list[tuple[str, str]]:
    """NTI and PTI of ``s`` with their complements, as (select, complement)
    pairs for :func:`emit_mux_branches`; the nets are ``{prefix}n/p/nb/pb``
    and the complementing inverters use chirality ``inv_n``."""
    sn, sp, snb, spb = (b.fresh(f"{prefix}{tag}") for tag in ("n", "p", "nb", "pb"))
    emit_detector(b, "NTI", s, sn, vdd)
    emit_detector(b, "PTI", s, sp, vdd)
    emit_inverter(b, sn, snb, vdd, inv_n, inv_n)
    emit_inverter(b, sp, spb, vdd, inv_n, inv_n)
    return [(sn, snb), (sp, spb)]


def emit_quaternary_selects(
    b: NetlistBuilder, s: str, prefix: str, vdd: float, buffered: bool = True
) -> list[tuple[str, str]]:
    """The three quaternary detectors of ``s`` as (select, complement) pairs."""
    pairs = []
    for tag, det in (("n", "QDetLow"), ("i", "QDetMid"), ("p", "QDetHigh")):
        raw = b.fresh(f"{prefix}_b{tag}")
        emit_detector(b, det, s, raw, vdd)
        inv1 = b.fresh(f"{prefix}_b{tag}b")
        emit_inverter(b, raw, inv1, vdd)
        if buffered:
            # detectors drive many gates; the double inverter is the buffered copy
            inv2 = b.fresh(f"{prefix}_b{tag}bb")
            emit_inverter(b, inv1, inv2, vdd)
            pairs.append((inv2, inv1))
        else:
            pairs.append((raw, inv1))
    return pairs


def emit_mux_branches(
    b: NetlistBuilder,
    data: Sequence[str],
    y: str,
    selects: Sequence[tuple[str, str]],
    prefix: str,
) -> None:
    """Radix-r TGate mux: ``selects`` holds the r - 1 (select, complement)
    pairs of the detectors, each high below its switching level.  Digit 0
    passes while the first select is high, digit r - 1 while the last is
    low, and each middle digit through two series TGates between them."""
    s, sb = selects[0]
    emit_tgate(b, data[0], y, en=s, enb=sb)
    for j in range(1, len(selects)):
        (lo, lob), (hi, hib) = selects[j - 1], selects[j]
        mid = b.fresh(f"{prefix}_m{j}")
        emit_tgate(b, data[j], mid, en=lob, enb=lo)
        emit_tgate(b, mid, y, en=hi, enb=hib)
    s, sb = selects[-1]
    emit_tgate(b, data[-1], y, en=sb, enb=s)


# --------------------------------------------------------------------------
# gate kinds: one builder and one behaviour per kind name

_Builder = Callable[[NetlistBuilder, "GateKind"], None]


def _inverter(b: NetlistBuilder, kind: GateKind) -> None:
    a = b.add_input("a", 2)
    emit_inverter(b, a, b.add_output("y", 2), kind.vdd, kind.n_chirality, kind.p_chirality)


def _detector(b: NetlistBuilder, kind: GateKind) -> None:
    radix = 3 if kind.name in ("NTI", "PTI") else 4
    a = b.add_input("a", radix)
    emit_detector(b, kind.name, a, b.add_output("y", radix), kind.vdd)


def _buffer(b: NetlistBuilder, kind: GateKind) -> None:
    a = b.add_input("a", 2)
    y = b.add_output("y", 2)
    mid = b.add_internal("m")
    emit_inverter(b, a, mid, kind.vdd)
    emit_inverter(b, mid, y, kind.vdd)


def _tgate(b: NetlistBuilder, kind: GateKind) -> None:
    check_radix(kind.data_radix)
    d = b.add_input("d", kind.data_radix)
    en = b.add_input("en", 2)
    enb = b.add_input("enb", 2)
    y = b.add_output("y", kind.data_radix)
    _rail(b, 0.0)
    emit_tgate(b, d, y, en, enb, kind.n_chirality, kind.p_chirality)


def _mux2(b: NetlistBuilder, kind: GateKind) -> None:
    check_radix(kind.data_radix)
    d0 = b.add_input("d0", kind.data_radix)
    d1 = b.add_input("d1", kind.data_radix)
    s = b.add_input("s", 2)
    sb = b.add_input("sb", 2)
    y = b.add_output("y", kind.data_radix)
    _rail(b, 0.0)
    emit_mux2(b, d0, d1, s, sb, y, kind.vdd, kind.sel_swing, kind.data_radix)


def _selects(
    b: NetlistBuilder, s: str, radix: int, kind: GateKind, buffered: bool
) -> list[tuple[str, str]]:
    name = kind.name.lower()
    if radix == 3:
        return emit_ternary_selects(b, s, f"{name}_s", kind.vdd)
    return emit_quaternary_selects(b, s, name, kind.vdd, buffered)


def _mux(radix: int) -> _Builder:
    def build_mux(b: NetlistBuilder, kind: GateKind) -> None:
        data = [b.add_input(f"d{i}", radix) for i in range(radix)]
        s = b.add_input("s", radix)
        y = b.add_output("y", radix)
        selects = _selects(b, s, radix, kind, buffered=True)
        emit_mux_branches(b, data, y, selects, kind.name.lower())

    return build_mux


def _succ(radix: int) -> _Builder:
    def build_succ(b: NetlistBuilder, kind: GateKind) -> None:
        a = b.add_input("a", radix)
        y = b.add_output("y", radix)
        selects = _selects(b, a, radix, kind, buffered=False)
        levels = VoltageMap(kind.vdd, radix).levels
        rails = [_rail(b, levels[succ_digit(radix, d, kind.k)]) for d in range(radix)]
        emit_mux_branches(b, rails, y, selects, kind.name.lower())

    return build_succ


def _two_input(emit: Callable[..., None]) -> _Builder:
    def build_gate(b: NetlistBuilder, kind: GateKind) -> None:
        a = b.add_input("a", 2)
        bb = b.add_input("b", 2)
        emit(b, a, bb, b.add_output("y", 2), kind.vdd)

    return build_gate


def _xor2(b: NetlistBuilder, a: str, bb: str, y: str, vdd: float) -> None:
    ab = b.add_internal("ab")
    bbb = b.add_internal("bbb")
    emit_inverter(b, a, ab, vdd)
    emit_inverter(b, bb, bbb, vdd)
    emit_tgate(b, bb, y, en=ab, enb=a)
    emit_tgate(b, bbb, y, en=a, enb=ab)


# The behaviours are the oracle each built kind is verified against, so they
# are written from ``logic`` alone.  They take the kind and one digit per
# input port; None marks a row outside the table (a disabled TGate floats).
_KINDS: dict[str, tuple[_Builder, Callable[..., int | None]]] = {
    "Inverter": (_inverter, lambda kind, a: 1 - a),
    "NTI": (_detector, lambda kind, a: ni_digit(a)),
    "PTI": (_detector, lambda kind, a: pi_digit(a)),
    "QDetLow": (_detector, lambda kind, a: 3 if a == 0 else 0),
    "QDetMid": (_detector, lambda kind, a: 3 if a <= 1 else 0),
    "QDetHigh": (_detector, lambda kind, a: 3 if a <= 2 else 0),
    "Buffer": (_buffer, lambda kind, a: a),
    "TGate": (_tgate, lambda kind, d, en: d if en else None),
    "Mux2": (_mux2, lambda kind, d0, d1, s: d1 if s else d0),
    "Mux3Ternary": (_mux(3), lambda kind, *combo: combo[combo[-1]]),
    "Mux4Quaternary": (_mux(4), lambda kind, *combo: combo[combo[-1]]),
    "SuccTernary": (_succ(3), lambda kind, a: succ_digit(3, a, kind.k)),
    "SuccQuaternary": (_succ(4), lambda kind, a: succ_digit(4, a, kind.k)),
    "Nand2": (_two_input(emit_nand2), lambda kind, a, b: 1 - (a & b)),
    "Nor2": (_two_input(emit_nor2), lambda kind, a, b: 1 - (a | b)),
    "Xor2": (_two_input(_xor2), lambda kind, a, b: a ^ b),
}


def build(kind: GateKind) -> Netlist:
    """Build the kind as a flat netlist with named ports."""
    builder = NetlistBuilder()
    _KINDS[kind.name][0](builder, kind)
    return builder.build(kind.name.lower())


def input_ports(kind: GateKind) -> tuple[tuple[str, int], ...]:
    """(port, radix) pairs forming the behavioral-table domain: the built
    netlist's inputs in order, without the complement ports ``enb`` and
    ``sb``, which harnesses derive."""
    return tuple((n.name, n.radix) for n in build(kind).inputs if n.name not in ("enb", "sb"))


def behavioral_table(kind: GateKind) -> dict[tuple[int, ...], int]:
    """The oracle each built kind is verified against, total on its domain.

    TGate rows cover the enabled state only; a disabled TGate floats.
    """
    behave = _KINDS[kind.name][1]
    domain = itertools.product(*(range(r) for _, r in input_ports(kind)))
    table = {combo: behave(kind, *combo) for combo in domain}
    return {combo: out for combo, out in table.items() if out is not None}


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
