"""The seven full-adder designs, the N-digit CPA composer, and exhaustive
verification against the arithmetic oracle.

All m-valued designs share one scheme: sum candidates S0/S1 are the input A
and its cyclic successors selected by B, the complemented conditional
carries C0b/C1b come from the same select network over detector outputs,
and a final MUX2 on the carry-in picks between them.  The carry output is
always restored by an inverter powered at the configured carry swing, which
is what keeps an N-stage carry chain linear instead of an RC ladder.

TFA2 / QFA1 / QFA2 use the uniform n=19 transmission-gate fabric.  TFA1 is
the compact variant: single-polarity rail switches and n=10 devices wherever
a full-swing gate signal allows the higher threshold, trading drive strength
(delay) for roughly two thirds of the TFA2 footprint.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .device import Polarity
from .logic import CarrySwing, VoltageMap, check_radix, value_to_digits
from .netlist import Netlist, NetlistBuilder, flatten
from .gates import (
    DEFAULT_N,
    emit_inverter,
    emit_detector,
    emit_mux2,
    emit_mux3_branches,
    emit_mux4_branches,
    emit_quaternary_selects,
    emit_tgate,
    supply_name,
)
from . import solver

__all__ = [
    "AdderVariant",
    "FullAdder",
    "CpaConfig",
    "Cpa",
    "build_full_adder",
    "build_cpa",
    "verify_exhaustive",
    "verify_design",
    "VerifyReport",
    "all_single_stage_designs",
]

# Reduced-swing restoring inverters use the lowest-threshold device so the
# carry path stays within striking distance of the full-swing version.
_LOW_VTH_N = 37

# The largest [vectors x nets] float64 table verify_exhaustive may ask the
# solver for; larger requests are refused before anything is built.
_MAX_TABLE_BYTES = 256 * 2**20


class AdderVariant(enum.Enum):
    TFA1 = "TFA1"
    TFA2 = "TFA2"
    QFA1 = "QFA1"
    QFA2 = "QFA2"
    BFA1_14T = "BFA1_14T"
    BFA2_28T = "BFA2_28T"
    BFA3_MUX = "BFA3_MUX"

    @property
    def radix(self) -> int:
        return {"T": 3, "Q": 4, "B": 2}[self.value[0]]

    @property
    def is_mux_style(self) -> bool:
        return self in (
            AdderVariant.TFA1,
            AdderVariant.TFA2,
            AdderVariant.QFA1,
            AdderVariant.QFA2,
            AdderVariant.BFA3_MUX,
        )


@dataclass(frozen=True)
class FullAdder:
    """A built single-digit adder plus the configuration that shaped it."""

    variant: AdderVariant
    carry_swing: CarrySwing
    vdd: float
    netlist: Netlist

    @property
    def radix(self) -> int:
        return self.variant.radix

    @property
    def swing_v(self) -> float:
        return self.carry_swing.carry_high_v(self.radix, self.vdd)

    @property
    def label(self) -> str:
        return f"{self.variant.value}[{self.carry_swing.value},{self.vdd:g}V]"

    def input_maps(self) -> dict[str, VoltageMap]:
        digit = VoltageMap(self.vdd, self.radix)
        return {"A": digit, "B": digit, "Cin": VoltageMap(self.swing_v, 2)}

    def output_maps(self) -> dict[str, VoltageMap]:
        return {
            "Sum": VoltageMap(self.vdd, self.radix),
            "Cout": VoltageMap(self.swing_v, 2),
        }

    def loaded_nets(self) -> tuple[str, ...]:
        """The outputs, which carry the load in timing and power."""
        return tuple(n.name for n in self.netlist.outputs)


def build_full_adder(
    variant: AdderVariant,
    carry_swing: CarrySwing | None = None,
    vdd: float = 0.9,
) -> FullAdder:
    """Build one adder; raises on an illegal variant/swing/vdd combination."""
    if not math.isfinite(vdd):
        raise ValueError(f"vdd must be a finite voltage, got {vdd}")
    if carry_swing is None:
        carry_swing = CarrySwing.REDUCED if variant is AdderVariant.QFA1 else CarrySwing.FULL
    if variant is AdderVariant.QFA1 and carry_swing is not CarrySwing.REDUCED:
        raise ValueError("QFA1 is the reduced-carry-swing quaternary adder")
    if variant is AdderVariant.QFA2 and carry_swing is not CarrySwing.FULL:
        raise ValueError("QFA2 is the full-carry-swing quaternary adder")
    if variant.radix == 2:
        if not any(abs(vdd - v) < 1e-9 for v in (0.9, 0.45)):
            raise ValueError(f"binary adders run at 0.9 or 0.45 V, got {vdd}")
    elif abs(vdd - 0.9) > 1e-9:
        raise ValueError(f"m-valued adders run at vdd 0.9 V, got {vdd}")

    b = NetlistBuilder()
    if variant in (AdderVariant.TFA1, AdderVariant.TFA2):
        _build_ternary_mux(b, variant, carry_swing, vdd)
    elif variant in (AdderVariant.QFA1, AdderVariant.QFA2):
        _build_quaternary_mux(b, carry_swing, vdd)
    elif variant is AdderVariant.BFA1_14T:
        _build_bfa1(b, vdd)
    elif variant is AdderVariant.BFA2_28T:
        _build_bfa2(b, vdd)
    else:
        _build_bfa3(b, vdd)
    netlist = b.build(variant.value.lower())
    return FullAdder(variant, carry_swing, vdd, netlist)


def _carry_cell_plan(radix: int, carry_swing: CarrySwing, vdd: float) -> dict:
    """Chirality and supply choices for the Cin complement and Cout restorer."""
    swing_v = carry_swing.carry_high_v(radix, vdd)
    if carry_swing is CarrySwing.FULL or radix == 2:
        return {"swing_v": swing_v, "cinb": ("inv", DEFAULT_N, DEFAULT_N), "cout_n": DEFAULT_N}
    if radix == 3:
        return {"swing_v": swing_v, "cinb": ("det", "NTI"), "cout_n": _LOW_VTH_N}
    return {"swing_v": swing_v, "cinb": ("det", "QDetLow"), "cout_n": _LOW_VTH_N}


def _emit_carry_tail(
    b: NetlistBuilder,
    c0b: str,
    c1b: str,
    s0: str,
    s1: str,
    cin: str,
    sum_out: str,
    cout: str,
    radix: int,
    carry_swing: CarrySwing,
    vdd: float,
) -> None:
    """Shared MUX2-on-Cin stage: sum select plus restored carry output."""
    plan = _carry_cell_plan(radix, carry_swing, vdd)
    swing_v = plan["swing_v"]
    cinb = b.fresh("cinb")
    if plan["cinb"][0] == "inv":
        emit_inverter(b, cin, cinb, vdd, plan["cinb"][1], plan["cinb"][2])
    else:
        emit_detector(b, plan["cinb"][1], cin, cinb, vdd)
    emit_mux2(b, s0, s1, cin, cinb, sum_out, vdd, sel_swing=swing_v, data_radix=radix)
    coutb = b.fresh("coutb")
    emit_mux2(b, c0b, c1b, cin, cinb, coutb, vdd, sel_swing=swing_v)
    emit_inverter(b, coutb, cout, swing_v, n_n=plan["cout_n"], n_p=plan["cout_n"])


def _build_ternary_mux(
    b: NetlistBuilder, variant: AdderVariant, carry_swing: CarrySwing, vdd: float
) -> None:
    a = b.add_input("A", 3)
    bb = b.add_input("B", 3)
    cin = b.add_input("Cin", 2)
    sum_out = b.add_output("Sum", 3)
    cout = b.add_output("Cout", 2)
    compact = variant is AdderVariant.TFA1
    inv_n = 10 if compact else DEFAULT_N

    vdd_net = b.add_supply(supply_name(vdd), vdd)
    gnd = b.add_supply(supply_name(0.0), 0.0)
    half = b.add_supply(supply_name(vdd / 2), vdd / 2)

    an = b.fresh("an")
    ap = b.fresh("ap")
    anb = b.fresh("anb")
    apb = b.fresh("apb")
    emit_detector(b, "NTI", a, an, vdd)
    emit_detector(b, "PTI", a, ap, vdd)
    emit_inverter(b, an, anb, vdd, inv_n, inv_n)
    emit_inverter(b, ap, apb, vdd, inv_n, inv_n)
    asel = {"sn": an, "sp": ap, "snb": anb, "spb": apb}

    a1 = b.fresh("a1")
    a2 = b.fresh("a2")
    if compact:
        # rail switches: full TGates only where the rail is the middle level
        emit_tgate(b, half, a1, en=an, enb=anb)
        m = b.fresh("a1_hi")
        b.add_device(Polarity.P, 10, an, vdd_net, m)
        b.add_device(Polarity.P, 10, apb, m, a1)
        m = b.fresh("a1_lo")
        b.add_device(Polarity.N, 10, anb, gnd, m)
        b.add_device(Polarity.N, 10, apb, m, a1)
        b.add_device(Polarity.P, 10, anb, vdd_net, a2)
        m = b.fresh("a2_lo")
        b.add_device(Polarity.N, 10, anb, gnd, m)
        b.add_device(Polarity.N, 10, ap, m, a2)
        emit_tgate(b, half, a2, en=apb, enb=ap)
    else:
        emit_mux3_branches(b, (half, vdd_net, gnd), a1, asel, "a1")
        emit_mux3_branches(b, (vdd_net, gnd, half), a2, asel, "a2")

    bn = b.fresh("bn")
    bp = b.fresh("bp")
    bnb = b.fresh("bnb")
    bpb = b.fresh("bpb")
    emit_detector(b, "NTI", bb, bn, vdd)
    emit_detector(b, "PTI", bb, bp, vdd)
    emit_inverter(b, bn, bnb, vdd, inv_n, inv_n)
    emit_inverter(b, bp, bpb, vdd, inv_n, inv_n)
    bsel = {"sn": bn, "sp": bp, "snb": bnb, "spb": bpb}

    s0 = b.fresh("s0")
    s1 = b.fresh("s1")
    emit_mux3_branches(b, (a, a1, a2), s0, bsel, "s0")
    emit_mux3_branches(b, (a1, a2, a), s1, bsel, "s1")

    c0b = b.fresh("c0b")
    c1b = b.fresh("c1b")
    if compact:
        # carry data is full-swing binary, so n=10 switches suffice
        b.add_device(Polarity.P, 10, bnb, vdd_net, c0b)
        m = b.fresh("c0b_m")
        emit_tgate(b, ap, m, en=bnb, enb=bn, n_n=10, n_p=10)
        emit_tgate(b, m, c0b, en=bp, enb=bpb, n_n=10, n_p=10)
        emit_tgate(b, an, c0b, en=bpb, enb=bp, n_n=10, n_p=10)
        emit_tgate(b, ap, c1b, en=bn, enb=bnb, n_n=10, n_p=10)
        m = b.fresh("c1b_m")
        emit_tgate(b, an, m, en=bnb, enb=bn, n_n=10, n_p=10)
        emit_tgate(b, m, c1b, en=bp, enb=bpb, n_n=10, n_p=10)
        b.add_device(Polarity.N, 10, bpb, gnd, c1b)
    else:
        emit_mux3_branches(b, (vdd_net, ap, an), c0b, bsel, "c0b")
        emit_mux3_branches(b, (ap, an, gnd), c1b, bsel, "c1b")

    if compact:
        _emit_carry_tail_compact(b, c0b, c1b, s0, s1, cin, sum_out, cout, carry_swing, vdd)
    else:
        _emit_carry_tail(b, c0b, c1b, s0, s1, cin, sum_out, cout, 3, carry_swing, vdd)


def _emit_carry_tail_compact(
    b: NetlistBuilder,
    c0b: str,
    c1b: str,
    s0: str,
    s1: str,
    cin: str,
    sum_out: str,
    cout: str,
    carry_swing: CarrySwing,
    vdd: float,
) -> None:
    """TFA1 tail: same topology, n=10 switches on the binary carry mux."""
    plan = _carry_cell_plan(3, carry_swing, vdd)
    swing_v = plan["swing_v"]
    cinb = b.fresh("cinb")
    if plan["cinb"][0] == "inv":
        emit_inverter(b, cin, cinb, vdd)
    else:
        emit_detector(b, plan["cinb"][1], cin, cinb, vdd)
    emit_mux2(b, s0, s1, cin, cinb, sum_out, vdd, sel_swing=swing_v)
    coutb = b.fresh("coutb")
    if carry_swing is CarrySwing.FULL:
        emit_tgate(b, c1b, coutb, en=cin, enb=cinb, n_n=10, n_p=10)
        emit_tgate(b, c0b, coutb, en=cinb, enb=cin, n_n=10, n_p=10)
    else:
        # N by the reduced select needs the low threshold; both P stay at n=10
        b.add_device(Polarity.N, DEFAULT_N, cin, c1b, coutb)
        b.add_device(Polarity.P, 10, cinb, c1b, coutb)
        b.add_device(Polarity.N, 10, cinb, c0b, coutb)
        b.add_device(Polarity.P, 10, cin, c0b, coutb)
    emit_inverter(b, coutb, cout, swing_v, n_n=plan["cout_n"], n_p=plan["cout_n"])


def _build_quaternary_mux(b: NetlistBuilder, carry_swing: CarrySwing, vdd: float) -> None:
    a = b.add_input("A", 4)
    bb = b.add_input("B", 4)
    cin = b.add_input("Cin", 2)
    sum_out = b.add_output("Sum", 4)
    cout = b.add_output("Cout", 2)

    vdd_net = b.add_supply(supply_name(vdd), vdd)
    gnd = b.add_supply(supply_name(0.0), 0.0)
    third = b.add_supply(supply_name(vdd / 3), vdd / 3)
    two_thirds = b.add_supply(supply_name(2 * vdd / 3), 2 * vdd / 3)

    asel_raw = emit_quaternary_selects(b, a, "a", vdd, buffered=False)
    an, ai, ap = asel_raw["bn"], asel_raw["bi"], asel_raw["bp"]
    a_succ = []
    rails = {0: gnd, 1: third, 2: two_thirds, 3: vdd_net}
    for k in (1, 2, 3):
        y = b.fresh(f"a{k}")
        data = tuple(rails[(digit + k) % 4] for digit in range(4))
        emit_mux4_branches(b, data, y, asel_raw, f"a{k}")
        a_succ.append(y)
    a1, a2, a3 = a_succ

    bsel = emit_quaternary_selects(b, bb, "b", vdd, buffered=True)

    s0 = b.fresh("s0")
    s1 = b.fresh("s1")
    emit_mux4_branches(b, (a, a1, a2, a3), s0, bsel, "s0")
    emit_mux4_branches(b, (a1, a2, a3, a), s1, bsel, "s1")

    c0b = b.fresh("c0b")
    c1b = b.fresh("c1b")
    emit_mux4_branches(b, (vdd_net, ap, ai, an), c0b, bsel, "c0b")
    emit_mux4_branches(b, (ap, ai, an, gnd), c1b, bsel, "c1b")

    _emit_carry_tail(b, c0b, c1b, s0, s1, cin, sum_out, cout, 4, carry_swing, vdd)


def _build_bfa1(b: NetlistBuilder, vdd: float) -> None:
    """Transmission-gate binary adder: NAND/NOR conditionals into the carry
    mux, XOR via an OAI stage.  Complementary gates throughout; the classic
    threshold-drop pass-transistor tricks are not representable under an
    ideal-switch model."""
    a = b.add_input("A", 2)
    bb = b.add_input("B", 2)
    cin = b.add_input("Cin", 2)
    sum_out = b.add_output("Sum", 2)
    cout = b.add_output("Cout", 2)
    vdd_net = b.add_supply(supply_name(vdd), vdd)
    gnd = b.add_supply(supply_name(0.0), 0.0)

    nand = b.fresh("nand_ab")
    m = b.fresh("nand_m")
    b.add_device(Polarity.P, DEFAULT_N, a, vdd_net, nand)
    b.add_device(Polarity.P, DEFAULT_N, bb, vdd_net, nand)
    b.add_device(Polarity.N, DEFAULT_N, a, m, nand)
    b.add_device(Polarity.N, DEFAULT_N, bb, gnd, m)

    nor = b.fresh("nor_ab")
    m = b.fresh("nor_m")
    b.add_device(Polarity.P, DEFAULT_N, a, vdd_net, m)
    b.add_device(Polarity.P, DEFAULT_N, bb, m, nor)
    b.add_device(Polarity.N, DEFAULT_N, a, gnd, nor)
    b.add_device(Polarity.N, DEFAULT_N, bb, gnd, nor)

    # h = NOT(nor + a*b) = a XOR b
    h = b.fresh("h")
    u = b.fresh("h_u")
    k = b.fresh("h_k")
    b.add_device(Polarity.P, DEFAULT_N, nor, vdd_net, u)
    b.add_device(Polarity.P, DEFAULT_N, a, u, h)
    b.add_device(Polarity.P, DEFAULT_N, bb, u, h)
    b.add_device(Polarity.N, DEFAULT_N, nor, gnd, h)
    b.add_device(Polarity.N, DEFAULT_N, a, gnd, k)
    b.add_device(Polarity.N, DEFAULT_N, bb, k, h)

    hb = b.fresh("hb")
    emit_inverter(b, h, hb, vdd)
    cinb = b.fresh("cinb")
    emit_inverter(b, cin, cinb, vdd)

    emit_mux2(b, h, hb, cin, cinb, sum_out, vdd)
    coutb = b.fresh("coutb")
    emit_mux2(b, nand, nor, cin, cinb, coutb, vdd)
    emit_inverter(b, coutb, cout, vdd)


def _build_bfa2(b: NetlistBuilder, vdd: float) -> None:
    """The classic complementary 28-transistor (mirror) adder."""
    a = b.add_input("A", 2)
    bb = b.add_input("B", 2)
    cin = b.add_input("Cin", 2)
    sum_out = b.add_output("Sum", 2)
    cout = b.add_output("Cout", 2)
    vdd_net = b.add_supply(supply_name(vdd), vdd)
    gnd = b.add_supply(supply_name(0.0), 0.0)

    coutb = b.fresh("coutb")
    k = b.fresh("cb_k")
    m = b.fresh("cb_m")
    b.add_device(Polarity.N, DEFAULT_N, a, gnd, k)
    b.add_device(Polarity.N, DEFAULT_N, bb, k, coutb)
    b.add_device(Polarity.N, DEFAULT_N, a, gnd, m)
    b.add_device(Polarity.N, DEFAULT_N, bb, gnd, m)
    b.add_device(Polarity.N, DEFAULT_N, cin, m, coutb)
    u = b.fresh("cb_u")
    w = b.fresh("cb_w")
    b.add_device(Polarity.P, DEFAULT_N, a, vdd_net, u)
    b.add_device(Polarity.P, DEFAULT_N, bb, vdd_net, u)
    b.add_device(Polarity.P, DEFAULT_N, cin, u, coutb)
    b.add_device(Polarity.P, DEFAULT_N, a, u, w)
    b.add_device(Polarity.P, DEFAULT_N, bb, w, coutb)
    emit_inverter(b, coutb, cout, vdd)

    sumb = b.fresh("sumb")
    p1 = b.fresh("sb_p1")
    p2 = b.fresh("sb_p2")
    b.add_device(Polarity.N, DEFAULT_N, a, gnd, p1)
    b.add_device(Polarity.N, DEFAULT_N, bb, p1, p2)
    b.add_device(Polarity.N, DEFAULT_N, cin, p2, sumb)
    q = b.fresh("sb_q")
    b.add_device(Polarity.N, DEFAULT_N, a, gnd, q)
    b.add_device(Polarity.N, DEFAULT_N, bb, gnd, q)
    b.add_device(Polarity.N, DEFAULT_N, cin, gnd, q)
    b.add_device(Polarity.N, DEFAULT_N, coutb, q, sumb)
    r1 = b.fresh("sb_r1")
    r2 = b.fresh("sb_r2")
    b.add_device(Polarity.P, DEFAULT_N, a, vdd_net, r1)
    b.add_device(Polarity.P, DEFAULT_N, bb, r1, r2)
    b.add_device(Polarity.P, DEFAULT_N, cin, r2, sumb)
    t = b.fresh("sb_t")
    b.add_device(Polarity.P, DEFAULT_N, a, vdd_net, t)
    b.add_device(Polarity.P, DEFAULT_N, bb, vdd_net, t)
    b.add_device(Polarity.P, DEFAULT_N, cin, vdd_net, t)
    b.add_device(Polarity.P, DEFAULT_N, coutb, t, sumb)
    emit_inverter(b, sumb, sum_out, vdd)


def _build_bfa3(b: NetlistBuilder, vdd: float) -> None:
    """MUX-approach binary adder, same circuit style as the m-valued ones."""
    a = b.add_input("A", 2)
    bb = b.add_input("B", 2)
    cin = b.add_input("Cin", 2)
    sum_out = b.add_output("Sum", 2)
    cout = b.add_output("Cout", 2)
    vdd_net = b.add_supply(supply_name(vdd), vdd)
    gnd = b.add_supply(supply_name(0.0), 0.0)

    ab = b.fresh("ab")
    bbb = b.fresh("bb")
    cinb = b.fresh("cinb")
    emit_inverter(b, a, ab, vdd)
    emit_inverter(b, bb, bbb, vdd)
    emit_inverter(b, cin, cinb, vdd)

    s0 = b.fresh("s0")
    s1 = b.fresh("s1")
    emit_mux2(b, a, ab, bb, bbb, s0, vdd)
    emit_mux2(b, ab, a, bb, bbb, s1, vdd)
    emit_mux2(b, s0, s1, cin, cinb, sum_out, vdd)

    c0b = b.fresh("c0b")
    c1b = b.fresh("c1b")
    emit_mux2(b, vdd_net, ab, bb, bbb, c0b, vdd)
    emit_mux2(b, ab, gnd, bb, bbb, c1b, vdd)
    coutb = b.fresh("coutb")
    emit_mux2(b, c0b, c1b, cin, cinb, coutb, vdd)
    emit_inverter(b, coutb, cout, vdd)


# --------------------------------------------------------------------------
# carry-propagate adders


@dataclass(frozen=True)
class CpaConfig:
    variant: AdderVariant
    digits: int
    carry_swing: CarrySwing
    vdd: float = 0.9

    def __post_init__(self) -> None:
        if self.digits < 1:
            raise ValueError("a CPA needs at least one digit")

    @property
    def radix(self) -> int:
        return self.variant.radix

    @property
    def label(self) -> str:
        return (
            f"{self.digits}x{self.variant.value}"
            f"[{self.carry_swing.value},{self.vdd:g}V]"
        )


@dataclass(frozen=True)
class Cpa:
    """A chained carry-propagate adder; carries ripple Cout_i -> Cin_{i+1}."""

    config: CpaConfig
    stage: FullAdder
    hierarchical: Netlist
    netlist: Netlist

    @property
    def radix(self) -> int:
        return self.config.radix

    @property
    def digits(self) -> int:
        return self.config.digits

    @property
    def a_ports(self) -> tuple[str, ...]:
        return tuple(f"A{i}" for i in range(self.digits))

    @property
    def b_ports(self) -> tuple[str, ...]:
        return tuple(f"B{i}" for i in range(self.digits))

    @property
    def s_ports(self) -> tuple[str, ...]:
        return tuple(f"S{i}" for i in range(self.digits))

    @property
    def carry_nets(self) -> tuple[str, ...]:
        return tuple(f"c{i}" for i in range(1, self.digits)) + ("C_final",)

    def input_maps(self) -> dict[str, VoltageMap]:
        digit = VoltageMap(self.config.vdd, self.radix)
        maps = {p: digit for p in self.a_ports + self.b_ports}
        maps["C0"] = VoltageMap(self.stage.swing_v, 2)
        return maps

    def output_maps(self) -> dict[str, VoltageMap]:
        digit = VoltageMap(self.config.vdd, self.radix)
        maps = {p: digit for p in self.s_ports}
        maps["C_final"] = VoltageMap(self.stage.swing_v, 2)
        return maps

    def loaded_nets(self) -> tuple[str, ...]:
        """Every stage output: the sums plus the rippling carry nets."""
        return self.s_ports + self.carry_nets


def build_cpa(config: CpaConfig) -> Cpa:
    stage = build_full_adder(config.variant, config.carry_swing, config.vdd)
    stage_def = replace(stage.netlist, name=f"{config.variant.value.lower()}_stage")
    b = NetlistBuilder()
    b.add_supply(supply_name(0.0), 0.0)
    radix = config.radix
    for i in range(config.digits):
        b.add_input(f"A{i}", radix)
    for i in range(config.digits):
        b.add_input(f"B{i}", radix)
    b.add_input("C0", 2)
    for i in range(config.digits):
        b.add_output(f"S{i}", radix)
    b.add_output("C_final", 2)
    b.add_subckt(stage_def)
    carries = ["C0"]
    for i in range(1, config.digits):
        carries.append(b.add_internal(f"c{i}"))
    carries.append("C_final")
    for i in range(config.digits):
        b.add_instance(
            stage_def.name,
            f"fa{i}",
            {
                "A": f"A{i}",
                "B": f"B{i}",
                "Cin": carries[i],
                "Sum": f"S{i}",
                "Cout": carries[i + 1],
            },
        )
    hierarchical = b.build(f"cpa_{config.digits}x{config.variant.value.lower()}")
    return Cpa(config, stage, hierarchical, flatten(hierarchical))


# --------------------------------------------------------------------------
# exhaustive verification


@dataclass
class VerifyReport:
    design: str
    vectors: int
    failures: int
    conflicts: int
    nonconverged: int
    floating_outputs: int
    failure_samples: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.failures == 0 and self.conflicts == 0 and self.nonconverged == 0


def verify_exhaustive(
    netlist: Netlist,
    radix: int,
    digits: int,
    *,
    vdd: float | None = None,
    carry_high_v: float | None = None,
    label: str | None = None,
) -> VerifyReport:
    """Drive every (A, B, carry-in) combination and check the addition
    identity value(A) + value(B) + cin == value(S) + radix^digits * cout.

    Output digits must decode with full swing; conflicts, non-convergence
    and floating outputs all count against the design.  A request whose
    ``[vectors x nets]`` value table would exceed 256 MiB is a ValueError.
    """
    check_radix(radix)
    comp = solver.compile_netlist(netlist)
    if vdd is None:
        vdd = netlist.max_supply_v()
    if carry_high_v is None:
        carry_high_v = vdd
    if digits == 1:
        a_ports, b_ports, cin_port = ("A",), ("B",), "Cin"
        s_ports, cout_port = ("Sum",), "Cout"
    else:
        a_ports = tuple(f"A{i}" for i in range(digits))
        b_ports = tuple(f"B{i}" for i in range(digits))
        cin_port = "C0"
        s_ports = tuple(f"S{i}" for i in range(digits))
        cout_port = "C_final"

    span = radix**digits
    n_vec = span * span * 2
    if n_vec * comp.n_nets * 8 > _MAX_TABLE_BYTES:
        raise ValueError(
            f"exhaustive verification of {n_vec:,} vectors over {comp.n_nets} nets "
            f"exceeds the {_MAX_TABLE_BYTES // 2**20} MiB limit per [vectors x nets] table"
        )
    a_vals = np.repeat(np.arange(span), span * 2)
    b_vals = np.tile(np.repeat(np.arange(span), 2), span)
    cin_vals = np.tile(np.array([0, 1]), span * span)

    digit_step = vdd / (radix - 1)
    columns: dict[str, np.ndarray] = {}
    for i, port in enumerate(a_ports):
        columns[port] = ((a_vals // radix**i) % radix) * digit_step
    for i, port in enumerate(b_ports):
        columns[port] = ((b_vals // radix**i) % radix) * digit_step
    columns[cin_port] = cin_vals * carry_high_v

    result = solver.solve_dc_batch(comp, columns)
    band = 0.05 * vdd

    def decode(port: str, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v = result.values[:, comp.index[port]]
        dist = np.abs(v[:, None] - levels[None, :])
        digit = np.nanargmin(np.where(np.isnan(dist), np.inf, dist), axis=1)
        best = dist[np.arange(len(v)), digit]
        ok = ~np.isnan(v) & (best <= band)
        return digit, ok

    digit_levels = np.arange(radix) * digit_step
    carry_levels = np.array([0.0, carry_high_v])

    sum_value = np.zeros(n_vec, dtype=np.int64)
    decode_ok = np.ones(n_vec, dtype=bool)
    for i, port in enumerate(s_ports):
        digit, ok = decode(port, digit_levels)
        sum_value += digit * radix**i
        decode_ok &= ok
    cout_digit, cout_ok = decode(cout_port, carry_levels)
    decode_ok &= cout_ok

    expected = a_vals + b_vals + cin_vals
    got = sum_value + span * cout_digit
    fail = ~decode_ok | (got != expected) | result.conflict | result.nonconverged

    out_idx = [comp.index[p] for p in (*s_ports, cout_port)]
    floating_rows = np.isnan(result.values[:, out_idx]).any(axis=1)

    samples = []
    for v in np.nonzero(fail)[0][:20]:
        samples.append(
            f"A={value_to_digits(radix, int(a_vals[v]), digits)} "
            f"B={value_to_digits(radix, int(b_vals[v]), digits)} "
            f"cin={int(cin_vals[v])}: expected {int(expected[v])}, "
            f"decoded {int(got[v])}"
            + (" [conflict]" if result.conflict[v] else "")
            + (" [floating]" if floating_rows[v] else "")
        )
    return VerifyReport(
        design=label or netlist.name,
        vectors=n_vec,
        failures=int(fail.sum()),
        conflicts=int(result.conflict.sum()),
        nonconverged=int(result.nonconverged.sum()),
        floating_outputs=int(floating_rows.sum()),
        failure_samples=tuple(samples),
    )


def verify_design(design: FullAdder | Cpa) -> VerifyReport:
    """Exhaustive verification with the design's own voltage configuration."""
    if isinstance(design, FullAdder):
        return verify_exhaustive(
            design.netlist,
            design.radix,
            1,
            vdd=design.vdd,
            carry_high_v=design.swing_v,
            label=design.label,
        )
    return verify_exhaustive(
        design.netlist,
        design.radix,
        design.digits,
        vdd=design.config.vdd,
        carry_high_v=design.stage.swing_v,
        label=design.config.label,
    )


def all_single_stage_designs() -> tuple[FullAdder, ...]:
    """Every legal (variant, swing, vdd) combination, for sweeps and tests."""
    designs = []
    for variant in (AdderVariant.TFA1, AdderVariant.TFA2):
        for swing in (CarrySwing.REDUCED, CarrySwing.FULL):
            designs.append(build_full_adder(variant, swing))
    designs.append(build_full_adder(AdderVariant.QFA1))
    designs.append(build_full_adder(AdderVariant.QFA2))
    for variant in (AdderVariant.BFA1_14T, AdderVariant.BFA2_28T, AdderVariant.BFA3_MUX):
        for vdd in (0.9, 0.45):
            designs.append(build_full_adder(variant, CarrySwing.FULL, vdd))
    return tuple(designs)
