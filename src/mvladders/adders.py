"""The seven full-adder designs, the N-digit CPA composer, and exhaustive
verification against the arithmetic oracle.

A single-digit :class:`FullAdder` and an N-digit :class:`Cpa` describe
themselves the same way: the digit count, label, supply, carry-1 voltage and
the names of their A, B, sum, carry-in and carry-out ports.  Verification,
timing, power and the CLI read that description and never test the type;
:func:`verify_design` is the one exhaustive verifier.

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
from functools import cached_property

import numpy as np

from .device import Polarity
from .logic import CarrySwing, VoltageMap, value_to_digits
from .netlist import Netlist, NetlistBuilder, flatten
from .gates import (
    DEFAULT_N,
    emit_inverter,
    emit_detector,
    emit_mux2,
    emit_mux_branches,
    emit_nand2,
    emit_nor2,
    emit_quaternary_selects,
    emit_ternary_selects,
    emit_tgate,
    mux2_chiralities,
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
    "verify_design",
    "VerifyReport",
    "all_single_stage_designs",
]

# Reduced-swing restoring inverters use the lowest-threshold device so the
# carry path stays within striking distance of the full-swing version.
_LOW_VTH_N = 37

# verify_design builds, solves and decodes this many vectors at a time, one
# solve_dc_batch call each; at least 13,122, so every comparison CPA and
# every single-stage adder is one chunk.
_VERIFY_CHUNK = 16_384
# The most vectors verify_design takes on; larger designs are refused before
# anything is built.
_MAX_VERIFY_VECTORS = 2**22


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
    def default_swing(self) -> CarrySwing:
        """QFA1 is the reduced-carry-swing adder; every other variant
        defaults to a full-swing carry."""
        return CarrySwing.REDUCED if self is AdderVariant.QFA1 else CarrySwing.FULL


class _Design:
    """What every design exposes: ``radix``, ``digits``, ``label``, ``vdd``,
    the carry-1 voltage ``swing_v``, the ``netlist`` (flat) and its
    ``hierarchical`` source, and its port names: ``a_ports``, ``b_ports``
    and ``s_ports`` (least significant digit first), ``cin_port``,
    ``cout_port``, and ``carry_nets``, the carry each stage drives.  The
    voltage maps and the loaded nets are written once from those, and the
    netlist is compiled once per design object, on first use."""

    @cached_property
    def compiled(self) -> solver.CompiledNetlist:
        """The flat netlist compiled for the solver, with its CCR plan built
        on first use; kept for this design object's lifetime."""
        return solver.compile_netlist(self.netlist)

    def input_maps(self) -> dict[str, VoltageMap]:
        maps = dict.fromkeys(self.a_ports + self.b_ports, VoltageMap(self.vdd, self.radix))
        maps[self.cin_port] = VoltageMap(self.swing_v, 2)
        return maps

    def output_maps(self) -> dict[str, VoltageMap]:
        maps = dict.fromkeys(self.s_ports, VoltageMap(self.vdd, self.radix))
        maps[self.cout_port] = VoltageMap(self.swing_v, 2)
        return maps

    def loaded_nets(self) -> tuple[str, ...]:
        """Every stage output, which carries the load in timing and power:
        the sums plus the carries, rippling ones included."""
        return self.s_ports + self.carry_nets


@dataclass(frozen=True)
class FullAdder(_Design):
    """A built single-digit adder plus the configuration that shaped it."""

    variant: AdderVariant
    carry_swing: CarrySwing
    vdd: float
    netlist: Netlist

    digits = 1
    a_ports, b_ports, s_ports = ("A",), ("B",), ("Sum",)
    cin_port, cout_port = "Cin", "Cout"
    carry_nets = ("Cout",)

    @property
    def radix(self) -> int:
        return self.variant.radix

    @property
    def swing_v(self) -> float:
        return self.carry_swing.carry_high_v(self.radix, self.vdd)

    @property
    def label(self) -> str:
        return f"{self.variant.value}[{self.carry_swing.value},{self.vdd:g}V]"

    @property
    def hierarchical(self) -> Netlist:
        return self.netlist


def build_full_adder(
    variant: AdderVariant,
    carry_swing: CarrySwing | None = None,
    vdd: float = 0.9,
) -> FullAdder:
    """Build one adder; raises on an illegal variant/swing/vdd combination."""
    if not math.isfinite(vdd):
        raise ValueError(f"vdd must be a finite voltage, got {vdd}")
    if carry_swing is None:
        carry_swing = variant.default_swing
    if variant is AdderVariant.QFA1 and carry_swing is not CarrySwing.REDUCED:
        raise ValueError("QFA1 is the reduced-carry-swing quaternary adder")
    if variant is AdderVariant.QFA2 and carry_swing is not CarrySwing.FULL:
        raise ValueError("QFA2 is the full-carry-swing quaternary adder")
    if variant.radix == 2:
        if carry_swing is not CarrySwing.FULL:
            raise ValueError("binary adders have a full-swing carry; a reduced swing is vdd again")
        if not any(abs(vdd - v) < 1e-9 for v in (0.9, 0.45)):
            raise ValueError(f"binary adders run at 0.9 or 0.45 V, got {vdd}")
    elif abs(vdd - 0.9) > 1e-9:
        raise ValueError(f"m-valued adders run at vdd 0.9 V, got {vdd}")

    b = NetlistBuilder()
    if variant in (AdderVariant.TFA1, AdderVariant.TFA2):
        _build_ternary_mux(b, variant, carry_swing, vdd)
    elif variant in (AdderVariant.QFA1, AdderVariant.QFA2):
        _build_quaternary_mux(b, variant, carry_swing, vdd)
    elif variant is AdderVariant.BFA1_14T:
        _build_bfa1(b, vdd)
    elif variant is AdderVariant.BFA2_28T:
        _build_bfa2(b, vdd)
    else:
        _build_bfa3(b, vdd)
    netlist = b.build(variant.value.lower())
    return FullAdder(variant, carry_swing, vdd, netlist)


def _carry_cell_plan(variant: AdderVariant, carry_swing: CarrySwing, vdd: float) -> dict:
    """Chirality and supply choices for the Cin complement, the carry mux
    and the Cout restorer.

    The carry mux has the device sequence of ``emit_mux2``: N by cin and P
    by cinb from c1b, N by cinb and P by cin from c0b.  TFA1, the compact
    variant, uses n=10 on each of these that a full-swing signal gates.
    """
    radix = variant.radix
    swing_v = carry_swing.carry_high_v(radix, vdd)
    n_sel, p_sel = mux2_chiralities(vdd, swing_v)
    if variant is AdderVariant.TFA1:
        full = carry_swing is CarrySwing.FULL
        carry_mux = (10, 10, 10, 10) if full else (n_sel, 10, 10, p_sel)
    else:
        carry_mux = (n_sel, DEFAULT_N, DEFAULT_N, p_sel)
    plan = {"swing_v": swing_v, "carry_mux": carry_mux}
    if carry_swing is CarrySwing.FULL:
        return plan | {"cinb": ("inv", DEFAULT_N, DEFAULT_N), "cout_n": DEFAULT_N}
    if radix == 3:
        return plan | {"cinb": ("det", "NTI"), "cout_n": _LOW_VTH_N}
    return plan | {"cinb": ("det", "QDetLow"), "cout_n": _LOW_VTH_N}


def _emit_carry_tail(
    b: NetlistBuilder,
    c0b: str,
    c1b: str,
    s0: str,
    s1: str,
    cin: str,
    sum_out: str,
    cout: str,
    variant: AdderVariant,
    carry_swing: CarrySwing,
    vdd: float,
) -> None:
    """Shared MUX2-on-Cin stage: sum select plus restored carry output."""
    plan = _carry_cell_plan(variant, carry_swing, vdd)
    swing_v = plan["swing_v"]
    cinb = b.fresh("cinb")
    if plan["cinb"][0] == "inv":
        emit_inverter(b, cin, cinb, vdd, plan["cinb"][1], plan["cinb"][2])
    else:
        emit_detector(b, plan["cinb"][1], cin, cinb, vdd)
    emit_mux2(b, s0, s1, cin, cinb, sum_out, vdd, sel_swing=swing_v, data_radix=variant.radix)
    coutb = b.fresh("coutb")
    for polarity, n, gate, data in zip(
        (Polarity.N, Polarity.P, Polarity.N, Polarity.P),
        plan["carry_mux"],
        (cin, cinb, cinb, cin),
        (c1b, c1b, c0b, c0b),
    ):
        b.add_device(polarity, n, gate, data, coutb)
    emit_inverter(b, coutb, cout, swing_v, n_n=plan["cout_n"], n_p=plan["cout_n"])


def _stage_nets(b: NetlistBuilder, radix: int, vdd: float) -> tuple[str, ...]:
    """Declare a stage's ports and its two rails: A, B, Cin, Sum, Cout, vdd
    and gnd, in that order."""
    return (
        b.add_input("A", radix),
        b.add_input("B", radix),
        b.add_input("Cin", 2),
        b.add_output("Sum", radix),
        b.add_output("Cout", 2),
        b.add_supply(supply_name(vdd), vdd),
        b.add_supply(supply_name(0.0), 0.0),
    )


def _build_ternary_mux(
    b: NetlistBuilder, variant: AdderVariant, carry_swing: CarrySwing, vdd: float
) -> None:
    a, bb, cin, sum_out, cout, vdd_net, gnd = _stage_nets(b, 3, vdd)
    mid = VoltageMap(vdd, 3).volts(1)
    half = b.add_supply(supply_name(mid), mid)
    compact = variant is AdderVariant.TFA1
    inv_n = 10 if compact else DEFAULT_N

    asel = emit_ternary_selects(b, a, "a", vdd, inv_n)
    (an, anb), (ap, apb) = asel

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
        emit_mux_branches(b, (half, vdd_net, gnd), a1, asel, "a1")
        emit_mux_branches(b, (vdd_net, gnd, half), a2, asel, "a2")

    bsel = emit_ternary_selects(b, bb, "b", vdd, inv_n)
    (bn, bnb), (bp, bpb) = bsel

    s0 = b.fresh("s0")
    s1 = b.fresh("s1")
    emit_mux_branches(b, (a, a1, a2), s0, bsel, "s0")
    emit_mux_branches(b, (a1, a2, a), s1, bsel, "s1")

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
        emit_mux_branches(b, (vdd_net, ap, an), c0b, bsel, "c0b")
        emit_mux_branches(b, (ap, an, gnd), c1b, bsel, "c1b")

    _emit_carry_tail(b, c0b, c1b, s0, s1, cin, sum_out, cout, variant, carry_swing, vdd)


def _build_quaternary_mux(
    b: NetlistBuilder, variant: AdderVariant, carry_swing: CarrySwing, vdd: float
) -> None:
    a, bb, cin, sum_out, cout, vdd_net, gnd = _stage_nets(b, 4, vdd)
    levels = VoltageMap(vdd, 4).levels
    third, two_thirds = (b.add_supply(supply_name(v), v) for v in levels[1:3])

    asel = emit_quaternary_selects(b, a, "a", vdd, buffered=False)
    (an, _), (ai, _), (ap, _) = asel
    a_succ = []
    rails = {0: gnd, 1: third, 2: two_thirds, 3: vdd_net}
    for k in (1, 2, 3):
        y = b.fresh(f"a{k}")
        data = tuple(rails[(digit + k) % 4] for digit in range(4))
        emit_mux_branches(b, data, y, asel, f"a{k}")
        a_succ.append(y)
    a1, a2, a3 = a_succ

    bsel = emit_quaternary_selects(b, bb, "b", vdd, buffered=True)

    s0 = b.fresh("s0")
    s1 = b.fresh("s1")
    emit_mux_branches(b, (a, a1, a2, a3), s0, bsel, "s0")
    emit_mux_branches(b, (a1, a2, a3, a), s1, bsel, "s1")

    c0b = b.fresh("c0b")
    c1b = b.fresh("c1b")
    emit_mux_branches(b, (vdd_net, ap, ai, an), c0b, bsel, "c0b")
    emit_mux_branches(b, (ap, ai, an, gnd), c1b, bsel, "c1b")

    _emit_carry_tail(b, c0b, c1b, s0, s1, cin, sum_out, cout, variant, carry_swing, vdd)


def _build_bfa1(b: NetlistBuilder, vdd: float) -> None:
    """Transmission-gate binary adder: NAND/NOR conditionals into the carry
    mux, XOR via an OAI stage.  Complementary gates throughout; the classic
    threshold-drop pass-transistor tricks are not representable under an
    ideal-switch model."""
    a, bb, cin, sum_out, cout, vdd_net, gnd = _stage_nets(b, 2, vdd)

    nand = b.fresh("nand_ab")
    emit_nand2(b, a, bb, nand, vdd, mid="nand_m")
    nor = b.fresh("nor_ab")
    emit_nor2(b, a, bb, nor, vdd, mid="nor_m")

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
    a, bb, cin, sum_out, cout, vdd_net, gnd = _stage_nets(b, 2, vdd)

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
    a, bb, cin, sum_out, cout, vdd_net, gnd = _stage_nets(b, 2, vdd)

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
class Cpa(_Design):
    """A chained carry-propagate adder; carries ripple Cout_i -> Cin_{i+1}."""

    config: CpaConfig
    stage: FullAdder
    hierarchical: Netlist
    netlist: Netlist

    cin_port, cout_port = "C0", "C_final"

    @property
    def radix(self) -> int:
        return self.config.radix

    @property
    def digits(self) -> int:
        return self.config.digits

    @property
    def label(self) -> str:
        return self.config.label

    @property
    def vdd(self) -> float:
        return self.config.vdd

    @property
    def swing_v(self) -> float:
        return self.stage.swing_v

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


def _exhaustive_operands(
    design: FullAdder | Cpa, vectors: range
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The A, B and carry-in values of the given exhaustive vectors: A
    slowest and carry-in fastest."""
    span = design.radix**design.digits
    k = np.arange(vectors.start, vectors.stop)
    return k // (2 * span), (k // 2) % span, k % 2


def _exhaustive_columns(design: FullAdder | Cpa, vectors: range) -> dict[str, np.ndarray]:
    """The voltage column of each input port over the given vectors of
    exhaustive verification: each value is a level of the port's input map."""
    radix = design.radix
    a_vals, b_vals, cin_vals = _exhaustive_operands(design, vectors)
    maps = design.input_maps()
    columns: dict[str, np.ndarray] = {}
    for ports, rest in ((design.a_ports, a_vals), (design.b_ports, b_vals)):
        for port in ports:
            rest, digit = np.divmod(rest, radix)
            columns[port] = np.array(maps[port].levels)[digit]
    columns[design.cin_port] = np.array(maps[design.cin_port].levels)[cin_vals]
    return columns


def verify_design(design: FullAdder | Cpa) -> VerifyReport:
    """Drive every (A, B, carry-in) combination through the design's ports,
    at the levels of its input maps, and check the addition identity
    value(A) + value(B) + cin == value(S) + radix^digits * cout.

    The sums and the carry-out are decoded with the design's output maps,
    so each must lie within 5 % of its own map's swing of a level: vdd for
    a sum digit, the carry-1 voltage for the carry-out.  Conflicts,
    non-convergence and floating outputs all count against the design.  The
    solver is asked for the sum and carry-out nets only.  The vectors are
    built, solved and decoded 16,384 at a time (``_VERIFY_CHUNK``), one
    :func:`solver.solve_dc_batch` call per chunk, so memory follows the
    chunk, not the width; the counts are summed and the first 20 failure
    samples kept in vector order.  A design of more than 2^22 vectors
    (``_MAX_VERIFY_VECTORS``) is a ValueError, raised before anything is
    built.
    """
    radix, digits = design.radix, design.digits
    span = radix**digits
    n_vec = span * span * 2
    if n_vec > _MAX_VERIFY_VECTORS:
        raise ValueError(
            f"exhaustive verification of {n_vec:,} vectors exceeds the bound of "
            f"{_MAX_VERIFY_VECTORS:,} vectors"
        )
    comp = design.compiled
    outputs = (*design.s_ports, design.cout_port)
    out_maps = design.output_maps()

    def check(vectors: range, result: solver.BatchResult) -> np.ndarray:
        """The failure, conflict, non-convergence and floating-output counts
        of one chunk; its failure samples join ``samples`` up to 20."""
        sum_value = np.zeros(len(vectors), dtype=np.int64)
        decode_ok = np.ones(len(vectors), dtype=bool)
        for i, port in enumerate(design.s_ports):
            digit, ok = out_maps[port].decode_array(result.values[:, i])
            sum_value += digit * radix**i
            decode_ok &= ok
        cout_digit, cout_ok = out_maps[design.cout_port].decode_array(result.values[:, digits])
        decode_ok &= cout_ok

        a_vals, b_vals, cin_vals = _exhaustive_operands(design, vectors)
        expected = a_vals + b_vals + cin_vals
        got = sum_value + span * cout_digit
        fail = ~decode_ok | (got != expected) | result.conflict | result.nonconverged
        floating_rows = np.isnan(result.values).any(axis=1)
        for v in np.flatnonzero(fail)[: 20 - len(samples)].tolist():
            samples.append(
                f"A={value_to_digits(radix, int(a_vals[v]), digits)} "
                f"B={value_to_digits(radix, int(b_vals[v]), digits)} "
                f"cin={int(cin_vals[v])}: expected {int(expected[v])}, "
                f"decoded {int(got[v])}"
                + (" [conflict]" if result.conflict[v] else "")
                + (" [floating]" if floating_rows[v] else "")
            )
        return np.array(
            [fail.sum(), result.conflict.sum(), result.nonconverged.sum(), floating_rows.sum()]
        )

    samples: list[str] = []
    counts = np.zeros(4, dtype=np.int64)
    for start in range(0, n_vec, _VERIFY_CHUNK):
        vectors = range(start, min(start + _VERIFY_CHUNK, n_vec))
        # not bound to a name, so each result is freed before the next solve
        counts += check(
            vectors, solver.solve_dc_batch(comp, _exhaustive_columns(design, vectors), nets=outputs)
        )
    failures, conflicts, nonconverged, floating_outputs = counts.tolist()
    return VerifyReport(
        design=design.label,
        vectors=n_vec,
        failures=failures,
        conflicts=conflicts,
        nonconverged=nonconverged,
        floating_outputs=floating_outputs,
        failure_samples=tuple(samples),
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
