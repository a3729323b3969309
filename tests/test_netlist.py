import pytest
from hypothesis import example, given, settings, strategies as st

from mvladders.device import Polarity
from mvladders.netlist import (
    NetlistBuilder,
    NetlistError,
    ParseError,
    flatten,
    parse,
    serialize,
    serialize_subckt,
)
from mvladders.solver import solve_dc

INVERTER_TEXT = """\
# a minimal two-device circuit
SUPPLY vdd 0.9
SUPPLY gnd 0
INPUT a 2
OUTPUT y 2
DEVICE P n=19 g=a s=vdd d=y
DEVICE N n=19 g=a s=gnd d=y
"""


def _device_key(d) -> tuple:
    return (d.spec.polarity.value, d.spec.chirality_n, d.gate, d.source, d.drain)


def _same_structure(nl, other) -> bool:
    """Structural identity, ignoring netlist names and the order of
    devices, instances and subcircuits."""
    if set(nl.nets) != set(other.nets):
        return False
    for name, net in nl.nets.items():
        o = other.nets[name]
        if (net.role, net.voltage, net.radix) != (o.role, o.voltage, o.radix):
            return False
    if sorted(map(_device_key, nl.devices)) != sorted(map(_device_key, other.devices)):
        return False
    if nl.ports != other.ports:
        return False
    if sorted(i.name for i in nl.instances) != sorted(i.name for i in other.instances):
        return False
    by_name = {i.name: i for i in other.instances}
    for inst in nl.instances:
        o = by_name[inst.name]
        if inst.subckt != o.subckt or dict(inst.bindings) != dict(o.bindings):
            return False
    if set(nl.subckts) != set(other.subckts):
        return False
    return all(_same_structure(nl.subckts[k], other.subckts[k]) for k in nl.subckts)


def test_parse_minimal_inverter():
    nl = parse(INVERTER_TEXT)
    assert nl.device_count == 2
    assert len(nl.nets) == 4
    assert nl.ports == ("a", "y")


def test_roundtrip_structural_identity():
    nl = parse(INVERTER_TEXT)
    again = parse(serialize(nl))
    assert _same_structure(again, nl)


def test_serialized_bytes_stable():
    nl = parse(INVERTER_TEXT)
    assert serialize(nl) == serialize(parse(serialize(nl)))


def test_empty_netlist_two_lines():
    b = NetlistBuilder()
    b.add_supply("vdd", 0.9)
    text = serialize(b.build("bare"))
    assert text.splitlines() == ["# netlist: bare", "SUPPLY vdd 0.9"]


def test_undefined_net_error_with_location():
    bad = INVERTER_TEXT + "DEVICE N n=19 g=phantom s=gnd d=y\n"
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert "undefined net" in str(err.value)
    assert err.value.line == 8


def test_duplicate_net_error():
    with pytest.raises(ParseError) as err:
        parse("SUPPLY vdd 0.9\nNET x\nNET x\n")
    assert "duplicate" in str(err.value)


def test_malformed_voltage_error():
    with pytest.raises(ParseError) as err:
        parse("SUPPLY vdd zap\n")
    assert "malformed voltage" in str(err.value)
    assert err.value.line == 1


@pytest.mark.parametrize("volts", ["nan", "inf", "-inf"])
def test_non_finite_supply_voltage_error(volts):
    with pytest.raises(ParseError) as err:
        parse(f"SUPPLY gnd 0\nSUPPLY vdd {volts}\n")
    assert err.value.line == 2
    assert "supply net 'vdd' needs a finite voltage" in str(err.value)


def test_unknown_directive_error():
    with pytest.raises(ParseError) as err:
        parse("RESISTOR r1 a b\n")
    assert "unknown directive" in str(err.value)


def test_missing_ends_error():
    with pytest.raises(ParseError):
        parse("SUBCKT inv a y\nSUPPLY vdd 0.9\n")


SUBCKT_TEXT = """\
SUBCKT inv a y
SUPPLY vdd 0.9
SUPPLY gnd 0
INPUT a 2
OUTPUT y 2
DEVICE P n=19 g=a s=vdd d=y
DEVICE N n=19 g=a s=gnd d=y
ENDS
SUPPLY gnd 0
INPUT x 2
OUTPUT z 2
NET mid
INSTANCE inv u1 a=x y=mid
INSTANCE inv u2 a=mid y=z
"""


def test_flatten_counts_and_ports():
    nl = parse(SUBCKT_TEXT)
    flat = flatten(nl)
    assert flat.device_count == 4
    assert flat.is_flat
    assert flat.ports == nl.ports
    assert "INSTANCE" not in serialize(flat)


def test_flatten_preserves_behavior():
    hier = flatten(parse(SUBCKT_TEXT))
    # same circuit written out by hand, different construction route
    b = NetlistBuilder()
    b.add_supply("vdd", 0.9)
    b.add_supply("gnd", 0.0)
    x = b.add_input("x", 2)
    z = b.add_output("z", 2)
    mid = b.add_internal("mid")
    for a, y in ((x, mid), (mid, z)):
        b.add_device(Polarity.P, 19, a, "vdd", y)
        b.add_device(Polarity.N, 19, a, "gnd", y)
    direct = b.build("buf")
    for volts in (0.0, 0.9):
        s1 = solve_dc(hier, {"x": volts})
        s2 = solve_dc(direct, {"x": volts})
        assert s1.voltage("z") == s2.voltage("z")
        assert s1.voltage("mid") == s2.voltage("mid")


def test_flatten_cycle_error():
    text = """\
SUBCKT a p q
SUPPLY gnd 0
INPUT p 2
OUTPUT q 2
INSTANCE a inner p=p q=q
ENDS
SUPPLY gnd 0
INPUT u 2
OUTPUT w 2
INSTANCE a top p=u q=w
"""
    with pytest.raises(NetlistError) as err:
        flatten(parse(text))
    assert "cyclic" in str(err.value)


def test_supply_voltage_clash_rejected():
    b = NetlistBuilder()
    b.add_supply("vdd", 0.9)
    with pytest.raises(NetlistError):
        b.add_supply("vdd", 0.45)


def test_instance_binding_validation():
    with pytest.raises(ParseError) as err:
        parse(SUBCKT_TEXT.replace("a=x y=mid", "a=x"))
    assert "unbound" in str(err.value)


def test_device_and_diameter_invariant_under_roundtrip():
    nl = parse(SUBCKT_TEXT)
    flat = flatten(nl)
    again = parse(serialize(flat))
    assert again.device_count == flat.device_count
    assert again.sum_diameter_nm() == pytest.approx(flat.sum_diameter_nm())


def test_subckt_serialization_roundtrip():
    nl = parse(INVERTER_TEXT)
    text = serialize_subckt(nl)
    assert text.startswith("SUBCKT netlist a y")
    assert text.rstrip().endswith("ENDS")


names = st.sampled_from(["n1", "n2", "n3", "n4", "n5"])


@st.composite
def small_netlists(draw):
    b = NetlistBuilder()
    b.add_supply("vdd", draw(st.sampled_from([0.45, 0.9])))
    b.add_supply("gnd", 0.0)
    n_inputs = draw(st.integers(1, 2))
    for i in range(n_inputs):
        b.add_input(f"in{i}", draw(st.sampled_from([2, 3, 4])))
    b.add_output("out", 2)
    extra = draw(st.integers(0, 3))
    for i in range(extra):
        b.add_internal(f"n{i + 1}")
    nets = ["vdd", "gnd", "out"] + [f"in{i}" for i in range(n_inputs)]
    nets += [f"n{i + 1}" for i in range(extra)]
    n_devices = draw(st.integers(1, 6))
    for _ in range(n_devices):
        b.add_device(
            draw(st.sampled_from([Polarity.N, Polarity.P])),
            draw(st.sampled_from([8, 10, 13, 19, 29, 37])),
            draw(st.sampled_from(nets)),
            draw(st.sampled_from(nets)),
            draw(st.sampled_from(nets)),
        )
    return b.build("rand")


@settings(max_examples=60, deadline=None)
@given(small_netlists())
def test_roundtrip_property(nl):
    assert _same_structure(parse(serialize(nl)), nl)


@settings(max_examples=100)
@given(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
@example(0.1234567)
def test_supply_voltage_survives_text_round_trip(volts):
    # six significant digits where they suffice, every digit where not
    b = NetlistBuilder()
    b.add_supply("vdd", volts)
    b.add_input("a", 2)
    b.add_device(Polarity.N, 19, "a", "vdd", "a")
    text = serialize(b.build("rail"))
    assert parse(text).nets["vdd"].voltage == volts
    assert f"SUPPLY vdd {volts:g}\n" in text or float(f"{volts:g}") != volts
