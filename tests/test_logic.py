import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mvladders.logic import (
    FULL_SWING_BAND,
    CarrySwing,
    VoltageMap,
    digits_to_value,
    full_adder_oracle,
    ni,
    pi,
    succ,
    value_to_digits,
)

# Frozen single-digit addition rows (ternary left, quaternary right).
TERNARY_ROWS = [
    (0, 0, 0, 0, 0), (0, 1, 0, 1, 0), (0, 2, 0, 2, 0),
    (1, 0, 0, 1, 0), (1, 1, 0, 2, 0), (1, 2, 0, 0, 1),
    (2, 0, 0, 2, 0), (2, 1, 0, 0, 1), (2, 2, 0, 1, 1),
    (0, 0, 1, 1, 0), (0, 1, 1, 2, 0), (0, 2, 1, 0, 1),
    (1, 0, 1, 2, 0), (1, 1, 1, 0, 1), (1, 2, 1, 1, 1),
    (2, 0, 1, 0, 1), (2, 1, 1, 1, 1), (2, 2, 1, 2, 1),
]


def test_oracle_matches_ternary_truth_table():
    for a, b, cin, s, cout in TERNARY_ROWS:
        assert full_adder_oracle(3, a, b, cin) == (s, cout)


def test_oracle_examples():
    assert full_adder_oracle(3, 2, 2, 1) == (2, 1)
    assert full_adder_oracle(4, 1, 3, 1) == (1, 1)
    assert full_adder_oracle(2, 0, 0, 0) == (0, 0)


def test_carry_always_binary():
    for radix in (2, 3, 4):
        for a, b, cin in itertools.product(range(radix), range(radix), (0, 1)):
            _, cout = full_adder_oracle(radix, a, b, cin)
            assert cout in (0, 1)


def test_succ_table():
    assert succ(3, 2, 1) == 0
    assert succ(3, 1, 2) == 0
    assert succ(4, 3, 3) == 2
    # full unary tables
    assert [succ(3, a, 1) for a in range(3)] == [1, 2, 0]
    assert [succ(3, a, 2) for a in range(3)] == [2, 0, 1]


def test_succ_is_bijection():
    for radix in (2, 3, 4):
        for k in range(1, radix):
            image = {succ(radix, a, k) for a in range(radix)}
            assert image == set(range(radix))


def test_succ_shift_range():
    with pytest.raises(ValueError):
        succ(3, 0, 3)
    with pytest.raises(ValueError):
        succ(3, 0, 0)


def test_ni_pi_tables():
    assert [ni(a) for a in range(3)] == [2, 0, 0]
    assert [pi(a) for a in range(3)] == [2, 2, 0]
    assert ni(1) == 0
    assert pi(1) == 2
    assert ni(0) == 2


def test_digit_vector_examples():
    assert digits_to_value(3, [2, 2, 2, 2]) == 80
    assert digits_to_value(4, [3, 3, 3]) == 63
    assert digits_to_value(2, [0, 1, 0, 0, 0, 0]) == 2


@given(st.sampled_from([2, 3, 4]), st.integers(min_value=0, max_value=8), st.data())
def test_digit_vector_roundtrip(radix, width, data):
    value = data.draw(st.integers(min_value=0, max_value=radix**width - 1))
    digits = value_to_digits(radix, value, width)
    assert len(digits) == width
    assert digits_to_value(radix, digits) == value


def test_width_overflow():
    with pytest.raises(ValueError):
        value_to_digits(3, 81, 4)


def test_voltage_map_roundtrip():
    for radix in (2, 3, 4):
        vmap = VoltageMap(0.9, radix)
        for digit in range(radix):
            assert vmap.decode(vmap.volts(digit)) == digit


def test_voltage_map_band():
    vmap = VoltageMap(0.9, 3)
    assert vmap.decode(0.46) == 1          # within 45 mV of the 0.45 level
    assert vmap.decode(0.30) is None       # between levels: not full swing
    assert vmap.levels == (0.0, 0.45, 0.9)


@pytest.mark.parametrize("vdd", [0.9, 0.45])
@pytest.mark.parametrize("radix", [2, 3, 4])
def test_voltage_map_levels_are_the_digit_volts(radix, vdd):
    # bit for bit: k * (vdd / 3) gives 0.8999999999999999 at k = 3, vdd = 0.9
    vmap = VoltageMap(vdd, radix)
    assert vmap.levels == tuple(vmap.volts(k) for k in range(radix))


def _plain_decode(vmap, volts):
    """Nearest level (the lowest on a tie) and the full-swing check, in
    plain Python floats."""
    if math.isnan(volts):
        return 0, False
    dist = [abs(volts - level) for level in vmap.levels]
    digit = dist.index(min(dist))
    return digit, dist[digit] <= FULL_SWING_BAND * vmap.vdd


@pytest.mark.parametrize("vdd", [0.9, 0.45, 0.3])
@pytest.mark.parametrize("radix", [2, 3, 4])
def test_array_and_scalar_decode_agree(radix, vdd):
    vmap = VoltageMap(vdd, radix)
    band = FULL_SWING_BAND * vdd
    probes = [math.nan, math.inf, -math.inf, -0.0]
    for level in vmap.levels:
        for edge, outward in ((level - band, -math.inf), (level + band, math.inf)):
            probes += [edge, np.nextafter(edge, level), np.nextafter(edge, outward)]
        probes.append(level)
    # between two levels, where the lower one wins a tie
    for low, high in zip(vmap.levels, vmap.levels[1:]):
        mid = (low + high) / 2
        probes += [mid, np.nextafter(mid, low), np.nextafter(mid, high)]
    digits, in_band = vmap.decode_array(np.array(probes))
    assert in_band.any() and not in_band.all()
    for volts, digit, ok in zip(probes, digits.tolist(), in_band.tolist()):
        assert (digit, ok) == _plain_decode(vmap, volts), volts
        assert vmap.decode(volts) == (digit if ok else None), volts
    for level, digit in zip(vmap.levels, range(radix)):
        assert vmap.decode(level) == digit
    assert vmap.decode(math.nan) is None and vmap.decode(math.inf) is None


def test_carry_swing_voltages():
    assert CarrySwing.REDUCED.carry_high_v(3, 0.9) == pytest.approx(0.45)
    assert CarrySwing.REDUCED.carry_high_v(4, 0.9) == pytest.approx(0.3)
    assert CarrySwing.FULL.carry_high_v(3, 0.9) == pytest.approx(0.9)
    assert CarrySwing.REDUCED.carry_high_v(2, 0.9) == pytest.approx(0.9)
