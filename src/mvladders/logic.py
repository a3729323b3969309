"""Radix-r digit algebra, voltage maps, and the arithmetic oracles.

Everything the simulator produces is eventually checked against these pure
functions, so they stay deliberately free of any circuit knowledge.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "SUPPORTED_RADICES",
    "FULL_SWING_BAND",
    "VoltageMap",
    "CarrySwing",
    "full_adder_oracle",
    "succ",
    "ni",
    "pi",
    "digits_to_value",
    "value_to_digits",
]

SUPPORTED_RADICES = (2, 3, 4)

# A measured node voltage decodes to the nearest canonical level only if it
# lies within this fraction of vdd of that level (full-swing check).
FULL_SWING_BAND = 0.05


def check_radix(radix: int) -> None:
    if radix not in SUPPORTED_RADICES:
        raise ValueError(f"unsupported radix {radix!r}; supported: {SUPPORTED_RADICES}")


def check_digit(radix: int, digit: int) -> None:
    check_radix(radix)
    if isinstance(digit, bool) or not isinstance(digit, int):
        raise TypeError(f"digit must be an int, got {digit!r}")
    if not 0 <= digit < radix:
        raise ValueError(f"digit {digit} out of range for radix {radix}")


@dataclass(frozen=True)
class VoltageMap:
    """The one digit <-> voltage map: level k sits at k*vdd/(radix-1).

    Inputs are driven and rails laid at its ``levels``.  A voltage decodes
    to the nearest level, in band within ``FULL_SWING_BAND`` * vdd of it."""

    vdd: float
    radix: int

    def __post_init__(self) -> None:
        check_radix(self.radix)
        if not math.isfinite(self.vdd) or self.vdd <= 0:
            raise ValueError(f"vdd must be positive and finite, got {self.vdd}")

    @cached_property
    def levels(self) -> tuple[float, ...]:
        """The voltage of each digit, built once through :meth:`volts`."""
        return tuple(map(self.volts, range(self.radix)))

    def volts(self, digit: int) -> float:
        check_digit(self.radix, digit)
        return digit * self.vdd / (self.radix - 1)

    def decode_array(self, volts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The nearest digit of each voltage (the lowest on a tie, 0 for NaN)
        and whether it lies within the full-swing band of that level.  Levels
        are tried in order and only a strictly nearer one wins, which is the
        first minimum that ``argmin`` over the distances would give."""
        volts = np.asarray(volts, dtype=np.float64)
        nearest = np.abs(volts - self.levels[0], out=np.empty(volts.shape))
        digit = np.zeros(volts.shape, dtype=np.intp)
        for k, level in enumerate(self.levels[1:], 1):
            dist = np.abs(volts - level)
            # a NaN distance is never nearer: NaN keeps digit 0 and a NaN
            # distance, and NaN <= band is False
            nearer = dist < nearest
            np.putmask(digit, nearer, k)
            np.putmask(nearest, nearer, dist)
        return digit, nearest <= FULL_SWING_BAND * self.vdd

    def decode(self, volts: float) -> int | None:
        """Nearest-level decode; None when outside the full-swing band."""
        digit, in_band = self.decode_array(np.array([float(volts)]))
        return int(digit[0]) if in_band[0] else None


class CarrySwing(enum.Enum):
    """Voltage pair representing the binary carry: 0 and either vdd/(r-1) or vdd."""

    REDUCED = "reduced"
    FULL = "full"

    def carry_high_v(self, radix: int, vdd: float) -> float:
        """Digit 1 of the radix-r map for a reduced swing, vdd for a full one."""
        check_radix(radix)
        if self is CarrySwing.REDUCED:
            return VoltageMap(vdd, radix).volts(1)
        return vdd


def full_adder_oracle(radix: int, a: int, b: int, cin: int) -> tuple[int, int]:
    """One digit position of addition; the carry out is always 0 or 1."""
    check_digit(radix, a)
    check_digit(radix, b)
    if cin not in (0, 1):
        raise ValueError(f"carry-in must be 0 or 1, got {cin!r}")
    total = a + b + cin
    return total % radix, total // radix


def succ(radix: int, a: int, k: int = 1) -> int:
    """Cyclic successor (a+k) mod radix; the unary operator behind the sum MUX."""
    check_digit(radix, a)
    if not 1 <= k <= radix - 1:
        raise ValueError(f"shift k must be in [1, {radix - 1}], got {k}")
    return (a + k) % radix


_NI_TABLE = {0: 2, 1: 0, 2: 0}
_PI_TABLE = {0: 2, 1: 2, 2: 0}


def ni(a: int) -> int:
    """Negative ternary inverter: high only for input 0."""
    check_digit(3, a)
    return _NI_TABLE[a]


def pi(a: int) -> int:
    """Positive ternary inverter: high for inputs 0 and 1."""
    check_digit(3, a)
    return _PI_TABLE[a]


def digits_to_value(radix: int, digits: Sequence[int]) -> int:
    """Positional evaluation of a little-endian digit vector."""
    check_radix(radix)
    value = 0
    for i, d in enumerate(digits):
        check_digit(radix, d)
        value += d * radix**i
    return value


def value_to_digits(radix: int, value: int, width: int) -> tuple[int, ...]:
    """Little-endian digit vector of a non-negative value; inverse of digits_to_value."""
    check_radix(radix)
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    if value >= radix**width:
        raise ValueError(f"value {value} does not fit in {width} radix-{radix} digits")
    digits = []
    for _ in range(width):
        digits.append(value % radix)
        value //= radix
    return tuple(digits)
