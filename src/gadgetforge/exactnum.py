"""Exact mixed-radix arithmetic for reduction-sized integers.

Every quantity the reduction manipulates (processing times, start times,
machine loads, the target makespan) is a polynomial in a large base D with
small nonnegative digits at the powers D^2 .. D^8 plus a signed unit term
bounded by z*D in absolute value.  Nothing ever carries a D^1 digit, and as
long as D exceeds 4z(7z+1) the digit sums that occur stay below D, so the
representation is unique and sums of values decompose digit-by-digit.

`decompose` recovers that representation from a plain integer and
`compose` reassembles it.  Both are exact; Python ints are arbitrary
precision so there is no overflow to worry about.
"""

from __future__ import annotations

from dataclasses import dataclass

POWERS = (2, 3, 4, 5, 6, 7, 8)


class ResidueOutOfRange(ValueError):
    """The residue mod D^2 fits neither 0..zD nor D^2-zD..D^2-1.

    Such a value cannot be written with a unit term in [-zD, zD] and is
    therefore not a sum of reduction quantities.
    """

    def __init__(self, value: int, residue: int, z: int, D: int):
        self.value = value
        self.residue = residue
        super().__init__(
            f"residue {residue} of {value} mod D^2 is outside "
            f"[0, {z * D}] and [{D * D - z * D}, {D * D - 1}]"
        )


class DigitOverflow(ValueError):
    """A digit exceeds the structural cap 4z(7z+1) (or the value has a
    nonzero digit above D^8)."""

    def __init__(self, power: int, digit: int, cap: int):
        self.power = power
        self.digit = digit
        self.cap = cap
        super().__init__(f"digit {digit} at D^{power} exceeds cap {cap}")


class NegativeResult(ValueError):
    """Decomposition input or composition result below zero."""


def parse_int(token, what: str) -> int:
    """`token` as an int: an int (a bool is not one) passes, a string of
    ASCII digits with an optional leading minus, such as "-12", is
    converted, and anything else raises ValueError naming `what`.  So a
    float is refused instead of truncated, and so is a string that only
    `int` reads, such as "1_0", " 7" or non-ASCII digits, which the
    canonical form never writes."""
    if type(token) is int:
        return token
    if type(token) is str:
        digits = token[1:] if token[:1] == "-" else token
        if digits.isascii() and digits.isdigit():
            try:
                return int(token)
            except ValueError:  # more digits than int() converts
                pass
    raise ValueError(f"{what} must be an integer or a decimal string, not {token!r}")


def check_shape(token, kind: type, what: str):
    """`token` when it is the JSON object, list or string that `kind` (dict,
    list or str) asks for; anything else raises ValueError naming `what`."""
    if type(token) is not kind:
        shape = {dict: "an object", list: "a list", str: "a string"}[kind]
        raise ValueError(f"{what} must be {shape}, not {token!r:.60}")
    return token


def digit_bound(z: int) -> int:
    """Largest digit any audited sum can reach: 4z(7z+1), the total D^7
    coefficient across all four machine loads."""
    return 4 * z * (7 * z + 1)


@dataclass(frozen=True)
class CoeffVector:
    """Digits of a value in the reduction's mixed radix.

    ``x0`` is the signed unit term; ``x2`` .. ``x8`` are the digits at the
    matching powers of D.  There is no ``x1``: no reduction quantity carries
    a D^1 digit, which is exactly why the unit term can be recovered from
    the residue mod D^2.
    """

    x0: int = 0
    x2: int = 0
    x3: int = 0
    x4: int = 0
    x5: int = 0
    x6: int = 0
    x7: int = 0
    x8: int = 0

    def digit(self, power: int) -> int:
        if power == 0:
            return self.x0
        if power not in POWERS:
            raise ValueError(f"no digit at D^{power}")
        return getattr(self, f"x{power}")


def compose(cv: CoeffVector, D: int) -> int:
    """Reassemble the integer  x0 + sum_k x_k * D^k.

    Raises NegativeResult if the total comes out below zero (a legal
    CoeffVector always has the unit term dominated by the higher digits
    whenever any are present, but callers can build pathological ones).
    """
    total = cv.x0
    for k in POWERS:
        total += cv.digit(k) * D**k
    if total < 0:
        raise NegativeResult(f"composed value {total} is negative")
    return total


def decompose(value: int, z: int, D: int) -> CoeffVector:
    """Recover the unique digit vector of ``value`` for parameters (z, D).

    Requires D > 4z(7z+1) so that digits below the cap are unambiguous.
    Raises NegativeResult for negative input, ResidueOutOfRange when the
    unit term cannot lie in [-zD, zD], and DigitOverflow when any digit
    would exceed 4z(7z+1) or the value needs a power above D^8.
    """
    cap = digit_bound(z)
    if D <= cap:
        raise ValueError(f"D={D} must exceed 4z(7z+1)={cap}")
    if value < 0:
        raise NegativeResult(f"cannot decompose negative value {value}")

    square = D * D
    residue = value % square
    if residue <= z * D:
        x0 = residue
    elif residue >= square - z * D:
        x0 = residue - square
    else:
        raise ResidueOutOfRange(value, residue, z, D)
    quotient = (value - x0) // square

    digits = {}
    for k in reversed(POWERS):
        scale = D ** (k - 2)
        digits[k], quotient = divmod(quotient, scale)
        if digits[k] > cap:
            raise DigitOverflow(k, digits[k], cap)
    assert quotient == 0
    return CoeffVector(x0=x0, **{f"x{k}": v for k, v in digits.items()})
