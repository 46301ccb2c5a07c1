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

Every module loads this one, directly or through `threepartition`, so it
also holds what they share:
the reading (`reading`, `parse_int`, `check_shape`) and the writing
(`dump_json`) of the canonical JSON form, `InvalidInput`, the type of
every refused input, and `require`, the check of a result about to be
returned.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

POWERS = (2, 3, 4, 5, 6, 7, 8)


class InvalidInput(ValueError):
    """An input the package refuses: a malformed document, parameters
    outside the construction's range, a schedule or packing that does not
    fit its instance.  The CLI exits 2 on it and on no other type (1 on
    its subclass `schedule.NotTargetMakespan` from `extract`); any other
    exception is a fault of the program."""


def parse_int(token, what: str) -> int:
    """`token` as an int: an int (a bool is not one) passes, a string of
    ASCII digits with an optional leading minus, such as "-12", is
    converted, and anything else raises InvalidInput naming `what`.  So a
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
    raise InvalidInput(f"{what} must be an integer or a decimal string, not {token!r}")


def check_shape(token, kind: type, what: str):
    """`token` when it is the JSON object, list or string that `kind` (dict,
    list or str) asks for; anything else raises InvalidInput naming `what`."""
    if type(token) is not kind:
        shape = {dict: "an object", list: "a list", str: "a string"}[kind]
        raise InvalidInput(f"{what} must be {shape}, not {token!r:.60}")
    return token


@contextmanager
def reading(text: str, what: str):
    """`text` parsed as the JSON object a loader reads as `what`, for the
    body of a `with` statement.  In the body, a key the document lacks
    (`payload[key]` raising KeyError) raises InvalidInput naming the key;
    a loader's body reads no other mapping by a key that can be missing.
    Malformed JSON, a top level that is no object, nesting deeper than the
    parser can recurse and an object that names a key twice, which
    `json.loads` would read as its last value, raise InvalidInput too."""

    def unique_keys(pairs: list) -> dict:
        token = dict(pairs)
        if len(token) < len(pairs):
            counts = Counter(key for key, _ in pairs)
            key = next(key for key, n in counts.items() if n > 1)
            raise InvalidInput(f"{what} repeats the key {key!r} in one object")
        return token

    try:
        token = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{what} is not JSON: {exc}") from None
    except RecursionError:
        raise InvalidInput(f"{what} is nested too deeply to read") from None
    try:
        yield check_shape(token, dict, what)
    except KeyError as exc:
        raise InvalidInput(f"{what} is missing the key {exc}") from None


def dump_json(payload) -> str:
    """`payload` in the canonical form every document is written in, sorted
    keys and no spaces; `reading` reads it back."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def require(what: str, *checks: tuple[bool, str]) -> None:
    """Raise RuntimeError naming the first property that a result about to
    be returned fails on re-verification.  A raise, not an assert:
    ``python -O`` strips asserts, and an unverified result would then be
    returned."""
    for ok, name in checks:
        if not ok:
            raise RuntimeError(f"{what} fails re-verification: not {name}")


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

    Raises InvalidInput if the total comes out below zero (a legal
    CoeffVector always has the unit term dominated by the higher digits
    whenever any are present, but callers can build pathological ones).
    """
    total = cv.x0
    for k in POWERS:
        total += cv.digit(k) * D**k
    if total < 0:
        raise InvalidInput(f"composed value {total} is negative")
    return total


def decompose(value: int, z: int, D: int) -> CoeffVector:
    """Recover the unique digit vector of ``value`` for parameters (z, D).

    Requires D > 4z(7z+1) so that digits below the cap are unambiguous.
    Raises InvalidInput for negative input, for a value whose residue
    mod D^2 fits neither 0..zD nor D^2-zD..D^2-1 (its unit term cannot lie
    in [-zD, zD], so it is no sum of reduction quantities), and for a digit
    above 4z(7z+1) or a nonzero digit above D^8; and ValueError when D
    itself is not above 4z(7z+1).
    """
    cap = digit_bound(z)
    if D <= cap:
        raise ValueError(f"D={D} must exceed 4z(7z+1)={cap}")
    if value < 0:
        raise InvalidInput(f"cannot decompose negative value {value}")

    square = D * D
    residue = value % square
    if residue <= z * D:
        x0 = residue
    elif residue >= square - z * D:
        x0 = residue - square
    else:
        raise InvalidInput(
            f"residue {residue} of {value} mod D^2 is outside "
            f"[0, {z * D}] and [{square - z * D}, {square - 1}]"
        )
    quotient = (value - x0) // square

    # base-D digits from D^2 up; D^8 keeps whatever is left above it
    digits = []
    for _ in POWERS[:-1]:
        quotient, digit = divmod(quotient, D)
        digits.append(digit)
    digits.append(quotient)
    for k, digit in zip(reversed(POWERS), reversed(digits)):
        if digit > cap:
            raise InvalidInput(f"digit {digit} at D^{k} exceeds cap {cap}")
    return CoeffVector(x0, *digits)
