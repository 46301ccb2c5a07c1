"""Digit decomposition and reassembly.

The frozen vectors below were derived by hand from the job-value formulas
(z=1, D=33) before the module was written; they are the oracle, not the
implementation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from gadgetforge.exactnum import (
    CoeffVector,
    DigitOverflow,
    NegativeResult,
    POWERS,
    ResidueOutOfRange,
    compose,
    decompose,
    digit_bound,
    parse_int,
)

Z1, D1 = 1, 33


# ===== frozen hand-derived vectors =====


def test_digit_bound_values():
    assert digit_bound(1) == 32
    assert digit_bound(2) == 120
    assert digit_bound(3) == 264


def test_zero_decomposes_to_all_zero():
    assert decompose(0, Z1, D1) == CoeffVector()


def test_one_machine_filler_value():
    # D^3 + z*D^7 + D^8 with z=1, D=33
    value = 33**3 + 33**7 + 33**8
    assert decompose(value, Z1, D1) == CoeffVector(x3=1, x7=1, x8=1)
    assert compose(CoeffVector(x3=1, x7=1, x8=1), D1) == value


def test_negative_unit_term_value():
    # D^5 + 2*D^7 - D: the unit term borrows from D^2
    value = 33**5 + 2 * 33**7 - 33
    assert decompose(value, Z1, D1) == CoeffVector(x0=-33, x5=1, x7=2)


def test_total_load_pattern():
    z, D = 1, 33
    load = (z + 1) * (D**2 + D**3 + D**8) + z * (D**4 + D**5 + D**6) + z * (
        7 * z + 1
    ) * D**7
    assert decompose(load, z, D) == CoeffVector(
        x2=2, x3=2, x4=1, x5=1, x6=1, x7=8, x8=2
    )


def test_plain_unit_values():
    assert decompose(17, Z1, D1) == CoeffVector(x0=17)
    assert decompose(33, Z1, D1) == CoeffVector(x0=33)


# ===== error cases =====


def test_residue_out_of_range():
    with pytest.raises(ResidueOutOfRange):
        decompose(Z1 * D1 + 1, Z1, D1)  # 34: too big for x0, too small to borrow
    with pytest.raises(ResidueOutOfRange):
        decompose(33**2 - 34, Z1, D1)


def test_borrow_boundary_is_inclusive():
    assert decompose(33**2 - 33, Z1, D1) == CoeffVector(x0=-33, x2=1)
    assert decompose(33**2 - 1, Z1, D1) == CoeffVector(x0=-1, x2=1)


def test_digit_overflow():
    cap = digit_bound(Z1)
    # D=40 leaves room between the cap (32) and the radix
    with pytest.raises(DigitOverflow):
        decompose((cap + 1) * 40**2, Z1, 40)
    with pytest.raises(DigitOverflow):
        decompose(33**9, Z1, D1)


def test_negative_input_rejected():
    with pytest.raises(NegativeResult):
        decompose(-1, Z1, D1)


def test_negative_composition_rejected():
    with pytest.raises(NegativeResult):
        compose(CoeffVector(x0=-5), D1)


def test_d_must_exceed_cap():
    with pytest.raises(ValueError):
        decompose(0, 1, 32)


@pytest.mark.parametrize(
    "token, value",
    [(0, 0), (-5, -5), ("12", 12), ("-12", -12), ("007", 7), ("-0", 0),
     ("9" * 400, int("9" * 400))],
)
def test_parse_int_reads_ints_and_ascii_decimal_strings(token, value):
    assert parse_int(token, "n") == value


@pytest.mark.parametrize(
    "token",
    ["1_0", " 7\n", "7 ", "\u0661\u0662", "\uff11", "\u00b2", "+5", "--1", "-",
     "", "1.0", "1e3", "0x1f", True, 1.0, None],
    ids=["underscore", "whitespace", "trailing-space", "arabic-indic",
         "fullwidth", "superscript", "plus", "double-minus", "bare-minus",
         "empty", "decimal-point", "exponent", "hex", "bool", "float", "null"],
)
def test_parse_int_rejects_every_other_form(token):
    """Only what the canonical form writes, an int or ASCII `-?[0-9]+`, is
    read: `int` would also take "1_0", " 7\n" or Arabic-Indic digits."""
    with pytest.raises(ValueError, match="n must be an integer"):
        parse_int(token, "n")


# ===== property tests =====


@st.composite
def params(draw):
    z = draw(st.integers(min_value=1, max_value=6))
    cap = digit_bound(z)
    D = draw(st.integers(min_value=cap + 1, max_value=3 * cap + 7))
    return z, D


@st.composite
def vectors(draw):
    z, D = draw(params())
    cap = digit_bound(z)
    digits = {
        f"x{k}": draw(st.integers(min_value=0, max_value=cap)) for k in POWERS
    }
    # a negative unit term needs a higher digit to borrow from
    lo = 0 if not any(digits.values()) else -z * D
    x0 = draw(st.integers(min_value=lo, max_value=z * D))
    return z, D, CoeffVector(x0=x0, **digits)


@settings(max_examples=200, deadline=None)
@given(vectors())
def test_decompose_inverts_compose(zdv):
    z, D, cv = zdv
    value = compose(cv, D)
    assert decompose(value, z, D) == cv


@settings(max_examples=200, deadline=None)
@given(vectors(), st.data())
def test_sums_decompose_digitwise(zdv, data):
    # As long as per-power digit sums stay below the cap (and unit terms
    # within +-zD), the digits of a sum are the sums of the digits.
    z, D, cv = zdv
    cap = digit_bound(z)
    other_digits = {
        f"x{k}": data.draw(
            st.integers(min_value=0, max_value=cap - cv.digit(k)),
            label=f"x{k}",
        )
        for k in POWERS
    }
    span = z * D - abs(cv.x0)
    lo = 0 if not any(other_digits.values()) else -span
    x0 = data.draw(st.integers(min_value=lo, max_value=span), label="x0")
    other = CoeffVector(x0=x0, **other_digits)
    total = compose(cv, D) + compose(other, D)
    combined = decompose(total, z, D)
    for k in (0,) + POWERS:
        assert combined.digit(k) == cv.digit(k) + other.digit(k)


@settings(max_examples=100, deadline=None)
@given(params(), st.data())
def test_out_of_band_values_are_rejected(zD, data):
    # Values with a D^1 digit in the dead zone can never decompose.
    z, D = zD
    dead = data.draw(
        st.integers(min_value=z * D + 1, max_value=D * D - z * D - 1)
    )
    high = data.draw(st.integers(min_value=0, max_value=digit_bound(z)))
    with pytest.raises(ResidueOutOfRange):
        decompose(high * D**3 + dead, z, D)


def _decompose_top_down(value: int, z: int, D: int) -> CoeffVector:
    """`decompose` the long way: each digit by dividing by its own power of
    D, from D^8 down, stopping at the first digit above the cap."""
    cap = digit_bound(z)
    x0 = value % D**2
    if x0 > z * D:
        x0 -= D**2
    quotient, digits = (value - x0) // D**2, {}
    for k in reversed(POWERS):
        digits[k], quotient = divmod(quotient, D ** (k - 2))
        if digits[k] > cap:
            raise DigitOverflow(k, digits[k], cap)
    return CoeffVector(x0=x0, **{f"x{k}": v for k, v in digits.items()})


@settings(max_examples=300, deadline=None)
@given(params(), st.data())
def test_decompose_matches_the_top_down_division(zD, data):
    # the digits, or the first overflowing power and its digit, are those
    # of dividing by each power of D in turn
    z, D = zD
    cap = digit_bound(z)
    digits = [data.draw(st.integers(0, 2 * cap + 1)) for _ in POWERS]
    unit = data.draw(st.integers(-z * D if any(digits) else 0, z * D))
    above = data.draw(st.sampled_from((0, 0, 0, 1, D + 1)))
    value = unit + sum(d * D**k for d, k in zip(digits, POWERS)) + above * D**9
    try:
        want = _decompose_top_down(value, z, D)
    except DigitOverflow as exc:
        with pytest.raises(DigitOverflow) as got:
            decompose(value, z, D)
        assert (got.value.power, got.value.digit, str(got.value)) == (
            exc.power, exc.digit, str(exc),
        )
    else:
        assert decompose(value, z, D) == want
