"""Double-double arithmetic against exact rationals."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerr_qlink.ddouble import DD, quick_two_sum, two_prod, two_sum
from kerr_qlink.errors import DomainError

finite = st.floats(min_value=-1e12, max_value=1e12,
                   allow_nan=False, allow_infinity=False)
# error-free products require the error term not to underflow: keep the
# magnitudes well inside the exponent range (physics values are 1e-30..1e30)
banded = st.floats(min_value=1e-60, max_value=1e60).flatmap(
    lambda m: st.sampled_from([m, -m]))
nonzero = banded


def exact(x: DD) -> Fraction:
    return Fraction(x.hi) + Fraction(x.lo)


def rel_err(x: DD, want: Fraction) -> float:
    if want == 0:
        return abs(float(exact(x)))
    return abs(float((exact(x) - want) / want))


@given(finite, finite)
def test_two_sum_is_exact(a, b):
    s, e = two_sum(a, b)
    assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


@given(banded, banded)
def test_two_prod_is_exact(a, b):
    p, e = two_prod(a, b)
    assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


@given(finite, finite)
def test_quick_two_sum_when_ordered(a, b):
    if abs(a) < abs(b):
        a, b = b, a
    s, e = quick_two_sum(a, b)
    assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


@given(finite, finite, finite, finite)
@settings(max_examples=300)
def test_add_matches_rationals(a, b, c, d):
    x = DD.sum2(a, b)
    y = DD.sum2(c, d)
    assert rel_err(x + y, exact(x) + exact(y)) < 1e-30


@given(banded, banded)
@settings(max_examples=300)
def test_mul_matches_rationals(a, c):
    x = DD.of(a) * a  # widen to populate the lo limb
    y = DD.of(c) * c
    assert rel_err(x * y, exact(x) * exact(y)) < 1e-30


@given(nonzero, nonzero)
@settings(max_examples=300)
def test_div_matches_rationals(a, b):
    x = DD.of(a) * a  # widen to use the lo limb
    y = DD.of(b) * b
    assert rel_err(x / y, exact(x) / exact(y)) < 1e-30


@given(st.floats(min_value=1e-12, max_value=1e12))
@settings(max_examples=300)
def test_sqrt_squares_back(a):
    x = DD.of(a) * a
    root = x.sqrt()
    assert rel_err(root * root, exact(x)) < 1e-30


def test_sqrt_rejects_negative():
    with pytest.raises(DomainError):
        DD(-1.0).sqrt()


def test_sqrt_zero():
    assert DD(0.0).sqrt() == DD(0.0)


def test_quotient_of_floats_is_nearly_exact():
    q = DD.quotient(1.0, 3.0)
    assert rel_err(q, Fraction(1, 3)) < 1e-32


def test_small_offsets_survive_near_one():
    # 1 + 1e-25 is far below double epsilon but fits in the lo limb
    x = DD(1.0) + DD(1e-25)
    assert (x - DD(1.0)).to_float() == 1e-25


def test_comparisons_use_both_limbs():
    assert DD(1.0, 1e-20) > DD(1.0)
    assert DD(1.0, -1e-20) < 1.0
    assert DD(0.0, 0.0).sign() == 0
    assert DD(0.0, -1e-30).sign() == -1


def test_int_powers():
    x = DD.of(3.0)
    assert (x ** 4).to_float() == 81.0
    assert (x ** 0).to_float() == 1.0
    with pytest.raises(ValueError):
        x ** -1


def test_bad_power_is_domain_error():
    with pytest.raises(DomainError):
        DD.of(3.0) ** -1
    with pytest.raises(DomainError):
        DD.of(3.0) ** 0.5


def test_float_round_trip_and_repr():
    x = DD.sum2(1.0, 2 ** -70)
    assert float(x) == 1.0 + 2 ** -70
    assert "DD(" in repr(x)


def test_abs_and_neg():
    x = DD(-2.0, 1e-17)
    assert abs(x).hi == 2.0
    assert (-x).lo == -1e-17


def test_from_decimal_round_trip():
    from decimal import Decimal
    d = Decimal("1.00000000000000000000000001")
    x = DD.from_decimal(d)
    assert abs(float(x.to_decimal() - d)) < 1e-33


def test_to_decimal_resolves_lo_limb_near_one():
    # the ambient 28-digit context must not truncate the lo limb of a value
    # whose hi part is order one
    x = DD(1.0) + DD(1e-30)
    assert float(x.to_decimal() - 1) == 1e-30


def test_mixed_operand_types():
    assert (DD.of(2) + 3).to_float() == 5.0
    assert (2 + DD.of(3)).to_float() == 5.0
    assert (DD.of(2) - 3).to_float() == -1.0
    assert (3 - DD.of(2)).to_float() == 1.0
    assert (DD.of(2) * 3).to_float() == 6.0
    assert (3 / DD.of(2)).to_float() == 1.5


def test_accuracy_on_catastrophic_cancellation():
    # (1 + h)^2 - 1 - 2h == h^2 with h small enough that plain doubles would
    # return pure noise; the compensated result carries ~1e-32 absolute error
    h = 1e-9
    x = (DD(1.0) + DD(h)) ** 2 - DD(1.0) - 2.0 * DD(h)
    assert math.isclose(x.to_float(), h * h, rel_tol=1e-12)
    naive = (1.0 + h) ** 2 - 1.0 - 2.0 * h
    assert abs(naive - h * h) > 1e-3 * h * h  # the float route really is noise
