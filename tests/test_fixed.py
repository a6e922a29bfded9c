"""Fixed-point arithmetic: the contract it shares with double-double."""

from fractions import Fraction

import pytest

from kerr_qlink.ddouble import DD, DDColumn
from kerr_qlink.errors import DomainError
from kerr_qlink.fixed import Scale

A = Scale(128)
X = 0.7364812093


def _value(x) -> Fraction:
    if type(x) is DD:
        return Fraction(x.hi) + Fraction(x.lo)
    (n,) = x.n
    return Fraction(n, 1 << x.k)


@pytest.mark.parametrize("e", [0, 1, 2, 3])
def test_powers_agree_on_both_arithmetics(e):
    fixed, dd = A.quotient(X, 1.0) ** e, DD(X) ** e
    exact = Fraction(X) ** e
    # each fixed-point product floors once; each DD product errs by 7u^2
    assert abs(_value(fixed) - exact) <= Fraction(e, 1 << A.k)
    assert abs(_value(dd) - exact) <= 7 * e * Fraction(1, 2 ** 106)
    if e == 0:
        assert _value(fixed) == _value(dd) == 1


def test_zeroth_power_of_a_column_is_the_one_value():
    # as DD's: the empty product is one value for every point
    column = A.quotient(DDColumn.of([0.5, 0.25]), 1.0)
    assert (column ** 0).n == [1 << A.k]
    assert (column ** 2).n == [1 << A.k - 2, 1 << A.k - 4]


@pytest.mark.parametrize("e", [-1, 0.5])
def test_negative_or_fractional_powers_are_refused(e):
    for x in (A.quotient(X, 1.0), DD(X)):
        with pytest.raises(DomainError, match="non-negative integer"):
            x ** e
