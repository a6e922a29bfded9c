"""Fixed-point arithmetic: the contract it shares with double-double."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from kerr_qlink.cli.scenario import PRESETS, SweepSpec
from kerr_qlink.ddouble import DD, DDColumn
from kerr_qlink.errors import DomainError
from kerr_qlink.fixed import Scale, _fixed, link_scale

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
    column = A.quotient([0.5, 0.25], 1.0)
    assert (column ** 0).n == [1 << A.k]
    assert (column ** 2).n == [1 << A.k - 2, 1 << A.k - 4]


@pytest.mark.parametrize("e", [-1, 0.5])
def test_negative_or_fractional_powers_are_refused(e):
    for x in (A.quotient(X, 1.0), DD(X)):
        with pytest.raises(DomainError, match="non-negative integer"):
            x ** e


def test_columns_of_different_lengths_are_refused():
    with pytest.raises(ValueError, match="columns of 2 and 3 elements"):
        A.product([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="columns of 2 and 3 elements"):
        A.quotient([0.5, 0.25], 1.0) + A.quotient([0.5, 0.25, 0.125], 1.0)


def _nearest(x: float, v: Fraction) -> bool:
    """Whether no double next to x lies nearer v than x does."""
    return all(abs(Fraction(y) - v) >= abs(Fraction(x) - v)
               for y in (math.nextafter(x, -math.inf),
                         math.nextafter(x, math.inf)))


# k = 160 rounds with a multiplication by 2**-k; k = 1056, past the least
# normal exponent, divides n by 2**k instead
@pytest.mark.parametrize("k", [160, 1056])
def test_limbs_are_the_doubles_nearest_the_value_and_its_remainder(k):
    rng = random.Random(k)
    ns = [0, 1, -1, (1 << 53) + 1, -(1 << 200) - 3]
    ns += [rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(1, 400))
           for _ in range(300)]
    column = Scale(k).dd(_fixed(ns, k))
    assert type(column) is DDColumn and len(column.limbs) == len(ns)
    for n, (hi, lo) in zip(ns, column.limbs):
        value = Fraction(n, 1 << k)
        assert _nearest(hi, value)
        assert _nearest(lo, value - Fraction(hi))
        one = Scale(k).dd(_fixed([n], k))
        assert type(one) is DD and (one.hi, one.lo) == (hi, lo)


@pytest.mark.parametrize("k", [160, 1056])
def test_limbs_past_the_double_range_are_refused(k):
    with pytest.raises(DomainError, match="a shift quantity leaves the double range"):
        Scale(k).dd(_fixed([1, -(1 << 1024 + k)], k))


# an orbit's rotation term puts an emitter just above 2**24 m 32 bits finer
# than one just below it
@pytest.mark.parametrize("preset, variable", [
    ("earth-leo", "r_B"), ("earth-geo", "r_B"), ("leo-geo-sat", "r_B"),
    ("leo-geo-sat", "r_C"),
])
def test_a_column_has_a_scale_iff_its_points_share_theirs(preset, variable):
    cfg, spec = PRESETS[preset], SweepSpec(variable, 1.0, 2.0, 2)
    refused = 0
    for pair in combinations((1.2e7, 2.0 ** 24 - 2.0, 2.0 ** 24, 2.5e7), 2):
        k1, k2 = (link_scale(spec.apply(cfg, r).link()).k for r in pair)
        column = spec.apply(cfg, list(pair)).link()
        if k1 == k2:
            assert link_scale(column).k == k1
        else:
            refused += 1
            with pytest.raises(DomainError,
                               match="different fixed-point scales"):
                link_scale(column)
    assert refused == (4 if variable == "r_C" else 0)
