"""Double-double arithmetic against exact rationals."""

import math
import operator
import struct
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kerr_qlink.ddouble import DD, DDColumn, quick_two_sum, two_prod, two_sum
from kerr_qlink.errors import DomainError
from kerr_qlink.wavepacket import GaussianWavepacket, propagate

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


# Proven relative error bounds, u = 2^-53: AccurateDWPlusDW, DWTimesDW1,
# DWDivDW2 and DWDivFP1 from Joldes, Muller & Popescu (2017), SQRTDWtoDW
# from Lefevre, Louvet, Muller, Picot & Rideau (2023).  Each test compares
# exactly in rationals, over signed operands, with populated lo limbs where
# the kernel takes a DD.
U = Fraction(1, 2 ** 53)
ADD_BOUND = 3 * U ** 2 + 13 * U ** 3
MUL_BOUND = 7 * U ** 2
DIV_BOUND = 15 * U ** 2 + 56 * U ** 3
QUOTIENT_BOUND = Fraction(7, 2) * U ** 2
SQRT_BOUND = Fraction(25, 8) * U ** 2


def within(got: DD, want: Fraction, bound: Fraction) -> bool:
    return abs(exact(got) - want) <= bound * abs(want)


@given(banded, banded, banded, banded)
@settings(max_examples=300)
# the hi limbs cancel and the lo limbs carry the whole difference
@example(1 + 2 ** -52, 1 + 2 ** -52, 1.0, 1 + 2 ** -51)
def test_add_matches_rationals(a, b, c, d):
    x = DD(*two_prod(a, b))  # signed, with a populated lo limb
    y = DD(*two_prod(c, d))
    assert within(x + y, exact(x) + exact(y), ADD_BOUND)
    assert within(x - y, exact(x) - exact(y), ADD_BOUND)


@given(banded, banded, banded, banded)
@settings(max_examples=300)
def test_mul_matches_rationals(a, b, c, d):
    x = DD(*two_prod(a, b))
    y = DD(*two_prod(c, d))
    assert within(x * y, exact(x) * exact(y), MUL_BOUND)


@given(nonzero, nonzero, nonzero, nonzero)
@settings(max_examples=300)
def test_div_matches_rationals(a, b, c, d):
    x = DD(*two_prod(a, b))  # signed, with a populated lo limb
    y = DD(*two_prod(c, d))
    want = exact(x) / exact(y)
    assert abs(exact(x / y) - want) < DIV_BOUND * abs(want)


@given(nonzero, nonzero)
@settings(max_examples=300)
def test_quotient_matches_rationals(a, b):
    assert within(DD.quotient(a, b), Fraction(a) / Fraction(b), QUOTIENT_BOUND)


@given(banded, banded)
@settings(max_examples=300)
def test_sqrt_matches_rationals(a, b):
    x = abs(DD(*two_prod(a, b)))  # the lo limb keeps either sign
    s = exact(x.sqrt())
    # |s - sqrt(x)| <= B sqrt(x), squared at both ends: s and sqrt(x) are >= 0
    assert (1 - SQRT_BOUND) ** 2 * exact(x) <= s * s
    assert s * s <= (1 + SQRT_BOUND) ** 2 * exact(x)


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


def test_a_string_is_not_equal_to_the_number_it_spells():
    assert DD(1.5) != "1.5"
    assert not DD(1.5) == "1.5"


def test_comparing_with_none_is_false_not_an_error():
    assert not DD(1.0) == None  # noqa: E711
    assert DD(1.0) != None  # noqa: E711
    for order in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            order(DD(1.0), None)


def test_comparing_with_a_column_leaves_it_to_the_column():
    column = DDColumn([(1.0, 0.0)])
    assert not DD(1.0) == column
    assert DD(1.0) != column


def test_a_dd_equal_to_a_float_hashes_as_that_float():
    assert DD(1.0) == 1.0 and hash(DD(1.0)) == hash(1.0)
    assert DD(-0.0, 0.0) == 0 and hash(DD(-0.0, 0.0)) == hash(0)
    assert {DD(2.5): "dd"}[2.5] == "dd"
    assert hash(DD(1.0, 1e-20)) == hash(DD(1.0, 1e-20))


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


@pytest.mark.parametrize("other", ["2", Decimal("2"), Fraction(2), None],
                         ids=["str", "Decimal", "Fraction", "None"])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
def test_an_operand_that_is_not_a_dd_float_or_int_is_refused(op, other):
    with pytest.raises(TypeError):
        op(DD(1.0), other)
    with pytest.raises(TypeError):
        op(other, DD(1.0))


def test_a_string_makes_no_dd_packet_or_shift_ratio():
    with pytest.raises(TypeError):
        DD.of("2")
    with pytest.raises(TypeError):
        GaussianWavepacket.of("7e14", 1e6)
    with pytest.raises(TypeError):
        propagate(GaussianWavepacket.of(7e14, 1e6), "1.5")


def test_accuracy_on_catastrophic_cancellation():
    # (1 + h)^2 - 1 - 2h == h^2 with h small enough that plain doubles would
    # return pure noise; the compensated result carries ~1e-32 absolute error
    h = 1e-9
    x = (DD(1.0) + DD(h)) ** 2 - DD(1.0) - 2.0 * DD(h)
    assert math.isclose(x.to_float(), h * h, rel_tol=1e-12)
    naive = (1.0 + h) ** 2 - 1.0 - 2.0 * h
    assert abs(naive - h * h) > 1e-3 * h * h  # the float route really is noise


# -- the fused operators against the composed algorithms ---------------------
#
# The reference below is the operator set written with the module's error-free
# transformations, one call per step, building a DD for every intermediate.
# The DD methods call the same transformations on bare limbs, building only
# the result; they must reproduce every bit, signed zeros included.

def _ref(x):
    return x if isinstance(x, DD) else DD(float(x), 0.0)


def ref_add(a, b):
    a, b = _ref(a), _ref(b)
    s, e = two_sum(a.hi, b.hi)
    t, f = two_sum(a.lo, b.lo)
    e += t
    s, e = quick_two_sum(s, e)
    e += f
    return DD(*quick_two_sum(s, e))


def ref_neg(a):
    return DD(-a.hi, -a.lo)


def ref_sub(a, b):
    return ref_add(a, ref_neg(_ref(b)))


def ref_mul(a, b):
    a, b = _ref(a), _ref(b)
    p, e = two_prod(a.hi, b.hi)
    e += a.hi * b.lo + a.lo * b.hi
    return DD(*quick_two_sum(p, e))


def ref_div(a, b):
    # DWDivDW2: r = b * th is DWTimesFP1, and a.hi - rh is exact
    a, b = _ref(a), _ref(b)
    th = a.hi / b.hi
    ch, cl = two_prod(b.hi, th)
    sh, tl = quick_two_sum(ch, b.lo * th)
    rh, rl = quick_two_sum(sh, tl + cl)
    tl = ((a.hi - rh) + (a.lo - rl)) / b.hi
    return DD(*quick_two_sum(th, tl))


def ref_sqrt(a):
    # SQRTDWtoDW: a.hi - sh^2 is a double, so (a.hi - p) - e is exact
    if a.hi == 0.0 and a.lo == 0.0:
        return DD(0.0)
    sh = math.sqrt(a.hi)
    p, e = two_prod(sh, sh)
    sl = (((a.hi - p) - e) + a.lo) / (2.0 * sh)
    return DD(*quick_two_sum(sh, sl))


def ref_pow(a, n):
    # square-and-multiply whose first factor is the base itself
    if n == 0:
        return DD(1.0)
    out = None
    while True:
        if n & 1:
            out = a if out is None else ref_mul(out, a)
        n >>= 1
        if not n:
            return out
        a = ref_mul(a, a)


def ref_pow_from_one(a, n):
    # square-and-multiply from 1, including the final, unused squaring
    out = DD(1.0)
    base = a
    while n:
        if n & 1:
            out = ref_mul(out, base)
        base = ref_mul(base, base)
        n >>= 1
    return out


def ref_quotient(a, b):
    q = a / b
    p, e = two_prod(q, b)
    return DD(*quick_two_sum(q, ((a - p) - e) / b))


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def assert_same(got: DD, want: DD):
    assert type(got.hi) is float and type(got.lo) is float
    assert (bits(got.hi), bits(got.lo)) == (bits(want.hi), bits(want.lo)), \
        f"{got!r} != {want!r}"


# doubles across the exponent range the pipeline uses, with signed zeros and
# small integers (exact products and sums) mixed in
edge_double = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 3.0, 0.5, 1e-300]),
    st.integers(-2 ** 26, 2 ** 26).map(float),
    st.floats(min_value=-1e40, max_value=1e40, allow_nan=False,
              allow_infinity=False),
    banded,
)


@st.composite
def normalised(draw):
    """A DD in canonical form: (hi, lo) = quick_two_sum of two doubles, or a
    double with a signed-zero lo limb."""
    a = draw(edge_double)
    kind = draw(st.sampled_from(["sum", "prod", "zero", "negzero"]))
    if kind == "zero":
        return DD(a, 0.0)
    if kind == "negzero":
        return DD(a, -0.0)
    b = draw(edge_double)
    if kind == "prod":
        return DD(*two_prod(a, b))
    return DD(*two_sum(a, b))


operand = st.one_of(normalised(), edge_double,
                    st.integers(-2 ** 40, 2 ** 40))


def finite_dd(x: DD) -> bool:
    return math.isfinite(x.hi) and math.isfinite(x.lo)


@given(normalised(), operand)
@settings(max_examples=1500)
# random limbs rarely reach these: the last renormalisation of the sum moves
# bits here (e + f crosses half an ulp of the leading limb)
@example(DD(1.4999999999999996, 1.1102230246251565e-16),
         DD(1.5, -3.0814879110195774e-32))
@example(DD(1.4999999999999996, 1.1102230246251565e-16),
         DD(-1.5, 3.0814879110195774e-32))
@example(DD(1.0, 8.326672684688674e-17), DD(0.75, 4.622231866529366e-33))
def test_fused_operators_match_composed_algorithms(x, y):
    for got, want in ((lambda: x + y, lambda: ref_add(x, y)),
                      (lambda: y + x, lambda: ref_add(x, y)),
                      (lambda: x - y, lambda: ref_sub(x, y)),
                      (lambda: y - x, lambda: ref_sub(y, x)),
                      (lambda: x * y, lambda: ref_mul(x, y)),
                      (lambda: y * x, lambda: ref_mul(x, y)),
                      (lambda: x / y, lambda: ref_div(x, y)),
                      (lambda: y / x, lambda: ref_div(y, x)),
                      (lambda: -x, lambda: ref_neg(x))):
        try:
            want_value = want()
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                got()
            continue
        assert_same(got(), want_value)


@given(normalised())
@settings(max_examples=500)
def test_fused_sqrt_matches_composed_algorithm(x):
    if x.hi < 0.0:
        with pytest.raises(DomainError):
            x.sqrt()
        return
    try:
        want = ref_sqrt(x)
    except ZeroDivisionError:  # hi == 0 with a nonzero lo limb
        with pytest.raises(ZeroDivisionError):
            x.sqrt()
        return
    assert_same(x.sqrt(), want)


@given(edge_double | st.integers(-2 ** 40, 2 ** 40),
       edge_double | st.integers(-2 ** 40, 2 ** 40))
@settings(max_examples=800)
def test_fused_constructors_match_composed_algorithms(a, b):
    assert_same(DD.sum2(a, b), DD(*two_sum(a, b)))
    assert_same(DD.product(a, b), DD(*two_prod(a, b)))
    if b == 0:
        with pytest.raises(ZeroDivisionError):
            DD.quotient(a, b)
    else:
        assert_same(DD.quotient(a, b), ref_quotient(a, b))


@given(normalised(), st.integers(0, 9))
@settings(max_examples=300)
def test_pow_matches_square_and_multiply(x, n):
    assert_same(x ** n, ref_pow(x, n))


# signed magnitudes over the whole double range, subnormals included, with
# the edges of the Dekker split and the largest double
wide_double = st.one_of(
    st.sampled_from([5e-324, 2.2e-308, 1.3e300, sys.float_info.max]),
    st.floats(min_value=1e-320, max_value=1e308),
).flatmap(lambda m: st.sampled_from([m, -m]))


@st.composite
def wide_dd(draw):
    """A canonical DD over the whole double range, fl(hi + lo) == hi: a lo
    limb of either signed zero, or the quick_two_sum of hi and an offset
    below half an ulp of hi.  Below a power of two the spacing halves, so
    an offset there can round hi + lo to the double below hi;
    quick_two_sum moves hi there instead of drawing that non-canonical
    pair."""
    hi = draw(wide_double)
    lo = draw(st.sampled_from([0.0, -0.0])
              | st.floats(-0.49, 0.49).map(lambda f: f * math.ulp(hi)))
    if lo == 0.0:
        return DD(hi, lo)
    return DD(*quick_two_sum(hi, lo))


@given(wide_dd())
@settings(max_examples=500)
def test_wide_dd_draws_only_canonical_values(x):
    assert x.hi + x.lo == x.hi


@given(wide_dd(), st.sampled_from([2, 3]))
@settings(max_examples=500)
def test_pow_from_the_base_matches_the_loop_from_one(x, n):
    """The powers the pipeline takes drop the loop's first product 1 * x,
    and wherever that loop stays finite they keep every bit of it."""
    want = ref_pow_from_one(x, n)
    if not (math.isfinite(want.hi) and math.isfinite(want.lo)):
        return
    assert_same(x ** n, want)


def test_bit_comparison_sees_signed_zeros():
    with pytest.raises(AssertionError):
        assert_same(DD(0.0, 0.0), DD(0.0, -0.0))
    got = DD.product(-1.0, 0.0)
    assert math.copysign(1.0, got.hi) == -1.0
    assert_same(got, DD(*two_prod(-1.0, 0.0)))
