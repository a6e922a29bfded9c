"""Double-double ("compensated") arithmetic.

A value is carried as an unevaluated sum hi + lo of two IEEE doubles with
|lo| <= 0.5 ulp(hi), giving roughly 32 significant decimal digits.  The
frequency-shift pipeline needs this because the interesting physics lives in
deltas of size 1e-10 .. 1e-23 sitting on top of numbers of order one, i.e.
partly below double-precision epsilon relative to the unit.

Every shift and decomposition the pipeline outputs is a DD, or for a sweep
chunk a DDColumn of limbs: the closed form computes it on scaled integers
(``fixed``) and rounds it to its limbs once.  The arithmetic below runs the
independent contraction route in ``crosscheck``, the oracle's geodesic
cross-check and the wavepacket's propagation.

The error-free transformations (two_sum, two_prod via Dekker splitting) are
exact, and so are DD.sum2 and DD.product.  Every other kernel has a proven
relative error bound, u = 2^-53, barring underflow and overflow; no FMA is
assumed:

  +, -         AccurateDWPlusDW   3u^2 + 13u^3
  *            DWTimesDW1         7u^2
  /            DWDivDW2           15u^2 + 56u^3
  DD.quotient  DWDivFP1           3.5u^2  (double / double: a zero lo limb)
  sqrt         SQRTDWtoDW         25/8 u^2

The first four are from Joldes, Muller & Popescu, "Tight and rigorous error
bounds for basic building blocks of double-word arithmetic" (ACM TOMS 44(2),
2017); the square root is from Lefevre, Louvet, Muller, Picot & Rideau,
"Accurate calculation of Euclidean norms using double-word arithmetic" (ACM
TOMS 49(1), 2023).  tests/test_ddouble.py checks each bound exactly in
rationals.

Every kernel is written as calls to the one two_sum, quick_two_sum and
two_prod, step by step as the papers give it.  _add (for - too, the
subtrahend negated limb by limb) and _div take and return float limbs, since
each serves an operator and its reflection; the others sit in the DD method
they serve.  _limbs is the one operand rule: every operator, comparison and
DD.of reads a DD, float or int through it and refuses anything else.

The DD class itself, with DD.ONE, is an arithmetic in the sense of
``geometry``: the observer deviations written once there run on it for the
contraction route, one radius at a time, as they run on a ``fixed.Scale``
for the closed form.  A DDColumn only carries the limbs of a sweep chunk's
results; the one column arithmetic is ``fixed``'s.
"""

from __future__ import annotations

import math

from .errors import DomainError

_SPLITTER = 134217729.0  # 2**27 + 1, exact in double


def two_sum(a: float, b: float) -> tuple[float, float]:
    """Error-free sum: returns (s, e) with s = fl(a+b) and s + e == a + b."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a: float, b: float) -> tuple[float, float]:
    """two_sum specialised to |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def split(a: float) -> tuple[float, float]:
    """Dekker split of a double into two 26-bit halves (hi + lo == a)."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a: float, b: float) -> tuple[float, float]:
    """Error-free product: returns (p, e) with p = fl(a*b) and p + e == a*b."""
    p = a * b
    ahi, alo = split(a)
    bhi, blo = split(b)
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


# -- kernels: limbs in, the result's (hi, lo) out ----------------------------

# A subtrahend is negated limb by limb, a float's zero lo limb to -0.0.
# Operations on such a zero lo limb stay in: they can decide the sign of a
# zero result limb.

def _add(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    """AccurateDWPlusDW: (ah + al) + (bh + bl)."""
    s, e = two_sum(ah, bh)
    t, f = two_sum(al, bl)
    s, e = quick_two_sum(s, e + t)
    return quick_two_sum(s, e + f)


def _div(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    """DWDivDW2: (ah + al) / (bh + bl); r = b * th is DWTimesFP1, and
    ah - rh is exact."""
    th = ah / bh
    ch, cl = two_prod(bh, th)
    sh, tl = quick_two_sum(ch, bl * th)
    rh, rl = quick_two_sum(sh, tl + cl)
    return quick_two_sum(th, ((ah - rh) + (al - rl)) / bh)


# -- operands ----------------------------------------------------------------

def _limbs(x) -> tuple[float, float] | None:
    """The (hi, lo) limbs of a DD, float or int operand; None for anything
    else.  A float or int enters as (float(x), 0.0)."""
    if isinstance(x, DD):
        return x.hi, x.lo
    if isinstance(x, (float, int)):
        return float(x), 0.0
    return None


class DD:
    """Immutable double-double number.

    Construct with already-normalised parts (internal use), or via
    ``DD.of``, ``DD.sum2``, ``DD.product``, ``DD.quotient``.  Operators and
    comparisons take a DD, float or int operand; anything else, a string
    or a Decimal included, is a TypeError (or unequal).
    """

    __slots__ = ("hi", "lo")

    def __init__(self, hi: float, lo: float = 0.0):
        self.hi = float(hi)
        self.lo = float(lo)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def of(x) -> "DD":
        """x itself for a DD, else the DD of the float or int x."""
        if isinstance(x, DD):
            return x
        o = _limbs(x)
        if o is None:
            raise TypeError(f"a DD needs a DD, float or int, got {type(x).__name__}")
        return _dd(*o)

    @staticmethod
    def sum2(a: float, b: float) -> "DD":
        """Exact a + b of two doubles (two_sum)."""
        # int operands give int limbs; DD() rounds them
        return DD(*two_sum(a, b))

    @staticmethod
    def product(a: float, b: float) -> "DD":
        """Exact a * b of two doubles (two_prod)."""
        return DD(*two_prod(a, b))

    @staticmethod
    def quotient(a: float, b: float) -> "DD":
        """DWDivFP1: a / b of two doubles to double-double precision."""
        q = a / b
        p, e = two_prod(q, b)
        return _dd(*quick_two_sum(q, ((a - p) - e) / b))

    # -- conversions -------------------------------------------------------

    def to_float(self) -> float:
        return self.hi + self.lo

    def to_decimal(self) -> Decimal:
        from decimal import Decimal, localcontext

        # the ambient context (default 28 digits) would truncate the lo limb
        # of values near 1; both float-to-Decimal conversions are exact and
        # 120 digits comfortably hold the sum
        with localcontext() as ctx:
            ctx.prec = 120
            return Decimal(self.hi) + Decimal(self.lo)

    def __float__(self) -> float:
        return self.to_float()

    def __repr__(self) -> str:
        return f"DD({self.hi!r}, {self.lo!r})"

    # -- arithmetic --------------------------------------------------------
    #
    # An operand _limbs refuses gets NotImplemented, so Python tries its
    # reflected operator and raises TypeError if it has none.

    def __add__(self, other) -> "DD":
        o = _limbs(other)
        return NotImplemented if o is None else _dd(*_add(self.hi, self.lo, *o))

    __radd__ = __add__

    def __neg__(self) -> "DD":
        return _dd(-self.hi, -self.lo)

    def __sub__(self, other) -> "DD":
        o = _limbs(other)
        if o is None:
            return NotImplemented
        return _dd(*_add(self.hi, self.lo, -o[0], -o[1]))

    def __rsub__(self, other) -> "DD":
        o = _limbs(other)
        if o is None:
            return NotImplemented
        return _dd(*_add(*o, -self.hi, -self.lo))

    def __mul__(self, other) -> "DD":
        """DWTimesDW1."""
        o = _limbs(other)
        if o is None:
            return NotImplemented
        bh, bl = o
        p, e = two_prod(self.hi, bh)
        return _dd(*quick_two_sum(p, e + (self.hi * bl + self.lo * bh)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "DD":
        o = _limbs(other)
        return NotImplemented if o is None else _dd(*_div(self.hi, self.lo, *o))

    def __rtruediv__(self, other) -> "DD":
        o = _limbs(other)
        return NotImplemented if o is None else _dd(*_div(*o, self.hi, self.lo))

    def __pow__(self, n: int) -> "DD":
        if not isinstance(n, int) or n < 0:
            raise DomainError("only non-negative integer powers are supported")
        if n == 0:
            return DD(1.0)
        # square-and-multiply from the lowest set bit: the first factor is
        # the base itself, never a product with 1
        out = None
        base = self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def __abs__(self) -> "DD":
        return -self if self.hi < 0.0 or (self.hi == 0.0 and self.lo < 0.0) else self

    def sqrt(self) -> "DD":
        """Square root: SQRTDWtoDW of Lefevre, Louvet, Muller, Picot & Rideau
        (ACM TOMS 49(1), 2023), relative error below 25/8 u^2."""
        # hi - sh^2 is a double, so (hi - p) - e is exact
        hi, lo = self.hi, self.lo
        if hi == 0.0 and lo == 0.0:
            return _dd(0.0, 0.0)
        if hi < 0.0:
            raise DomainError("square root of a negative compensated value")
        sh = math.sqrt(hi)
        p, e = two_prod(sh, sh)
        return _dd(*quick_two_sum(sh, (((hi - p) - e) + lo) / (2.0 * sh)))

    # -- comparisons -------------------------------------------------------
    #
    # For an operand _limbs refuses, Python falls back to the other
    # operand's method, then to identity.

    def __eq__(self, other) -> bool:
        o = _limbs(other)
        return NotImplemented if o is None else self.hi == o[0] and self.lo == o[1]

    def __lt__(self, other) -> bool:
        o = _limbs(other)
        if o is None:
            return NotImplemented
        return self.hi < o[0] or (self.hi == o[0] and self.lo < o[1])

    def __le__(self, other) -> bool:
        o = _limbs(other)
        if o is None:
            return NotImplemented
        return self.hi < o[0] or (self.hi == o[0] and self.lo <= o[1])

    def __gt__(self, other) -> bool:
        o = _limbs(other)
        if o is None:
            return NotImplemented
        return self.hi > o[0] or (self.hi == o[0] and self.lo > o[1])

    def __ge__(self, other) -> bool:
        o = _limbs(other)
        if o is None:
            return NotImplemented
        return self.hi > o[0] or (self.hi == o[0] and self.lo >= o[1])

    def __hash__(self):
        # equal to a float exactly when lo is zero, so hash as that float
        return hash(self.hi) if self.lo == 0.0 else hash((self.hi, self.lo))

    def sign(self) -> int:
        """-1, 0 or +1; the lo part decides when hi is exactly zero."""
        hi, lo = self.hi, self.lo
        if hi > 0.0:
            return 1
        if hi < 0.0:
            return -1
        if lo > 0.0:
            return 1
        if lo < 0.0:
            return -1
        return 0


_new = object.__new__


def _dd(hi: float, lo: float) -> DD:
    """A DD from two float limbs, without __init__'s float() coercion."""
    x = _new(DD)
    x.hi = hi
    x.lo = lo
    return x


ONE = DD(1.0)
DD.ONE = ONE  # the DD class as an arithmetic: ONE, product and quotient


class DDColumn:
    """A column of double-double values, ``limbs`` a list of (hi, lo) pairs:
    how the closed form hands out the shift and decomposition of a sweep
    chunk.  It carries the limbs only; column arithmetic is ``fixed``'s."""

    __slots__ = ("limbs",)

    def __init__(self, limbs: list[tuple[float, float]]):
        self.limbs = limbs


def floats(x):
    """The doubles of a sweep chunk's list (the list itself) or of a column's
    limbs, one by one; else the one value x."""
    if type(x) is list:
        return x
    if type(x) is DDColumn:
        return [hi + lo for hi, lo in x.limbs]
    return (x,)
