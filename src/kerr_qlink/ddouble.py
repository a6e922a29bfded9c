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

Each kernel is one module-level function on float limbs that returns the
(hi, lo) pair of its result: _add (for - too, the subtrahend negated limb by
limb), _mul, _div, _sqrt, _quotient, _product and _sum2.  They write the
error-free transformations out inline instead of calling them, and run the
same IEEE operations in the same order, so every bit of a result, signed
zeros included, is that of the composed form; tests/test_ddouble.py keeps
the composed form as the reference.  DD's operators unpack the operands,
call the kernel and wrap the pair.

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

def _sum2(a: float, b: float) -> tuple[float, float]:
    """Exact a + b of two doubles (two_sum)."""
    s = a + b
    bb = s - a
    # int operands give int limbs; float() rounds them as DD() does
    return float(s), float((a - (s - bb)) + (b - bb))


def _product(a: float, b: float) -> tuple[float, float]:
    """Exact a * b of two doubles (two_prod)."""
    p = a * b
    t = _SPLITTER * a
    ahi = t - (t - a)
    alo = a - ahi
    t = _SPLITTER * b
    bhi = t - (t - b)
    blo = b - bhi
    # p is an int when both operands are; the error term is always a float
    return float(p), ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _quotient(a: float, b: float) -> tuple[float, float]:
    """DWDivFP1 on two doubles: a / b to double-double precision."""
    q = a / b
    # two_prod(q, b)
    p = q * b
    t = _SPLITTER * q
    qhi = t - (t - q)
    qlo = q - qhi
    t = _SPLITTER * b
    bhi = t - (t - b)
    blo = b - bhi
    e = ((qhi * bhi - p) + qhi * blo + qlo * bhi) + qlo * blo
    # quick_two_sum(q, ((a - p) - e) / b)
    r = ((a - p) - e) / b
    s = q + r
    return s, r - (s - q)


# A float or int operand enters as (float(x), 0.0), negated as (-float(x),
# -0.0).  Operations on such a zero lo limb stay in: they can decide the sign
# of a zero result limb.

def _add(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    """AccurateDWPlusDW: (ah + al) + (bh + bl)."""
    # two_sum on both limb pairs, then two renormalising quick_two_sums
    s = ah + bh
    bb = s - ah
    e = (ah - (s - bb)) + (bh - bb)
    t = al + bl
    bb = t - al
    f = (al - (t - bb)) + (bl - bb)
    e += t
    t = s + e
    e = e - (t - s)
    e += f
    s = t + e
    return s, e - (s - t)


def _mul(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    """DWTimesDW1: (ah + al) * (bh + bl)."""
    # two_prod(ah, bh), then the cross terms, then quick_two_sum
    p = ah * bh
    t = _SPLITTER * ah
    ahh = t - (t - ah)
    ahl = ah - ahh
    t = _SPLITTER * bh
    bhh = t - (t - bh)
    bhl = bh - bhh
    e = ((ahh * bhh - p) + ahh * bhl + ahl * bhh) + ahl * bhl
    e += ah * bl + al * bh
    s = p + e
    return s, e - (s - p)


def _div(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    """DWDivDW2: (ah + al) / (bh + bl)."""
    # th = ah / bh, r = b * th (DWTimesFP1), then one correction
    # (a - r) / bh; two_prod(bh, th) first
    th = ah / bh
    ch = bh * th
    t = _SPLITTER * bh
    bhh = t - (t - bh)
    bhl = bh - bhh
    t = _SPLITTER * th
    thh = t - (t - th)
    thl = th - thh
    cl = ((bhh * thh - ch) + bhh * thl + bhl * thh) + bhl * thl
    # quick_two_sum(ch, bl * th), then quick_two_sum(sh, tl + cl)
    t = bl * th
    sh = ch + t
    t = (t - (sh - ch)) + cl
    rh = sh + t
    rl = t - (rh - sh)
    # ah - rh is exact; quick_two_sum(th, tl)
    t = ((ah - rh) + (al - rl)) / bh
    s = th + t
    return s, t - (s - th)


def _sqrt(hi: float, lo: float) -> tuple[float, float]:
    """SQRTDWtoDW: sqrt(hi + lo)."""
    if hi == 0.0 and lo == 0.0:
        return 0.0, 0.0
    if hi < 0.0:
        raise DomainError("square root of a negative compensated value")
    sh = math.sqrt(hi)
    # two_prod(sh, sh); hi - sh^2 is a double, so (hi - p) - e is exact
    p = sh * sh
    t = _SPLITTER * sh
    h = t - (t - sh)
    l = sh - h
    e = ((h * h - p) + h * l + l * h) + l * l
    sl = (((hi - p) - e) + lo) / (2.0 * sh)
    # quick_two_sum(sh, sl)
    s = sh + sl
    return s, sl - (s - sh)


class DD:
    """Immutable double-double number.

    Construct with already-normalised parts (internal use), or via
    ``DD.of``, ``DD.sum2``, ``DD.product``, ``DD.quotient``.  All operators
    accept DD, float or int operands.
    """

    __slots__ = ("hi", "lo")

    def __init__(self, hi: float, lo: float = 0.0):
        self.hi = float(hi)
        self.lo = float(lo)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def of(x) -> "DD":
        """x itself for a DD, else the DD of the double x."""
        if isinstance(x, DD):
            return x
        return DD(float(x), 0.0)

    @staticmethod
    def sum2(a: float, b: float) -> "DD":
        """Exact a + b of two doubles."""
        return _dd(*_sum2(a, b))

    @staticmethod
    def product(a: float, b: float) -> "DD":
        """Exact a * b of two doubles."""
        return _dd(*_product(a, b))

    @staticmethod
    def quotient(a: float, b: float) -> "DD":
        """a / b of two doubles, accurate to double-double precision."""
        return _dd(*_quotient(a, b))

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
    # An operand float() refuses gets NotImplemented, so Python tries its
    # reflected operator and raises TypeError if it has none.

    def __add__(self, other) -> "DD":
        if isinstance(other, DD):
            return _dd(*_add(self.hi, self.lo, other.hi, other.lo))
        try:
            b = float(other)
        except TypeError:
            return NotImplemented
        return _dd(*_add(self.hi, self.lo, b, 0.0))

    __radd__ = __add__

    def __neg__(self) -> "DD":
        return _dd(-self.hi, -self.lo)

    def __sub__(self, other) -> "DD":
        # self + (-other), the negation taken limb by limb
        if isinstance(other, DD):
            return _dd(*_add(self.hi, self.lo, -other.hi, -other.lo))
        try:
            b = float(other)
        except TypeError:
            return NotImplemented
        return _dd(*_add(self.hi, self.lo, -b, -0.0))

    def __rsub__(self, other) -> "DD":
        return DD.of(other).__sub__(self)

    def __mul__(self, other) -> "DD":
        if isinstance(other, DD):
            return _dd(*_mul(self.hi, self.lo, other.hi, other.lo))
        try:
            b = float(other)
        except TypeError:
            return NotImplemented
        return _dd(*_mul(self.hi, self.lo, b, 0.0))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "DD":
        if isinstance(other, DD):
            return _dd(*_div(self.hi, self.lo, other.hi, other.lo))
        try:
            b = float(other)
        except TypeError:
            return NotImplemented
        return _dd(*_div(self.hi, self.lo, b, 0.0))

    def __rtruediv__(self, other) -> "DD":
        return DD.of(other).__truediv__(self)

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
        return _dd(*_sqrt(self.hi, self.lo))

    # -- comparisons -------------------------------------------------------

    # A DD compares with a DD, float or int only; for anything else Python
    # falls back to the other operand's method, then to identity.

    def _parts(self, other) -> tuple[float, float] | None:
        if isinstance(other, DD):
            return other.hi, other.lo
        if isinstance(other, (float, int)):
            return float(other), 0.0
        return None

    def __eq__(self, other) -> bool:
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return self.hi == o[0] and self.lo == o[1]

    def __lt__(self, other) -> bool:
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return self.hi < o[0] or (self.hi == o[0] and self.lo < o[1])

    def __le__(self, other) -> bool:
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return self.hi < o[0] or (self.hi == o[0] and self.lo <= o[1])

    def __gt__(self, other) -> bool:
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return self.hi > o[0] or (self.hi == o[0] and self.lo > o[1])

    def __ge__(self, other) -> bool:
        o = self._parts(other)
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
