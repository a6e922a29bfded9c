"""Double-double ("compensated") arithmetic.

A value is carried as an unevaluated sum hi + lo of two IEEE doubles with
|lo| <= 0.5 ulp(hi), giving roughly 32 significant decimal digits.  The
frequency-shift pipeline needs this because the interesting physics lives in
deltas of size 1e-10 .. 1e-23 sitting on top of numbers of order one, i.e.
partly below double-precision epsilon relative to the unit.

The error-free transformations (two_sum, two_prod via Dekker splitting) and
the add/mul/div/sqrt algorithms follow the classic Dekker/Bailey double-double
constructions.  No FMA is assumed.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

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


class DD:
    """Immutable double-double number.

    Construct with already-normalised parts (internal use), or via
    ``DD.of``, ``DD.sum2``, ``DD.product``, ``DD.quotient``,
    ``DD.from_decimal``.  All operators accept DD, float or int operands.
    """

    __slots__ = ("hi", "lo")

    def __init__(self, hi: float, lo: float = 0.0):
        self.hi = float(hi)
        self.lo = float(lo)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def of(x) -> "DD":
        if isinstance(x, DD):
            return x
        return DD(float(x), 0.0)

    @staticmethod
    def sum2(a: float, b: float) -> "DD":
        """Exact a + b of two doubles."""
        return DD(*two_sum(a, b))

    @staticmethod
    def product(a: float, b: float) -> "DD":
        """Exact a * b of two doubles."""
        return DD(*two_prod(a, b))

    @staticmethod
    def quotient(a: float, b: float) -> "DD":
        """a / b of two doubles, accurate to double-double precision."""
        q = a / b
        p, e = two_prod(q, b)
        return DD(*quick_two_sum(q, ((a - p) - e) / b))

    @staticmethod
    def from_decimal(d: Decimal) -> "DD":
        hi = float(d)
        return DD(*quick_two_sum(hi, float(d - Decimal(hi))))

    # -- conversions -------------------------------------------------------

    def to_float(self) -> float:
        return self.hi + self.lo

    def to_decimal(self) -> Decimal:
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

    def __add__(self, other) -> "DD":
        o = DD.of(other)
        s, e = two_sum(self.hi, o.hi)
        t, f = two_sum(self.lo, o.lo)
        e += t
        s, e = quick_two_sum(s, e)
        e += f
        return DD(*quick_two_sum(s, e))

    __radd__ = __add__

    def __neg__(self) -> "DD":
        return DD(-self.hi, -self.lo)

    def __sub__(self, other) -> "DD":
        return self.__add__(-DD.of(other))

    def __rsub__(self, other) -> "DD":
        return DD.of(other).__sub__(self)

    def __mul__(self, other) -> "DD":
        o = DD.of(other)
        p, e = two_prod(self.hi, o.hi)
        e += self.hi * o.lo + self.lo * o.hi
        return DD(*quick_two_sum(p, e))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "DD":
        o = DD.of(other)
        q1 = self.hi / o.hi
        r = self - o * q1
        q2 = r.hi / o.hi
        r = r - o * q2
        q3 = r.hi / o.hi
        s, e = quick_two_sum(q1, q2)
        return DD(s, e).__add__(DD(q3))

    def __rtruediv__(self, other) -> "DD":
        return DD.of(other).__truediv__(self)

    def __pow__(self, n: int) -> "DD":
        if not isinstance(n, int) or n < 0:
            raise DomainError("only non-negative integer powers are supported")
        out = DD(1.0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __abs__(self) -> "DD":
        return -self if self.hi < 0.0 or (self.hi == 0.0 and self.lo < 0.0) else self

    def sqrt(self) -> "DD":
        """Square root, accurate to double-double precision."""
        if self.hi == 0.0 and self.lo == 0.0:
            return DD(0.0)
        if self.hi < 0.0:
            raise DomainError("square root of a negative compensated value")
        x = 1.0 / math.sqrt(self.hi)
        ax = self.hi * x
        err = self - DD.product(ax, ax)
        s, e = two_sum(ax, err.hi * (x * 0.5))
        return DD(*quick_two_sum(s, e))

    # -- comparisons -------------------------------------------------------

    def _parts(self, other) -> tuple[float, float]:
        o = DD.of(other)
        return o.hi, o.lo

    def __eq__(self, other) -> bool:
        ohi, olo = self._parts(other)
        return self.hi == ohi and self.lo == olo

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    def __lt__(self, other) -> bool:
        ohi, olo = self._parts(other)
        return self.hi < ohi or (self.hi == ohi and self.lo < olo)

    def __le__(self, other) -> bool:
        ohi, olo = self._parts(other)
        return self.hi < ohi or (self.hi == ohi and self.lo <= olo)

    def __gt__(self, other) -> bool:
        return not self.__le__(other)

    def __ge__(self, other) -> bool:
        return not self.__lt__(other)

    def __hash__(self):
        return hash((self.hi, self.lo))

    def sign(self) -> int:
        """-1, 0 or +1; the lo part decides when hi is exactly zero."""
        if self.hi > 0.0:
            return 1
        if self.hi < 0.0:
            return -1
        if self.lo > 0.0:
            return 1
        if self.lo < 0.0:
            return -1
        return 0


ONE = DD(1.0)
ZERO = DD(0.0)
