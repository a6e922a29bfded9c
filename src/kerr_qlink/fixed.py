"""Fixed-point arithmetic on ints scaled by 2**k: the arithmetic of the
closed form and of the decomposition.

A value is n / 2**k with n a Python int, whose arithmetic runs in C.  Each
operation floors its exact result to a multiple of 2**-k:

    a * b   (x * y) >> k          a / b   (x << k) // y
    sqrt    isqrt(x << k)         a +- b, and a times or over an int, exact

A double enters as the exact rational it is, floored once.  So an operation
errs by less than one unit 2**-k on its operands; a square root of a small
value q amplifies its operand's error by 1 / (2 sqrt q), which keeps the
root's relative error below 2**-k / q.

``link_scale`` chooses k per link: GUARD_BITS below the smallest scale of
delta's terms and of the decomposition's (M/r at the receiver, the
emitter's rotation term), rounded up to a multiple of 32 bits.  delta's
error is bounded by ERROR_UNITS units of 2**-k (900 random links around
the Earth presets stay within 4), that is by double-double's 2**-106
relative to the smallest scale, so relative to delta's largest term too.
A tiny planet or a huge radius gets a larger k, not a refusal; a column
whose points need different k is refused.  A one-point column comes back
from ``dd`` as one DD, like a shared value.

A ``Fixed`` holds a list of ints: one per point of a sweep chunk's column,
or a single one that every point shares.  Its operators are list
comprehensions of int expressions.  Results leave once, through
``Scale.dd``, as double-double limbs rounded correctly: hi = n / 2**k and
lo = (n - hi 2**k) / 2**k.
"""

from __future__ import annotations

import math

from .ddouble import DDColumn, _dd, floats
from .errors import DomainError
from .geometry import WorldlineKind
from .units import C

GUARD_BITS = 112
ERROR_UNITS = 64

_isqrt = math.isqrt


def _fixed(n: list, k: int) -> "Fixed":
    x = object.__new__(Fixed)
    x.n = n
    x.k = k
    return x


def _floor(x, k: int) -> int:
    """floor(x 2**k) of a double or int x, exactly."""
    p, q = x.as_integer_ratio()
    return (p << k) // q


def _zip(a: list, b: list):
    """Elementwise pairs of two lists, a single element standing for every
    point."""
    if len(a) != len(b):
        if len(a) == 1:
            a = a * len(b)
        elif len(b) == 1:
            b = b * len(a)
        else:
            raise ValueError(f"columns of {len(a)} and {len(b)} elements")
    return zip(a, b)


def _pairs(a: list, other, k: int):
    """a's ints paired with other's: a Fixed's, or a double's or int's."""
    b = other.n if type(other) is Fixed else [_floor(other, k)]
    return zip(a, b) if len(a) == len(b) else _zip(a, b)


def _ratios(x) -> list:
    """The exact ratios of a double, or of each double of a sweep chunk's
    list."""
    return [v.as_integer_ratio() for v in floats(x)]


class Fixed:
    """Values n / 2**k, one per element of the int list ``n``."""

    __slots__ = ("n", "k")

    def __add__(self, other) -> "Fixed":
        return _fixed([x + y for x, y in _pairs(self.n, other, self.k)], self.k)

    def __sub__(self, other) -> "Fixed":
        return _fixed([x - y for x, y in _pairs(self.n, other, self.k)], self.k)

    def __rsub__(self, other) -> "Fixed":
        return _fixed([y - x for x, y in _pairs(self.n, other, self.k)], self.k)

    def __neg__(self) -> "Fixed":
        return _fixed([-x for x in self.n], self.k)

    def __mul__(self, other) -> "Fixed":
        k = self.k
        if type(other) is int:
            return _fixed([x * other for x in self.n], k)
        return _fixed([(x * y) >> k for x, y in _pairs(self.n, other, k)], k)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Fixed":
        k = self.k
        if type(other) is int:
            return _fixed([x // other for x in self.n], k)
        return _fixed([(x << k) // y for x, y in _pairs(self.n, other, k)], k)

    def __pow__(self, e: int) -> "Fixed":
        # DD.__pow__'s contract: x ** 0 is the one value ONE
        if not isinstance(e, int) or e < 0:
            raise DomainError("only non-negative integer powers are supported")
        if e == 0:
            return _fixed([1 << self.k], self.k)
        out = self
        for _ in range(e - 1):
            out = out * self
        return out

    def sqrt(self) -> "Fixed":
        if min(self.n) < 0:
            raise DomainError("square root of a negative fixed-point value")
        k = self.k
        return _fixed([_isqrt(x << k) for x in self.n], k)

    def sign(self) -> int:
        """The least sign of the elements: a guard that refuses x.sign() <= 0
        (or < 0) refuses a column when it would refuse any element."""
        m = min(self.n)
        return (m > 0) - (m < 0)


class Scale:
    """The arithmetic at one scale 2**-k: what the closed form takes from an
    arithmetic (``ONE``, ``product``, ``quotient``), and ``dd``, the way
    out."""

    __slots__ = ("k", "ONE")

    def __init__(self, k: int):
        self.k = k
        self.ONE = _fixed([1 << k], k)

    def product(self, a, b) -> Fixed:
        """a * b of two doubles, either of them a column."""
        k = self.k
        return _fixed([(pa * pb << k) // (qa * qb) for (pa, qa), (pb, qb)
                       in _zip(_ratios(a), _ratios(b))], k)

    def quotient(self, a, b) -> Fixed:
        """a / b of two doubles, either of them a column."""
        k = self.k
        return _fixed([(pa * qb << k) // (qa * pb) for (pa, qa), (pb, qb)
                       in _zip(_ratios(a), _ratios(b))], k)

    def dd(self, x: Fixed):
        """x as correctly rounded double-double limbs: a DD for a single
        value, a DDColumn for a column."""
        k, limbs = self.k, None
        if k <= 1022:
            # float(n) rounds n once; a nonzero limb is an integer times
            # s = 2**-k, so at least 2**-1022: not subnormal, and the
            # multiplication by s is exact
            s = 2.0 ** -k
            try:
                limbs = [((m := float(n)) * s, float(n - int(m)) * s)
                         for n in x.n]
            except OverflowError:  # n past the double range
                pass
        if limbs is None:
            one = 1 << k
            try:
                limbs = [(hi := n / one, (n - _floor(hi, k)) / one) for n in x.n]
            except OverflowError:
                raise DomainError(
                    "a shift quantity leaves the double range") from None
        return _dd(*limbs[0]) if len(limbs) == 1 else DDColumn(limbs)


def _log2(x: float) -> int:
    return math.frexp(x)[1]


def scale(M: float, r_far: float, rotation_bits: int = 0) -> Scale:
    """The scale of a link whose farthest radius is r_far and whose rotation
    term lies rotation_bits below one."""
    mass_bits = _log2(r_far) - _log2(M) + 1 if M else 0
    return Scale(-(-(GUARD_BITS + max(0, mass_bits, rotation_bits)) // 32) * 32)


def link_scale(link) -> Scale:
    """The scale of a link, or of a sweep chunk's column of links, from the
    emitter's rotation term, (omega r_A / c)^2 of a station or (M/r)(a/r)^2
    of an orbit, and M/r at the receiver.  A column whose extreme radii need
    different scales is refused: each of its points must run alone, on the
    scale it gets alone."""
    p, emitter = link.params, link.emitter
    scales = set()
    for r_e in {min(floats(emitter.r)), max(floats(emitter.r))}:
        rotation = 0
        if emitter.kind is WorldlineKind.GROUND_STATION:
            if emitter.omega_si:
                rotation = 2 * (_log2(C) - _log2(emitter.omega_si)
                                - _log2(r_e)) + 4
        elif p.a:
            rotation = 3 * _log2(r_e) - _log2(p.M_geom) - 2 * _log2(p.a) + 3
        for r_r in {min(floats(link.receiver.r)), max(floats(link.receiver.r))}:
            scales.add(scale(p.M_geom, r_r, rotation).k)
    if len(scales) > 1:
        raise DomainError("a column's points need different fixed-point scales")
    return Scale(scales.pop())
