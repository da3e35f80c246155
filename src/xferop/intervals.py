"""Exact interval arithmetic over the rationals.

The dynamics layer manipulates finite unions of intervals with rational
endpoints, so every set operation here is exact.  ``RationalInterval`` is a
single (possibly degenerate) interval with endpoint flags; ``IntervalSet``
keeps a canonical sorted, merged tuple of them, which makes equality of set
descriptions a plain tuple comparison.  ``IntervalSet(intervals)`` is the
normaliser: it sorts and joins whatever it is given (specs, ``points``,
``difference``, ``closure``).  The operations of the minimality closure
step return canonical tuples without it, each for one reason:

- ``intersection``: the pieces of two canonical sets are disjoint, come out
  in order, and two that touched would lie in one component of each side;
- ``union``: one merge of the two sorted tuples by left end, then the
  normaliser's join;
- ``dynamics.AffineBranch.image_of`` / ``preimage_of``: an affine bijection
  keeps the order of the components, or reverses it for a negative slope,
  so the ``IntervalSystem`` ones, unions of these, are canonical too;
- ``empty``, ``point`` and the dyadic seeds of
  ``IntervalSystem.open_seeds``: no interval, or one.

Every exact number in the package is a ``Q``: a ``Fraction`` subclass with no
new state.  ``Fraction``'s operators go through ``numbers.Rational`` dispatch,
which costs more than the integer arithmetic itself; ``Q``'s comparisons,
``+ - * /`` (both sides), ``-``, ``+`` and ``abs`` read the numerator and
denominator directly whenever the other operand is a ``Q`` or an ``int``.
Any other operand goes to ``Fraction``'s own operator, and a ``Fraction``
result comes back as a ``Q``, so mixed arithmetic stays fast afterwards.  A
``Q`` is otherwise a ``Fraction``: ``isinstance`` holds, ``repr`` prints
``Fraction(n, d)`` (certificates print through it), ``hash`` and ``==`` agree
with a plain ``Fraction`` of the same value, so either finds the other in a
dict, and division by zero raises ``ZeroDivisionError``.  ``frac`` and every
constructor call in the package build ``Q``.

A ``RationalPoints`` is a batch of rationals as numerator and denominator
arrays: int64 while the data allows it, Python ints past 2^53.  Batches
multiply, add, take an affine map, an interval test, a comparison, a max
or min and a floor or ceiling elementwise, sort by exact value and round
to floats bit for bit, refusing by name a value past the float range as
``float_of`` does for one number; ``affine_values`` and ``affine_floats``
evaluate a piecewise-affine function (pieces and point overrides) on one,
exactly or as the ``float`` of the exact value.  The map's walks in ``dynamics`` and
the Ulam bin geometry in ``transfer`` run on them, and ``RationalIds``
interns them by their reduced pair.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import ValidationError

Rationalish = Union[Fraction, int, str]

_new = object.__new__


def _q(n: int, d: int) -> Q:
    """The Q n/d, for coprime n and d > 0 (not checked)."""
    x = _new(Q)
    x._numerator = n
    x._denominator = d
    return x


def _wrap(r):
    """A plain Fraction as a Q; anything else (float, NotImplemented) as is."""
    return _q(r._numerator, r._denominator) if type(r) is Fraction else r


# Kernels on reduced pairs with positive denominators, as in ``Fraction``.


def _sum(na: int, da: int, nb: int, db: int) -> Q:
    g = gcd(da, db)
    if g == 1:
        return _q(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _q(t, s * db)
    return _q(t // g2, s * (db // g2))


def _diff(na: int, da: int, nb: int, db: int) -> Q:
    return _sum(na, da, -nb, db)


def _prod(na: int, da: int, nb: int, db: int) -> Q:
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _q(na * nb, da * db)


def _quot(na: int, da: int, nb: int, db: int) -> Q:
    if nb == 0:
        raise ZeroDivisionError(f"Fraction({na}, 0)")
    return _prod(na, da, db, nb) if nb > 0 else _prod(na, da, -db, -nb)


def _forward(kernel, name: str):
    fallback = getattr(Fraction, name)

    def op(a, b):
        if type(b) is Q:
            return kernel(a._numerator, a._denominator, b._numerator, b._denominator)
        if type(b) is int:
            return kernel(a._numerator, a._denominator, b, 1)
        return _wrap(fallback(a, b))

    op.__name__ = name
    return op


def _reverse(kernel, name: str):
    # a Q on the left never defers to its right operand, so b is never a Q
    fallback = getattr(Fraction, name)

    def op(a, b):
        if type(b) is int:
            return kernel(b, 1, a._numerator, a._denominator)
        return _wrap(fallback(a, b))

    op.__name__ = name
    return op


def _compare(name: str):
    cmp, fallback = getattr(operator, name), getattr(Fraction, name)

    def op(a, b):
        if type(b) is Q:
            return cmp(a._numerator * b._denominator, b._numerator * a._denominator)
        if type(b) is int:
            return cmp(a._numerator, b * a._denominator)
        return fallback(a, b)

    op.__name__ = name
    return op


def _deferred(name: str):
    fallback = getattr(Fraction, name)

    def op(a, b):
        return _wrap(fallback(a, b))

    op.__name__ = name
    return op


class Q(Fraction):
    """An exact rational with fast paths for ``Q`` and ``int`` operands.

    Built like a ``Fraction``: ``Q(1, 3)``, ``Q("1/3")``, ``Q(2)``.
    """

    __slots__ = ()
    # defining __eq__ would otherwise set __hash__ to None
    __hash__ = Fraction.__hash__

    __lt__, __le__ = _compare("__lt__"), _compare("__le__")
    __gt__, __ge__ = _compare("__gt__"), _compare("__ge__")
    __add__, __radd__ = _forward(_sum, "__add__"), _reverse(_sum, "__radd__")
    __sub__, __rsub__ = _forward(_diff, "__sub__"), _reverse(_diff, "__rsub__")
    __mul__, __rmul__ = _forward(_prod, "__mul__"), _reverse(_prod, "__rmul__")
    __truediv__ = _forward(_quot, "__truediv__")
    __rtruediv__ = _reverse(_quot, "__rtruediv__")
    __mod__, __rmod__ = _deferred("__mod__"), _deferred("__rmod__")
    __pow__, __rpow__ = _deferred("__pow__"), _deferred("__rpow__")

    def __eq__(a, b):
        if type(b) is Q:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if type(b) is int:
            return a._denominator == 1 and a._numerator == b
        return Fraction.__eq__(a, b)

    def __float__(a):
        # int / int is correctly rounded, as in Fraction's own __float__
        return a._numerator / a._denominator

    def __neg__(a):
        return _q(-a._numerator, a._denominator)

    def __pos__(a):
        return a

    def __abs__(a):
        return a if a._numerator >= 0 else _q(-a._numerator, a._denominator)

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"


def frac(value: Rationalish) -> Q:
    """Coerce ints, Fractions and ``"p/q"`` strings to an exact ``Q``.

    Floats are rejected on purpose: they would silently break exactness.
    """
    if type(value) is Q:
        return value
    if isinstance(value, Fraction):
        return _q(value.numerator, value.denominator)
    if isinstance(value, bool):
        raise ValidationError("bool is not a rational value")
    if isinstance(value, int):
        return _q(int(value), 1)
    if isinstance(value, str):
        try:
            return Q(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse rational {value!r}: {exc}") from exc
    raise ValidationError(f"expected a rational value, got {value!r}")


def frac_str(value: Fraction) -> str:
    """Canonical text form: reduced ``p/q``, plain ``p`` for integers."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def float_of(value: Fraction) -> float:
    """``float(value)``; a value past the float range is refused by name."""
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{frac_str(value)} is past the float range") from None


def _quotients(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise as floats, each correctly rounded; a quotient past
    the float range is refused by name, as ``float_of`` refuses it."""
    try:
        return np.true_divide(num, den).astype(float, copy=False)
    except OverflowError:  # only Python ints divide past the range
        for n, d in zip(num.tolist(), den.tolist()):
            float_of(Q(n, d))
        raise


@dataclass(frozen=True)
class RationalInterval:
    """One interval with rational endpoints and open/closed flags.

    A degenerate interval (``lo == hi``) must be closed on both sides and
    stands for a single point.
    """

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lo", frac(self.lo))
        object.__setattr__(self, "hi", frac(self.hi))
        if self.lo > self.hi:
            raise ValidationError(f"interval endpoints out of order: {self}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValidationError(f"degenerate interval must be closed: {self}")

    # -- queries ---------------------------------------------------------

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Rationalish) -> bool:
        # the signs of x - lo and x - hi, on the numerators of reduced Qs
        if type(x) is not Q:
            x = frac(x)
        n, d, lo, hi = x._numerator, x._denominator, self.lo, self.hi
        below = n * lo._denominator - lo._numerator * d
        if below < 0 or (below == 0 and not self.lo_closed):
            return False
        above = n * hi._denominator - hi._numerator * d
        return above < 0 or (above == 0 and self.hi_closed)

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    # -- constructions ---------------------------------------------------

    @staticmethod
    def point(x: Rationalish) -> "RationalInterval":
        x = frac(x)
        return RationalInterval(x, x, True, True)

    def closure(self) -> "RationalInterval":
        return RationalInterval(self.lo, self.hi, True, True)

    def intersection(self, other: "RationalInterval") -> "RationalInterval | None":
        # each end is the later start (earlier finish) with its own flag, or
        # where both agree, closed only if both are; lo <= hi puts it in both
        if self.lo > other.lo:
            lo, lo_closed = self.lo, self.lo_closed
        elif other.lo > self.lo:
            lo, lo_closed = other.lo, other.lo_closed
        else:
            lo, lo_closed = self.lo, self.lo_closed and other.lo_closed
        if self.hi < other.hi:
            hi, hi_closed = self.hi, self.hi_closed
        elif other.hi < self.hi:
            hi, hi_closed = other.hi, other.hi_closed
        else:
            hi, hi_closed = self.hi, self.hi_closed and other.hi_closed
        if lo > hi:
            return None
        if lo == hi:
            return RationalInterval.point(lo) if lo_closed and hi_closed else None
        return RationalInterval(lo, hi, lo_closed, hi_closed)

    def affine_image(self, slope: Rationalish, intercept: Rationalish) -> "RationalInterval":
        """Image under ``x -> slope*x + intercept`` with ``slope != 0``."""
        m, c = frac(slope), frac(intercept)
        if m == 0:
            raise ValidationError("affine image requires nonzero slope")
        a = m * self.lo + c
        b = m * self.hi + c
        if m > 0:
            return RationalInterval(a, b, self.lo_closed, self.hi_closed)
        return RationalInterval(b, a, self.hi_closed, self.lo_closed)

    def __str__(self) -> str:
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{frac_str(self.lo)}, {frac_str(self.hi)}{rb}"


def _mergeable(a: RationalInterval, b: RationalInterval) -> bool:
    # assumes a.lo <= b.lo after sorting
    if b.lo > a.hi:
        return False
    if b.lo == a.hi:
        return a.hi_closed or b.lo_closed
    return True


def _merge(a: RationalInterval, b: RationalInterval) -> RationalInterval:
    if a.lo < b.lo:
        lo, lo_closed = a.lo, a.lo_closed
    elif b.lo < a.lo:
        lo, lo_closed = b.lo, b.lo_closed
    else:
        lo, lo_closed = a.lo, a.lo_closed or b.lo_closed
    if a.hi > b.hi:
        hi, hi_closed = a.hi, a.hi_closed
    elif b.hi > a.hi:
        hi, hi_closed = b.hi, b.hi_closed
    else:
        hi, hi_closed = a.hi, a.hi_closed or b.hi_closed
    return RationalInterval(lo, hi, lo_closed, hi_closed)


def _merged(items: Iterable[RationalInterval]) -> tuple[RationalInterval, ...]:
    """Intervals in increasing order of left end, joined where they meet."""
    merged: list[RationalInterval] = []
    for iv in items:
        if merged and _mergeable(merged[-1], iv):
            merged[-1] = _merge(merged[-1], iv)
        else:
            merged.append(iv)
    return tuple(merged)


def _by_lo(a: tuple[RationalInterval, ...], b: tuple[RationalInterval, ...]):
    """The intervals of two canonical tuples in one run by left end, a closed
    end before an open one at the same point, as the normaliser sorts them,
    so the join never has to look back."""
    i, j, na, nb = 0, 0, len(a), len(b)
    while i < na and j < nb:
        x, y = a[i], b[j]
        if y.lo < x.lo or (y.lo == x.lo and y.lo_closed and not x.lo_closed):
            yield y
            j += 1
        else:
            yield x
            i += 1
    yield from a[i:]
    yield from b[j:]


class IntervalSet:
    """Canonical finite union of :class:`RationalInterval`.

    Instances are immutable; two sets describing the same subset of the line
    compare equal.  The canonical tuple lists the connected components in
    increasing order: any two consecutive ones are apart, or meet at a point
    that both leave open.

    ``IntervalSet(intervals)`` is the normaliser: it sorts and joins any
    intervals (specs, ``points``, ``difference``, ``closure``).  These
    results are canonical by construction and skip it, through
    ``_canonical``:

    - ``empty``, ``point``, ``closed``: no interval, or one;
    - ``intersection``: the pieces a & b of two canonical sets are disjoint
      and come out in order, and two that met would be one connected set
      inside one component of each side, so one piece;
    - ``union``: the two sorted tuples are merged by left end in one pass,
      then joined where they meet, as the normaliser joins after sorting.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[RationalInterval] = ()):
        items = sorted(
            (iv for iv in intervals if iv is not None),
            key=lambda iv: (iv.lo, not iv.lo_closed, iv.hi, not iv.hi_closed),
        )
        object.__setattr__(self, "intervals", _merged(items))

    def __setattr__(self, name, value):
        raise AttributeError("IntervalSet is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def _canonical(intervals: tuple[RationalInterval, ...]) -> "IntervalSet":
        """The set of a tuple that is canonical already; not checked."""
        s = _new(IntervalSet)
        object.__setattr__(s, "intervals", intervals)
        return s

    @staticmethod
    def empty() -> "IntervalSet":
        return _EMPTY

    @staticmethod
    def of(*intervals: RationalInterval) -> "IntervalSet":
        return IntervalSet(intervals)

    @staticmethod
    def point(x: Rationalish) -> "IntervalSet":
        return IntervalSet._canonical((RationalInterval.point(x),))

    @staticmethod
    def points(xs: Iterable[Rationalish]) -> "IntervalSet":
        return IntervalSet(RationalInterval.point(x) for x in xs)

    # -- basic protocol --------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalSet) and self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def __bool__(self) -> bool:
        return bool(self.intervals)

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def __str__(self) -> str:
        if not self.intervals:
            return "{}"
        return " u ".join(str(iv) for iv in self.intervals)

    __repr__ = __str__

    def noted(self, text: str) -> "IntervalSet":
        """The set itself: interval sets print their exact endpoints, so a
        note adds nothing."""
        return self

    # -- queries ---------------------------------------------------------

    def contains(self, x: Rationalish) -> bool:
        x = frac(x)
        return any(iv.contains(x) for iv in self.intervals)

    def isolated_points(self) -> tuple[Fraction, ...]:
        return tuple(iv.lo for iv in self.intervals if iv.is_point)

    def min(self) -> Fraction:
        if self.is_empty:
            raise ValidationError("empty set has no minimum")
        return self.intervals[0].lo

    def max(self) -> Fraction:
        if self.is_empty:
            raise ValidationError("empty set has no maximum")
        return self.intervals[-1].hi

    # -- set algebra ------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        if not other.intervals:
            return self
        if not self.intervals:
            return other
        return IntervalSet._canonical(_merged(_by_lo(self.intervals, other.intervals)))

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        for a in self.intervals:
            for b in other.intervals:
                if b.lo > a.hi:
                    break
                piece = a.intersection(b)
                if piece is not None:
                    out.append(piece)
        return IntervalSet._canonical(tuple(out))

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        pieces = list(self.intervals)
        for cut in other.intervals:
            nxt: list[RationalInterval] = []
            for p in pieces:
                nxt.extend(_interval_minus(p, cut))
            pieces = nxt
        return IntervalSet(pieces)

    def issubset(self, other: "IntervalSet") -> bool:
        """Containment by one forward sweep over both canonical tuples.

        Canonical components are the connected components of the set, so a
        component of self lies in other exactly when it lies in a single
        component of other.  Components of other have strictly increasing
        right ends, and the only one that can hold a component ``a`` is the
        first whose right end covers ``a.hi``; a later one starts at or after
        that end.  The sweep therefore compares endpoints and flags only and
        builds no interval.
        """
        theirs = other.intervals
        j, n = 0, len(theirs)
        for a in self.intervals:
            while j < n and (
                theirs[j].hi < a.hi
                or (theirs[j].hi == a.hi and a.hi_closed and not theirs[j].hi_closed)
            ):
                j += 1
            if j == n:
                return False
            b = theirs[j]
            if b.lo > a.lo or (b.lo == a.lo and a.lo_closed and not b.lo_closed):
                return False
        return True

    def intersects(self, other: "IntervalSet") -> bool:
        return not self.intersection(other).is_empty

    # -- topology (relative to an ambient finite union) -------------------

    def closure(self) -> "IntervalSet":
        return IntervalSet(iv.closure() for iv in self.intervals)

    def interior_in(self, space: "IntervalSet") -> "IntervalSet":
        """Interior of self relative to ``space`` (self need not be inside)."""
        inside = self.intersection(space)
        return space.difference(space.difference(inside).closure())

    def is_open_in(self, space: "IntervalSet") -> bool:
        inside = self.intersection(space)
        return inside == inside.interior_in(space)

    def nondegenerate(self) -> "IntervalSet":
        return IntervalSet(iv for iv in self.intervals if not iv.is_point)

    def sample_points(self, per_component: int = 3) -> tuple[Fraction, ...]:
        """Deterministic rational samples: endpoints when closed, midpoints."""
        out: list[Fraction] = []
        for iv in self.intervals:
            if iv.is_point:
                out.append(iv.lo)
                continue
            if iv.lo_closed:
                out.append(iv.lo)
            if iv.hi_closed:
                out.append(iv.hi)
            step = iv.length / (per_component + 1)
            for k in range(1, per_component + 1):
                out.append(iv.lo + step * k)
        seen = set()
        uniq = []
        for p in out:
            if p not in seen:
                seen.add(p)
                uniq.append(p)
        return tuple(uniq)


_EMPTY = IntervalSet._canonical(())


def _interval_minus(a: RationalInterval, cut: RationalInterval) -> list[RationalInterval]:
    inter = a.intersection(cut)
    if inter is None:
        return [a]
    out: list[RationalInterval] = []
    if a.lo < inter.lo or (a.lo == inter.lo and a.lo_closed and not inter.lo_closed):
        out.append(RationalInterval(a.lo, inter.lo, a.lo_closed, not inter.lo_closed))
    if inter.hi < a.hi or (inter.hi == a.hi and a.hi_closed and not inter.hi_closed):
        out.append(RationalInterval(inter.hi, a.hi, not inter.hi_closed, a.hi_closed))
    return out


def accumulates_at(s: IntervalSet, x: Rationalish, *, side: int) -> bool:
    """True when ``s`` has points arbitrarily close to x strictly on one side.

    ``side`` is +1 for the right, -1 for the left.
    """
    x = frac(x)
    for iv in s.intervals:
        if iv.is_point:
            continue
        if side > 0 and iv.lo <= x < iv.hi:
            return True
        if side < 0 and iv.lo < x <= iv.hi:
            return True
    return False


# ---------------------------------------------------------------------------
# batches of rationals as integer arrays
# ---------------------------------------------------------------------------

_EXACT = 1 << 53  # every integer of at most this size is a float64


def _size(a: np.ndarray) -> int:
    """The largest magnitude in an integer array, 0 when it is empty."""
    return max(-int(a.min()), int(a.max())) if len(a) else 0


def _cast(bound: int, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays as int64 when no result of the caller's arithmetic passes
    ``bound`` <= 2^53, else as Python ints (dtype object)."""
    dtype = np.int64 if bound <= _EXACT else object
    return tuple(a.astype(dtype, copy=False) for a in arrays)


def _points(num, den) -> "RationalPoints":
    """Reduced numerators and positive denominators as a batch; int64 when
    every entry is at most 2^53, so the data picks the dtype."""
    try:
        xn, xd = np.asarray(num, np.int64), np.asarray(den, np.int64)
    except OverflowError:  # beyond int64, so beyond the bound
        xn, xd = np.asarray(num, object), np.asarray(den, object)
    size = max(_size(xn), _size(xd), 1)  # at least 1, so a bound K^2 P holds K^2 too
    if size > _EXACT and xn.dtype != object:
        xn, xd = xn.astype(object), xd.astype(object)
    return RationalPoints(xn, xd, size)


def _reduced(top: np.ndarray, bot: np.ndarray) -> "RationalPoints":
    """top / bot in lowest terms, for denominators bot > 0."""
    g = np.gcd(top, bot)
    return _points(top // g, bot // g)


def _affine(xn: np.ndarray, xd: np.ndarray, m: Fraction, c: Fraction):
    """m x + c at x = xn / xd, unreduced: N = m_n c_d p + c_n m_d q over D = m_d c_d q."""
    top = m._numerator * c._denominator * xn + c._numerator * m._denominator * xd
    return top, m._denominator * c._denominator * xd


def _holds(xn: np.ndarray, xd: np.ndarray, iv: RationalInterval) -> np.ndarray:
    """Where the interval holds x = xn / xd: the signs of p b - a q at each end a / b."""
    above = xn * iv.lo._denominator - iv.lo._numerator * xd
    below = iv.hi._numerator * xd - xn * iv.hi._denominator
    hit = above >= 0 if iv.lo_closed else above > 0
    return hit & (below >= 0 if iv.hi_closed else below > 0)


def _bound(values) -> int:
    return max((max(abs(v._numerator), v._denominator) for v in values), default=1)


class RationalPoints:
    """A batch of rationals: numerators and positive denominators, reduced,
    as two integer arrays.

    The arrays are int64 while every entry is at most 2^53 and Python ints
    (dtype object) past it; ``size`` bounds every entry.  Each operation
    picks its dtype the same way, from the sizes of its operands and
    constants, so that no int64 product passes 2^53.  An int index gives a
    point as a ``Q``, an index array or mask a sub-batch, and iteration the
    points as ``Q``.  ``floats()`` is ``float`` of each point, bit for bit:
    the float64 quotient of two integers that are floats exactly is
    correctly rounded, and so is Python's int / int.
    """

    __slots__ = ("num", "den", "size")

    def __init__(self, num: np.ndarray, den: np.ndarray, size: int):
        self.num, self.den, self.size = num, den, size

    @staticmethod
    def of(points) -> "RationalPoints":
        """A sequence of rationals as a batch, coerced as ``frac`` coerces."""
        if isinstance(points, RationalPoints):
            return points
        try:
            num = [x._numerator for x in points]
        except AttributeError:  # not all exact yet
            points = [frac(x) for x in points]
            num = [x._numerator for x in points]
        return _points(num, [x._denominator for x in points])

    @staticmethod
    def ones(n: int) -> "RationalPoints":
        return RationalPoints(np.ones(n, np.int64), np.ones(n, np.int64), 1)

    @staticmethod
    def zeros(n: int) -> "RationalPoints":
        return RationalPoints(np.zeros(n, np.int64), np.ones(n, np.int64), 1)

    @staticmethod
    def integers(ns: np.ndarray) -> "RationalPoints":
        return _points(ns, np.ones(len(ns), np.int64))

    @staticmethod
    def concat(batches: Sequence["RationalPoints"]) -> "RationalPoints":
        return RationalPoints(
            np.concatenate([b.num for b in batches]),
            np.concatenate([b.den for b in batches]),
            max((b.size for b in batches), default=1),
        )

    def __len__(self) -> int:
        return len(self.num)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return _q(int(self.num[key]), int(self.den[key]))
        return RationalPoints(self.num[key], self.den[key], self.size)

    def __iter__(self):
        return (_q(n, d) for n, d in zip(self.num.tolist(), self.den.tolist()))

    def floats(self) -> np.ndarray:
        return _quotients(self.num, self.den)

    def __mul__(self, other: "RationalPoints") -> "RationalPoints":
        an, ad, bn, bd = _cast(self.size * other.size, self.num, self.den, other.num, other.den)
        return _reduced(an * bn, ad * bd)

    def __add__(self, other: "RationalPoints") -> "RationalPoints":
        an, ad, bn, bd = _cast(2 * self.size * other.size, self.num, self.den, other.num, other.den)
        return _reduced(an * bd + bn * ad, ad * bd)

    def affine(self, m: Fraction, c: Fraction) -> "RationalPoints":
        """m x + c at each point."""
        k = _bound((m, c))
        return _reduced(*_affine(*_cast(2 * k * k * self.size, self.num, self.den), m, c))

    def less(self, other: "RationalPoints") -> np.ndarray:
        """Where a point is below the other batch's, elementwise: p b < a q at
        p / q and a / b.  A one-point batch broadcasts, here and in
        ``maximum`` / ``minimum``."""
        an, ad, bn, bd = _cast(self.size * other.size, self.num, self.den, other.num, other.den)
        return an * bd < bn * ad

    def maximum(self, other: "RationalPoints") -> "RationalPoints":
        return self._where(self.less(other), other)

    def minimum(self, other: "RationalPoints") -> "RationalPoints":
        return self._where(other.less(self), other)

    def _where(self, take: np.ndarray, other: "RationalPoints") -> "RationalPoints":
        """The other batch's point where ``take`` holds, this one's elsewhere."""
        return _points(np.where(take, other.num, self.num), np.where(take, other.den, self.den))

    def floor(self) -> np.ndarray:
        """Each point rounded down to an integer (int64, or Python ints past 2^53)."""
        return self.num // self.den

    def ceil(self) -> np.ndarray:
        return -(-self.num // self.den)

    def holds(self, iv: RationalInterval) -> np.ndarray:
        """Where the interval holds the point."""
        k = _bound((iv.lo, iv.hi))
        return _holds(*_cast(2 * k * self.size, self.num, self.den), iv)

    def order(self, groups: np.ndarray) -> np.ndarray:
        """The stable permutation that sorts the points by group, then by value.

        Rounding to the nearest float never reverses two values, so the
        floats sort them but for runs of equal floats in one group, which
        are ordered by their exact values.
        """
        fl = self.floats()
        order = np.lexsort((fl, groups))
        g, f = groups[order], fl[order]
        tied = (g[1:] == g[:-1]) & (f[1:] == f[:-1])
        if tied.any():  # runs of equal floats: positions a..b of the order
            edge = np.diff(np.concatenate(([0], tied.astype(np.int8), [0])))
            starts, ends = np.flatnonzero(edge == 1).tolist(), np.flatnonzero(edge == -1).tolist()
            for a, b in zip(starts, ends):
                order[a:b + 1] = sorted(order[a:b + 1].tolist(), key=self.__getitem__)
        return order


def _affine_ints(points, pieces, overrides=()):
    """Unreduced (N, D) of ``affine_values`` as integer arrays, and the mask where nothing holds."""
    pts = RationalPoints.of(points)
    consts = [v for iv, m, c in pieces for v in (iv.lo, iv.hi, m, c)]
    k = _bound(consts + [v for pair in overrides for v in pair])
    xn, xd = _cast(2 * k * k * pts.size, pts.num, pts.den)
    n, dtype = len(xn), xn.dtype
    top, bot = np.zeros(n, dtype), np.ones(n, dtype)
    free = np.ones(n, bool)
    for at, v in overrides:
        hit = free & (xn * at._denominator == at._numerator * xd)
        top[hit], bot[hit] = v._numerator, v._denominator
        free &= ~hit
    for iv, m, c in pieces:
        hit = free & _holds(xn, xd, iv)
        top[hit], bot[hit] = _affine(xn[hit], xd[hit], m, c)
        free &= ~hit
    return top, bot, free


def affine_values(points, pieces, overrides=()) -> tuple[RationalPoints, np.ndarray]:
    """A piecewise-affine function at each point, exact, and where nothing holds it.

    The value at x is the override ``(point, value)`` at x, else m x + c of
    the first piece ``(interval, m, c)`` that holds x; it reads 0 where
    neither holds, and the mask is True there.  Let K bound the numerators
    and denominators of the pieces and overrides and P those of the points.
    With x = p/q, a piece end a/b is compared by the sign of p b - a q, and
    the value is N / D with N = m_n c_d p + c_n m_d q and D = m_d c_d q,
    so no number passes 2 K^2 P: while that is at most 2^53 the arrays are
    int64, and otherwise the same code runs on Python ints.
    """
    top, bot, free = _affine_ints(points, pieces, overrides)
    return _reduced(top, bot), free


def affine_floats(points, pieces, overrides=()) -> tuple[np.ndarray, int]:
    """``float`` of a piecewise-affine function at each point, bit for bit, as one array.

    The values of ``affine_values``, 0.0 where nothing holds the point; the
    second result is the index of the first such point, or -1.  N / D needs
    no reduction: on int64 both are at most 2^53, so floats exactly.
    """
    top, bot, free = _affine_ints(points, pieces, overrides)
    vals = _quotients(top, bot)
    return vals, int(free.argmax()) if free.any() else -1


class RationalIds:
    """Interns rationals by their reduced (numerator, denominator) pair.

    ``intern(points)`` gives each point an int id, the same one every time
    it comes back, and ``batch(ids)`` hands the points back as a
    ``RationalPoints``.
    """

    def __init__(self):
        self._ids: dict = {}
        self._num: list = []
        self._den: list = []

    def __len__(self) -> int:
        return len(self._num)

    def intern(self, points) -> np.ndarray:
        pts = RationalPoints.of(points)
        ids, get, num, den = self._ids, self._ids.get, self._num, self._den
        out = []
        for key in zip(pts.num.tolist(), pts.den.tolist()):
            i = get(key)
            if i is None:
                i = ids[key] = len(num)
                num.append(key[0])
                den.append(key[1])
            out.append(i)
        return np.array(out, dtype=np.intp)

    def batch(self, ids: np.ndarray) -> RationalPoints:
        num, den, ids = self._num, self._den, ids.tolist()
        return _points([num[i] for i in ids], [den[i] for i in ids])
