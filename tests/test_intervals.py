"""Exactness tests for the rational interval-set algebra and its scalar."""

import copy
import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import xferop
from xferop import dynamics as dyn
from xferop.errors import ValidationError
from xferop.intervals import IntervalSet, Q, RationalInterval, frac, frac_str


def iv(lo, hi, lc=True, hc=True):
    return RationalInterval(frac(lo), frac(hi), lc, hc)


class TestFrac:
    def test_parse_and_reduce(self):
        assert frac("2/4") == Fraction(1, 2)
        assert frac(3) == Fraction(3)
        assert frac_str(frac("2/4")) == "1/2"
        assert frac_str(frac("6/3")) == "2"

    def test_rejects_floats_and_garbage(self):
        with pytest.raises(ValidationError):
            frac(0.5)
        with pytest.raises(ValidationError):
            frac("one half")


class TestRationalInterval:
    def test_membership_flags(self):
        half_open = iv(0, 1, True, False)
        assert half_open.contains(0)
        assert half_open.contains("1/2")
        assert not half_open.contains(1)

    def test_degenerate_must_be_closed(self):
        with pytest.raises(ValidationError):
            iv(1, 1, True, False)

    def test_affine_image_flips_flags_for_negative_slope(self):
        out = iv(0, "1/2", True, False).affine_image(-2, 2)
        assert out == iv(1, 2, False, True)

    def test_intersection_open_touch_is_empty(self):
        assert iv(0, 1, True, False).intersection(iv(1, 2, False, True)) is None
        assert iv(0, 1).intersection(iv(1, 2)) == RationalInterval.point(1)


class TestIntervalSet:
    def test_union_merges_at_closed_touch(self):
        s = IntervalSet.of(iv(0, "1/2", True, False), iv("1/2", 1))
        assert s.intervals == (iv(0, 1),)

    def test_union_keeps_open_gap(self):
        s = IntervalSet.of(iv(0, "1/2", True, False), iv("1/2", 1, False, True))
        assert len(s.intervals) == 2
        assert not s.contains("1/2")

    def test_difference_splits(self):
        s = IntervalSet.of(RationalInterval(0, 1)).difference(IntervalSet.point("1/2"))
        assert s.intervals == (iv(0, "1/2", True, False), iv("1/2", 1, False, True))
        assert sum(piece.length for piece in s.intervals) == 1

    def test_subset_and_equality_are_canonical(self):
        a = IntervalSet.of(iv(0, "1/3"), iv("1/3", 1))
        b = IntervalSet.of(RationalInterval(0, 1))
        assert a == b
        assert a.issubset(b) and b.issubset(a)

    def test_subset_endpoint_flags(self):
        closed, open_ = IntervalSet.of(RationalInterval(0, 1)), IntervalSet.of(iv(0, 1, False, False))
        assert open_.issubset(closed) and not closed.issubset(open_)
        assert IntervalSet.point(0).issubset(closed)
        assert not IntervalSet.point(0).issubset(open_)
        # [0,1) u (1,2] holds both halves but not the point between them
        punctured = IntervalSet.of(iv(0, 1, True, False), iv(1, 2, False, True))
        assert IntervalSet.of(iv("1/2", 1, True, False)).issubset(punctured)
        assert IntervalSet.of(iv(1, 2, False, True)).issubset(punctured)
        assert not IntervalSet.of(RationalInterval("1/2", "3/2")).issubset(punctured)
        assert not IntervalSet.point(1).issubset(punctured)
        assert IntervalSet.empty().issubset(IntervalSet.empty())
        assert not closed.issubset(IntervalSet.empty())

    def test_interior_relative_to_space(self):
        space = IntervalSet.of(RationalInterval(0, 1))
        s = IntervalSet.of(iv(0, "1/2"))
        assert s.interior_in(space) == IntervalSet.of(iv(0, "1/2", True, False))
        assert not s.is_open_in(space)
        assert IntervalSet.of(iv(0, "1/2", True, False)).is_open_in(space)

    def test_whole_space_is_open_in_itself(self):
        space = IntervalSet.of(RationalInterval(0, 1))
        assert space.is_open_in(space)

    def test_closure_joins_punctured_point(self):
        s = IntervalSet.of(RationalInterval(0, 1)).difference(IntervalSet.point("1/2"))
        assert s.closure() == IntervalSet.of(RationalInterval(0, 1))


# a modest property check: difference and union are consistent
coords = st.integers(min_value=-8, max_value=8).map(lambda n: Fraction(n, 4))


@st.composite
def interval_sets(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    out = []
    for _ in range(n):
        a = draw(coords)
        b = draw(coords)
        if a > b:
            a, b = b, a
        if a == b:
            out.append(RationalInterval.point(a))
        else:
            out.append(RationalInterval(a, b, draw(st.booleans()), draw(st.booleans())))
    return IntervalSet(out)


@given(interval_sets(), interval_sets())
def test_partition_identity(s, t):
    inter = s.intersection(t)
    diff = s.difference(t)
    assert diff.union(inter) == s
    assert not diff.intersects(inter)


@given(interval_sets(), interval_sets())
def test_difference_is_disjoint_from_cut(s, t):
    assert not s.difference(t).intersects(t)


@settings(max_examples=500)
@given(interval_sets(), interval_sets())
def test_issubset_matches_difference(s, t):
    assert s.issubset(t) == s.difference(t).is_empty
    # the pieces of s inside t, and t itself, are always subsets of t
    assert s.intersection(t).issubset(t) and t.issubset(t)


# -- canonical by construction: each fast path against the normaliser ------
#
# union, intersection, the branch and system image_of / preimage_of and
# open_seeds build their tuples without IntervalSet(...).  Each result must
# be what the normaliser makes of its own intervals, and what the same
# operation gave when it went through the normaliser (the references below).


def _ref_piece(a, b):
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo > hi:
        return None
    lo_closed = a.contains(lo) and b.contains(lo)
    hi_closed = a.contains(hi) and b.contains(hi)
    if lo == hi:
        return RationalInterval.point(lo) if lo_closed and hi_closed else None
    return RationalInterval(lo, hi, lo_closed, hi_closed)


def _ref_union(s, t):
    return IntervalSet(s.intervals + t.intervals)


def _ref_intersection(s, t):
    return IntervalSet(_ref_piece(a, b) for a in s.intervals for b in t.intervals)


def _ref_image(b, s):
    inside = _ref_intersection(s, IntervalSet.of(b.domain))
    return IntervalSet(piece.affine_image(b.slope, b.intercept) for piece in inside.intervals)


def _ref_preimage(b, s):
    inv = IntervalSet(piece.affine_image(1 / b.slope, -b.intercept / b.slope) for piece in s.intervals)
    return _ref_intersection(inv, IntervalSet.of(b.domain))


def _ref_fold(step, sys_, s):
    out = IntervalSet()
    for b in sys_.branches:
        out = _ref_union(out, step(b, s))
    return out


def _ref_seeds(space, depth):
    lo, hi = space.min(), space.max()
    seen = []
    for k in range(min(depth, 8) + 1):
        step = (hi - lo) / 2**k
        for j in range(2**k):
            a, b = lo + j * step, lo + (j + 1) * step
            grid = [RationalInterval(a, b, False, False)]
            if a == lo or b == hi:
                grid.append(RationalInterval(a, b, a == lo, b == hi))
            for piece in grid:
                s = _ref_intersection(IntervalSet.of(piece), space)
                if s not in seen and not s.is_empty:
                    seen.append(s)
    return seen


def _built_as_normalised(got, want):
    assert got.intervals == IntervalSet(got.intervals).intervals
    assert got == want


SLOPES = st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)])


@st.composite
def branches(draw, sign):
    lo, hi = sorted((draw(coords), draw(coords)))
    assume(lo < hi)
    domain = RationalInterval(lo, hi, draw(st.booleans()), draw(st.booleans()))
    return dyn.AffineBranch(domain, sign * draw(SLOPES), draw(coords))


@st.composite
def systems(draw):
    """Two branches on disjoint domains of [-2, 2], each onto a piece of it,
    one of either slope sign when ``flip`` is drawn."""
    cuts = sorted(draw(st.lists(coords, min_size=4, max_size=4)))
    assume(cuts[0] < cuts[1] <= cuts[2] < cuts[3])
    touch = cuts[1] == cuts[2]
    flags = [draw(st.booleans()) for _ in range(4)]
    if touch and flags[1] and flags[2]:
        flags[2] = False
    domains = [RationalInterval(cuts[0], cuts[1], flags[0], flags[1]),
               RationalInterval(cuts[2], cuts[3], flags[2], flags[3])]
    out = []
    for dom in domains:
        lo, hi = sorted((draw(coords), draw(coords)))
        assume(lo < hi)
        m = (hi - lo) / (dom.hi - dom.lo)
        if draw(st.booleans()):
            out.append(dyn.AffineBranch(dom, -m, hi + m * dom.lo))
        else:
            out.append(dyn.AffineBranch(dom, m, lo - m * dom.lo))
    return dyn.IntervalSystem(IntervalSet.of(RationalInterval(-2, 2)), out)


TOUCHING = IntervalSet.of(iv(0, 1, True, False), iv(1, 2, False, True))


@settings(max_examples=300)
@given(interval_sets(), interval_sets())
@example(TOUCHING, IntervalSet.point(1))
@example(IntervalSet.of(iv(0, 1, False, False)), IntervalSet.of(iv(1, 2, True, True)))
@example(IntervalSet.point(1), IntervalSet.of(iv(1, 2, False, True)))
@example(IntervalSet.empty(), TOUCHING)
def test_union_and_intersection_are_canonical(s, t):
    for x, y in ((s, t), (t, s)):
        _built_as_normalised(x.union(y), _ref_union(x, y))
        _built_as_normalised(x.intersection(y), _ref_intersection(x, y))


@settings(max_examples=300)
@given(st.sampled_from([1, -1]).flatmap(branches), interval_sets())
@example(dyn.AffineBranch(iv(0, 1, True, False), -2, 1), TOUCHING)
@example(dyn.AffineBranch(iv(0, 1, False, True), 2, 0), IntervalSet.point(1))
def test_branch_images_are_canonical(b, s):
    _built_as_normalised(b.image_of(s), _ref_image(b, s))
    _built_as_normalised(b.preimage_of(s), _ref_preimage(b, s))


@settings(max_examples=200)
@given(systems(), interval_sets())
def test_system_images_are_canonical(sys_, s):
    _built_as_normalised(sys_.image_of(s), _ref_fold(_ref_image, sys_, s))
    _built_as_normalised(sys_.preimage_of(s), _ref_fold(_ref_preimage, sys_, s))


@settings(max_examples=100)
@given(interval_sets(), st.integers(min_value=0, max_value=4))
@example(TOUCHING.closure().union(IntervalSet.of(RationalInterval(3, 4))), 3)
def test_open_seeds_are_canonical(space, depth):
    space = space.closure()
    assume(not space.is_empty and space.min() < space.max())
    sys_ = dyn.IntervalSystem(space, [dyn.AffineBranch(RationalInterval.point(space.min()), 1, 0)])
    seeds = list(sys_.open_seeds(space, depth))
    want = _ref_seeds(space, depth)
    assert len(seeds) == len(want)
    for got, ref in zip(seeds, want):
        _built_as_normalised(got, ref)


# -- the scalar: every fast path against Fraction ---------------------------

OPERANDS = {
    "Q": st.fractions(max_denominator=60).map(Q),
    "int": st.integers(min_value=-60, max_value=60),
    "Fraction": st.fractions(max_denominator=60),
}
KINDS = [("Q", "Q"), ("Q", "int"), ("int", "Q"), ("Q", "Fraction"), ("Fraction", "Q")]
ARITHMETIC = [operator.add, operator.sub, operator.mul, operator.truediv]
COMPARISONS = [operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne]


@st.composite
def mixed_pairs(draw):
    left, right = draw(st.sampled_from(KINDS))
    return draw(OPERANDS[left]), draw(OPERANDS[right])


def plain(v):
    """The same value without Q: what Fraction alone computes with."""
    return Fraction(v.numerator, v.denominator) if type(v) is Q else v


def same_fraction(got, want):
    return (got.numerator, got.denominator) == (want.numerator, want.denominator)


@settings(max_examples=300)
@given(mixed_pairs(), st.sampled_from(ARITHMETIC))
@example((Q(-2, 3), Q(0)), operator.truediv)
@example((Q(5, 7), 0), operator.truediv)
@example((4, Q(0)), operator.truediv)
@example((Fraction(1, 2), Q(0)), operator.truediv)
@example((Q(0), Fraction(0)), operator.truediv)
@example((Q(0), -3), operator.mul)
@example((-3, Q(-1, 3)), operator.sub)
def test_q_arithmetic_matches_fraction(pair, op):
    x, y = pair
    try:
        want = op(plain(x), plain(y))
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            op(x, y)
        return
    got = op(x, y)
    assert type(got) is Q and same_fraction(got, want)


@settings(max_examples=300)
@given(mixed_pairs(), st.sampled_from(COMPARISONS))
@example((Q(0), 0), operator.eq)
@example((Q(-1, 2), Fraction(-1, 2)), operator.le)
@example((Q(3), 3), operator.gt)
def test_q_comparisons_match_fraction(pair, op):
    x, y = pair
    got = op(x, y)
    assert type(got) is bool and got == op(plain(x), plain(y))


@given(OPERANDS["Q"], st.sampled_from([operator.neg, operator.pos, abs]))
@example(Q(0), operator.neg)
@example(Q(-5, 3), abs)
def test_q_unary_matches_fraction(x, op):
    got = op(x)
    assert type(got) is Q and same_fraction(got, op(plain(x)))


class TestQ:
    def test_is_a_fraction_that_prints_as_one(self):
        x = Q(2, -6)
        assert isinstance(x, Fraction)
        assert repr(x) == "Fraction(-1, 3)" == repr(Fraction(-1, 3))
        assert str(x) == "-1/3"
        assert xferop.Fraction is Fraction and xferop.Q is Q

    @pytest.mark.parametrize("v", [Fraction(1, 3), Fraction(-7, 2), Fraction(5), Fraction(0)])
    def test_hash_and_lookup_across_types(self, v):
        q = Q(v)
        assert hash(q) == hash(v) and q == v and v == q
        assert {v: "plain"}[q] == "plain" and {q: "fast"}[v] == "fast"
        if v.denominator == 1:
            assert hash(q) == hash(int(v)) and {int(v): "int"}[q] == "int"

    def test_pickle_and_copy_round_trip(self):
        x = Q(-3, 7)
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(y) is Q and y == x

    def test_inherited_conversions(self):
        x = Q(7, 2)
        assert float(x) == 3.5 and int(x) == 3 and int(-x) == -3
        assert math.floor(x) == 3 and math.ceil(x) == 4 and round(x) == 4

    def test_deferred_operators_stay_q(self):
        x, y = Q(7, 3), Q(1, 2)
        assert type(x ** 2) is Q and x ** 2 == Fraction(49, 9)
        assert type(x % y) is Q and x % y == Fraction(1, 3)
        assert type(1 % y) is Q and x // y == 4
        assert type(x + 0.5) is float and x * 1.5 == 3.5

    def test_frac_builds_q(self):
        q = Q(1, 3)
        assert frac(q) is q
        for v in (Fraction(1, 3), 3, "1/3", " -2/6 "):
            assert type(frac(v)) is Q and frac(v) == Fraction(v.strip() if isinstance(v, str) else v)
