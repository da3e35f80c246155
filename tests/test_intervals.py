"""Exactness tests for the rational interval-set algebra and its scalar."""

import copy
import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import xferop
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
        s = IntervalSet.closed(0, 1).difference(IntervalSet.point("1/2"))
        assert s.intervals == (iv(0, "1/2", True, False), iv("1/2", 1, False, True))
        assert s.measure() == 1

    def test_subset_and_equality_are_canonical(self):
        a = IntervalSet.of(iv(0, "1/3"), iv("1/3", 1))
        b = IntervalSet.closed(0, 1)
        assert a == b
        assert a.issubset(b) and b.issubset(a)

    def test_subset_endpoint_flags(self):
        closed, open_ = IntervalSet.closed(0, 1), IntervalSet.of(iv(0, 1, False, False))
        assert open_.issubset(closed) and not closed.issubset(open_)
        assert IntervalSet.point(0).issubset(closed)
        assert not IntervalSet.point(0).issubset(open_)
        # [0,1) u (1,2] holds both halves but not the point between them
        punctured = IntervalSet.of(iv(0, 1, True, False), iv(1, 2, False, True))
        assert IntervalSet.of(iv("1/2", 1, True, False)).issubset(punctured)
        assert IntervalSet.of(iv(1, 2, False, True)).issubset(punctured)
        assert not IntervalSet.closed("1/2", "3/2").issubset(punctured)
        assert not IntervalSet.point(1).issubset(punctured)
        assert IntervalSet.empty().issubset(IntervalSet.empty())
        assert not closed.issubset(IntervalSet.empty())

    def test_interior_relative_to_space(self):
        space = IntervalSet.closed(0, 1)
        s = IntervalSet.of(iv(0, "1/2"))
        assert s.interior_in(space) == IntervalSet.of(iv(0, "1/2", True, False))
        assert not s.is_open_in(space)
        assert IntervalSet.of(iv(0, "1/2", True, False)).is_open_in(space)

    def test_whole_space_is_open_in_itself(self):
        space = IntervalSet.closed(0, 1)
        assert space.is_open_in(space)

    def test_closure_joins_punctured_point(self):
        s = IntervalSet.closed(0, 1).difference(IntervalSet.point("1/2"))
        assert s.closure() == IntervalSet.closed(0, 1)


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
