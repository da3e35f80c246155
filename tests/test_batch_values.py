"""``floats(points)`` is, bit for bit, ``[float(value(x)) for x in points]``.

The interval types evaluate a whole column as integer arrays
(``intervals.affine_floats``), so every float is compared through its bits
(``.view(np.int64)``): a last-ulp change or a -0.0 shows, where a printed
report could hide it.  The functions are drawn with open and closed ends,
touching pieces, gaps, point overrides that differ from their piece, signed
and zero values, and points on every breakpoint; the sizes go past 2^53,
where int64 arithmetic and its float conversion stop being exact.
"""

import itertools
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from xferop import dynamics as dyn
from xferop import specfile
from xferop import thermo as th
from xferop import transfer as tr
from xferop.errors import SupportViolation, ValidationError
from xferop.intervals import Q, RationalInterval, affine_floats, frac, frac_str

SETTINGS = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])

SMALL = st.builds(Q, st.integers(-40, 40), st.integers(1, 12))
HUGE = st.builds(Q, st.integers(-(2**80), 2**80), st.integers(1, 2**70))
MIXED = st.one_of(SMALL, SMALL, HUGE)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def per_point(value, points):
    """The floats of a point-by-point loop up to its first ValidationError, and its text."""
    out = []
    for x in points:
        try:
            out.append(float(value(x)))
        except ValidationError as e:
            return out, str(e)
    return out, None


@st.composite
def pieces_and_ends(draw, num, may_cover=False):
    """Pieces on consecutive ends, some left out, and the ends an override must hold.

    Two closed ends that touch with different values are opened on one
    side, or, with ``may_cover``, kept closed for an override to decide.
    """
    ends = sorted(set(draw(st.lists(num, min_size=2, max_size=6))))
    assume(len(ends) >= 2)
    pieces, covered, last = [], [], None
    for lo, hi in zip(ends, ends[1:]):
        if draw(st.integers(0, 4)) == 0:
            last = None  # a gap
            continue
        m, c = draw(num), draw(num)
        lo_closed, hi_closed = draw(st.booleans()), draw(st.booleans())
        if last is not None and last[0] and lo_closed and last[1] != m * lo + c:
            if may_cover and draw(st.booleans()):
                covered.append(lo)
            else:
                lo_closed = False
        pieces.append((RationalInterval(lo, hi, lo_closed, hi_closed), m, c))
        last = (hi_closed, m * hi + c)
    assume(pieces)
    return draw(st.permutations(pieces)), ends, covered


@st.composite
def points_near(draw, ends, num):
    """Every end, points off the range on both sides, and drawn points, in any order."""
    pool = list(ends) + [ends[0] - 1, ends[-1] + Q(1, 3)]
    drawn = draw(st.lists(num, max_size=12))
    return draw(st.permutations(pool + drawn))


@st.composite
def functions_and_points(draw, num=SMALL):
    pieces, ends, _ = draw(pieces_and_ends(num))
    return dyn.PiecewiseAffine.zero_off(tuple(pieces)), draw(points_near(ends, num))


@st.composite
def potentials(draw, num=SMALL):
    """A signed weight whose overrides sit on piece ends, some of them where pieces disagree."""
    pieces, ends, covered = draw(pieces_and_ends(num, may_cover=True))
    more = draw(st.lists(st.sampled_from(ends), max_size=2))
    held = {x for x in [*covered, *more] if any(iv.contains(x) for iv, _, _ in pieces)}
    overrides = tuple((x, draw(num)) for x in sorted(held))
    pot = dyn.PiecewiseAffine(tuple(pieces), overrides, allow_negative=True)
    return pot, draw(points_near(ends, num))


class TestTestFunction:
    @SETTINGS
    @given(functions_and_points())
    def test_matches_the_per_point_floats(self, drawn):
        f, points = drawn
        assert (bits(f.floats(points)) == bits([float(f.value(x)) for x in points])).all()

    @SETTINGS
    @given(functions_and_points(MIXED))
    def test_matches_past_two_to_the_53(self, drawn):
        f, points = drawn
        assert (bits(f.floats(points)) == bits([float(f.value(x)) for x in points])).all()

    def test_no_points_no_values(self):
        out = dyn.PiecewiseAffine.hat(Q(1, 2), Q(1, 4)).floats([])
        assert out.dtype == np.float64 and out.shape == (0,)

    def test_a_zero_value_is_positive_zero(self):
        f = dyn.PiecewiseAffine.zero_off(((RationalInterval(-1, 1), Q(-1), Q(0)),))
        assert bits(f.floats([Q(0), Q(5)])).tolist() == bits([0.0, 0.0]).tolist()

    def test_exact_where_int64_division_is_not(self):
        # numerators and denominators above 2^53: a float64 cast rounds each one,
        # so their float quotient misses the correctly rounded one on many draws
        rng = random.Random(0)
        top, bot = 1 << 62, 1 << 53
        pairs = [(rng.randrange(bot, top), rng.randrange(bot, top)) for _ in range(2000)]
        naive = np.array([n for n, _ in pairs], np.int64) / np.array([d for _, d in pairs], np.int64)
        exact = [n / d for n, d in pairs]
        assert (bits(naive) != bits(exact)).sum() > 100
        f = dyn.PiecewiseAffine.zero_off(((RationalInterval(0, top), Q(1), Q(0)),))
        assert (bits(f.floats([Q(n, d) for n, d in pairs])) == bits(exact)).all()

    def test_takes_what_value_takes(self):
        f = dyn.PiecewiseAffine.hat(Q(1, 2), Q(1, 4))
        points = [0, Q(1, 2), "3/8", Q(5, 8)]
        assert (bits(f.floats(points)) == bits([float(f.value(x)) for x in points])).all()
        with pytest.raises(ValidationError, match="expected a rational value"):
            f.floats([Q(1, 2), 0.5])


class TestIntervalPotential:
    @SETTINGS
    @given(potentials())
    def test_or_zero_matches_value_or_zero(self, drawn):
        pot, points = drawn
        want = [float(pot.value_or_zero(x)) for x in points]
        assert (bits(pot.floats(points, or_zero=True)) == bits(want)).all()

    @SETTINGS
    @given(potentials(MIXED))
    def test_raises_where_value_raises(self, drawn):
        pot, points = drawn
        want, error = per_point(pot.value, points)
        if error is None:
            assert (bits(pot.floats(points)) == bits(want)).all()
        else:
            with pytest.raises(ValidationError) as info:
                pot.floats(points)
            assert str(info.value) == error

    def test_overrides_come_first(self):
        unit = RationalInterval(0, 1)
        pot = dyn.PiecewiseAffine(((unit, Q(0), Q(1, 2)),), ((Q(1, 2), Q(1)),))
        assert pot.floats([Q(1, 4), Q(1, 2), Q(1)]).tolist() == [0.5, 1.0, 0.5]

    def test_the_first_undefined_point_is_named(self):
        pot = dyn.PiecewiseAffine(((RationalInterval(0, 1, True, False), Q(1), Q(0)),))
        with pytest.raises(ValidationError, match=r"^potential undefined at 1$"):
            pot.floats([Q(1, 2), Q(1), Q(2)])
        assert pot.floats([Q(1, 2), Q(1), Q(2)], or_zero=True).tolist() == [0.5, 0.0, 0.0]


def test_the_energy_reads_its_carrier():
    spec = specfile.bundled("tent_std")
    (comp,) = spec.system.ival.space.intervals
    psi = th.PotentialFunction(
        spec.system, dyn.PiecewiseAffine(((comp, Q(-3, 7), Q(1, 3)),), allow_negative=True)
    )
    points = [Q(k, 13) for k in range(14)]
    assert (bits(psi.carrier.floats(points)) == bits([float(psi.carrier.value(x)) for x in points])).all()
    with pytest.raises(ValidationError, match="potential undefined at 2"):
        psi.carrier.floats([Q(1, 2), Q(2)])


def test_the_graph_types_loop_per_point():
    system = specfile.bundled("fullshift2").system
    gph = system.gph
    words = gph.words(2) + gph.words(1)
    f = tr.CylinderFunction(tuple((p, Q(i - 2, 3)) for i, p in enumerate(gph.words(1))))
    assert (bits(f.floats(words)) == bits([float(f.value(p)) for p in words])).all()
    coarse = gph.words(0)
    with pytest.raises(SupportViolation):
        f.floats(coarse)
    pot = dyn.GraphPotential(tuple((e.name, Q(i + 1, 5)) for i, e in enumerate(gph.edges)))
    assert (bits(pot.floats(words)) == bits([float(pot.value(p)) for p in words])).all()
    zeros = pot.floats(coarse, or_zero=True)
    assert zeros.tolist() == [0.0] * len(coarse)


def test_the_helper_reports_the_first_point_no_piece_holds():
    pieces = ((RationalInterval(0, 1, False, True), Q(1), Q(0)),)
    vals, miss = affine_floats([Q(1, 2), Q(0), Q(3)], pieces)
    assert vals.tolist() == [0.5, 0.0, 0.0] and miss == 1
    assert affine_floats([Q(1)], pieces)[1] == -1


# ---------------------------------------------------------------------------
# the merged type against the deleted ``transfer.TestFunction``
# ---------------------------------------------------------------------------


def _old_contains(iv, x):
    """``RationalInterval.contains`` as the deleted class read it, on Fraction comparisons."""
    if x < iv.lo or x > iv.hi:
        return False
    if x == iv.lo and not iv.lo_closed:
        return False
    return not (x == iv.hi and not iv.hi_closed)


def old_value(pieces, x):
    """The deleted ``TestFunction.value``: the first piece holding x, else zero."""
    x = frac(x)
    for iv, m, c in pieces:
        if _old_contains(iv, x):
            return m * x + c
    return Q(0)


def old_floats(pieces, points):
    """The deleted ``TestFunction.floats``."""
    return affine_floats(points, pieces)[0]


def old_refusal(pieces):
    """The message the deleted ``TestFunction`` refused these pieces with, in
    the shared wording, or None: the first pair that meets in more than a
    point, or meets at a point and disagrees there."""
    for (iva, ma, ca), (ivb, mb, cb) in itertools.combinations(pieces, 2):
        inter = iva.intersection(ivb)
        if inter is None:
            continue
        if not inter.is_point:
            return f"pieces overlap on {inter}"
        if ma * inter.lo + ca != mb * inter.lo + cb:
            return f"pieces disagree at {frac_str(inter.lo)} without an override"
    return None


@st.composite
def pieces_and_points(draw, num=SMALL):
    pieces, ends, _ = draw(pieces_and_ends(num))
    return tuple(pieces), draw(points_near(ends, num))


@st.composite
def any_pieces(draw, num=SMALL):
    """Up to four pieces on drawn ends, free to overlap, touch or disagree;
    a piece may repeat an earlier one's line, so overlaps that agree occur."""
    out = []
    for _ in range(draw(st.integers(1, 4))):
        lo, hi = sorted((draw(num), draw(num)))
        closed = (True, True) if lo == hi else (draw(st.booleans()), draw(st.booleans()))
        line = draw(st.sampled_from(out))[1:] if out and draw(st.booleans()) else (draw(num), draw(num))
        out.append((RationalInterval(lo, hi, *closed), *line))
    return tuple(out)


class TestAgainstTheDeletedTestFunction:
    @SETTINGS
    @given(pieces_and_points(MIXED))
    def test_the_zero_rule_is_the_old_class(self, drawn):
        pieces, points = drawn
        f = dyn.PiecewiseAffine.zero_off(pieces)
        assert [f.value(x) for x in points] == [old_value(pieces, x) for x in points]
        assert (bits(f.floats(points)) == bits(old_floats(pieces, points))).all()
        assert (bits(f.floats(points)) == bits([float(old_value(pieces, x)) for x in points])).all()

    @SETTINGS
    @given(pieces_and_points(MIXED))
    def test_the_undefined_rule_raises_where_no_piece_holds(self, drawn):
        pieces, points = drawn
        g = dyn.PiecewiseAffine(pieces, allow_negative=True)
        held = [any(_old_contains(iv, frac(x)) for iv, _, _ in pieces) for x in points]
        for x, h in zip(points, held):
            if h:
                assert g.value(x) == g.value_or_zero(x) == old_value(pieces, x)
            else:
                with pytest.raises(ValidationError, match=rf"^potential undefined at {frac_str(x)}$"):
                    g.value(x)
        want = bits(old_floats(pieces, points))
        assert (bits(g.floats(points, or_zero=True)) == want).all()
        if all(held):
            assert (bits(g.floats(points)) == want).all()
        else:
            first = points[held.index(False)]
            with pytest.raises(ValidationError, match=rf"^potential undefined at {frac_str(first)}$"):
                g.floats(points)

    @SETTINGS
    @given(any_pieces())
    def test_both_rules_refuse_what_the_old_class_refused(self, pieces):
        want = old_refusal(pieces)
        for build in (dyn.PiecewiseAffine.zero_off, partial(dyn.PiecewiseAffine, allow_negative=True)):
            if want is None:
                build(pieces)
            else:
                with pytest.raises(ValidationError) as info:
                    build(pieces)
                assert str(info.value) == want
