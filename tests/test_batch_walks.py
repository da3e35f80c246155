"""The interval walk kernels against per-point references.

``IntervalSystem.orbit_ends``, ``cocycles`` and ``birkhoff_sums`` step a
batch of points forward as integer arrays; ``fibre_step`` steps one back.
The references below are the per-point code the state table ran before:
one ``phi`` at a time, exact ``Q`` products and sums, ``fiber`` with its
set and sort.  Every float is compared through its bits, every point
exactly and in order.  The maps are drawn with open and closed branch
ends, gaps in the domain, and shared ends where two branches agree (so a
fibre meets one point twice); the weights with zero pieces and overrides;
the points on breakpoints, off the domain and off the space, and past
2^53, where the arithmetic leaves int64.  The same draws also run with
the int64 bound at zero, so the Python-int path must agree with the int64
path bit for bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from xferop import dynamics as dyn
from xferop import intervals, specfile
from xferop import thermo as th
from xferop.dynamics import AffineBranch, IntervalSystem, PiecewiseAffine
from xferop.errors import OutOfDomain, ValidationError
from xferop.intervals import IntervalSet, Q, RationalInterval, RationalPoints

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# ---------------------------------------------------------------------------
# references: the per-point bodies the state table ran before the kernels
# ---------------------------------------------------------------------------


def ref_walk(sys_, x, n):
    out = [x]
    for _ in range(n):
        try:
            out.append(sys_.phi(out[-1]))
        except OutOfDomain:
            break
    return out


def ref_orbit_end(sys_, x, n):
    walk = ref_walk(sys_, x, n)
    return walk[-1] if len(walk) > n else None


def ref_cocycle(sys_, pot, x, n):
    walk = ref_walk(sys_, x, n)
    out = Q(1)
    for z in walk[:-1]:
        out *= pot.value(z)
    return out if len(walk) > n else None


def ref_birkhoff(sys_, energy, x, n):
    if n < 0:
        return None
    if n == 0:
        return Q(0)
    walk = ref_walk(sys_, x, n - 1)
    if len(walk) < n:
        return None
    try:
        return sum((energy.value(z) for z in walk), Q(0))
    except ValidationError:
        return None


def ref_fibre(sys_, pot, y, n):
    """The depth-n fibre of y with its weights, zeros kept, sorted by point."""
    level = [(y, Q(1))]
    for _ in range(n):
        level = [(x, pot.value(x) * w) for z, w in level for x in sys_.fiber(z)]
    return sorted(level, key=lambda t: t[0])


def first_error(fn, points):
    """The message of the first ValidationError a per-point loop raises, or None."""
    for x in points:
        try:
            fn(x)
        except ValidationError as e:
            return str(e)
    return None


def bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def floats_or_nan(values) -> list:
    return bits([float("nan") if v is None else float(v) for v in values])


# ---------------------------------------------------------------------------
# draws
# ---------------------------------------------------------------------------

DENS = (12, 2**31 + 11)  # a small grid, and one whose constants force Python ints


@st.composite
def maps(draw):
    """A map of [0, 1] with one branch per gap between grid cuts, some left out.

    A continuous draw gives adjacent branches the same value at their
    shared cut, so both may hold it; otherwise a closed end that would
    disagree with its neighbour is opened.
    """
    den = draw(st.sampled_from(DENS))
    grid = st.integers(0, den)
    cuts = sorted({0, den, *draw(st.lists(st.integers(1, den - 1), max_size=3))})
    cuts = [Q(c, den) for c in cuts]
    values = [Q(draw(grid), den) for _ in cuts]
    continuous = draw(st.booleans())
    branches, prev = [], None
    for lo, hi, vlo, vhi in zip(cuts, cuts[1:], values, values[1:]):
        if draw(st.integers(0, 4)) == 0:
            prev = None  # a gap in the domain
            continue
        if not continuous or vlo == vhi:
            a, b = draw(st.lists(grid, min_size=2, max_size=2, unique=True))
            vlo, vhi = Q(a, den), Q(b, den)
        slope = (vhi - vlo) / (hi - lo)
        lo_closed, hi_closed = draw(st.booleans()), draw(st.booleans())
        if prev is not None and prev[0] and lo_closed and prev[1] != vlo:
            lo_closed = False
        domain = RationalInterval(lo, hi, lo_closed, hi_closed)
        branches.append(AffineBranch(domain, slope, vlo - slope * lo))
        prev = (hi_closed, vhi)
    assume(branches)
    return IntervalSystem(IntervalSet.of(RationalInterval(0, 1)), draw(st.permutations(branches))), cuts


@st.composite
def potentials(draw, signed=False, gaps=False):
    """Half-open affine pieces on grid cuts of [0, 1], the last one closed,
    with zero pieces, an override on a cut, and, with ``gaps``, pieces left out."""
    den = draw(st.sampled_from(DENS))
    cuts = sorted({0, den, *draw(st.lists(st.integers(1, den - 1), max_size=3))})
    cuts = [Q(c, den) for c in cuts]
    pool = [Q(-1), Q(0), Q(1, 3), Q(2)] if signed else [Q(0), Q(0), Q(1, 2), Q(1), Q(3)]
    values = st.sampled_from(pool)
    pieces = []
    for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        if gaps and draw(st.integers(0, 3)) == 0:
            continue
        vlo, vhi = draw(values), draw(values)
        slope = (vhi - vlo) / (hi - lo)
        last = i == len(cuts) - 2
        pieces.append((RationalInterval(lo, hi, True, last), slope, vlo - slope * lo))
    assume(pieces)
    held = [c for c in cuts if any(iv.contains(c) for iv, _, _ in pieces)]
    overrides = ()
    if held and draw(st.booleans()):
        overrides = ((draw(st.sampled_from(held)), draw(values)),)
    return PiecewiseAffine(tuple(pieces), overrides, allow_negative=signed), cuts


HUGE = st.builds(Q, st.integers(0, 2**70), st.just(2**70 + 1))
ANY = st.one_of(
    st.builds(Q, st.integers(-3, 27), st.just(24)),
    st.builds(Q, st.integers(0, 2**31 + 11), st.just(2**31 + 11)),
    HUGE,
)


@st.composite
def points(draw, *ends):
    """Every end of the map and the weights, points off the space, and drawn points."""
    pool = [x for e in ends for x in e] + [Q(-1, 3), Q(4, 3)]
    drawn = draw(st.lists(ANY, max_size=10))
    return draw(st.permutations(pool + drawn))


# ---------------------------------------------------------------------------
# the forward kernels
# ---------------------------------------------------------------------------


def forward(sys_, pot, energy, xs, n):
    batch = RationalPoints.of(xs)
    ends, alive = sys_.orbit_ends(batch, n)
    rho, zero = sys_.cocycles(pot, batch, n)
    sums = sys_.birkhoff_sums(energy, batch, n)
    return list(ends), alive.tolist(), bits(rho), zero.tolist(), bits(sums)


def ref_forward(sys_, pot, energy, xs, n):
    ends = [ref_orbit_end(sys_, x, n) for x in xs]
    rho = [ref_cocycle(sys_, pot, x, n) for x in xs]
    sums = [ref_birkhoff(sys_, energy, x, n) for x in xs]
    return (
        [z for z in ends if z is not None],
        [z is not None for z in ends],
        floats_or_nan(rho),
        [w == 0 for w in rho],
        floats_or_nan(sums),
    )


@st.composite
def forward_case(draw):
    (sys_, cuts), (pot, pcuts) = draw(maps()), draw(potentials())
    energy, ecuts = draw(potentials(signed=True, gaps=True))
    return sys_, pot, energy, draw(points(cuts, pcuts, ecuts)), draw(st.integers(0, 3))


class TestForward:
    @SETTINGS
    @given(forward_case())
    def test_matches_the_per_point_walks(self, case):
        sys_, pot, energy, xs, n = case
        assume(first_error(lambda x: ref_cocycle(sys_, pot, x, n), xs) is None)
        assert forward(sys_, pot, energy, xs, n) == ref_forward(sys_, pot, energy, xs, n)

    @SETTINGS
    @given(forward_case())
    def test_python_ints_agree_with_int64(self, case):
        sys_, pot, energy, xs, n = case
        assume(first_error(lambda x: ref_cocycle(sys_, pot, x, n), xs) is None)
        fast = forward(sys_, pot, energy, xs, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intervals, "_EXACT", 0)
            assert RationalPoints.of(xs[:1]).num.dtype == object
            assert forward(sys_, pot, energy, xs, n) == fast

    @SETTINGS
    @given(maps(), potentials(gaps=True), st.data())
    def test_raises_where_the_per_point_product_raises(self, drawn, weight, data):
        (sys_, cuts), (pot, pcuts) = drawn, weight
        xs = data.draw(points(cuts, pcuts))
        n = data.draw(st.integers(1, 3))
        error = first_error(lambda x: ref_cocycle(sys_, pot, x, n), xs)
        if error is None:
            sys_.cocycles(pot, RationalPoints.of(xs), n)
        else:
            with pytest.raises(ValidationError) as info:
                sys_.cocycles(pot, RationalPoints.of(xs), n)
            assert str(info.value) == error

    def test_a_negative_depth_sums_to_none(self):
        sys_ = self._tent()
        energy = PiecewiseAffine(((RationalInterval(0, 1), Q(1), Q(0)),), allow_negative=True)
        xs = RationalPoints.of([Q(1, 3), Q(2)])
        assert np.isnan(sys_.birkhoff_sums(energy, xs, -1)).all()
        assert sys_.birkhoff_sums(energy, xs, 0).tolist() == [0.0, 0.0]

    @staticmethod
    def _tent():
        return IntervalSystem(IntervalSet.of(RationalInterval(0, 1)), (
            AffineBranch(RationalInterval(0, Q(1, 2)), 2, 0),
            AffineBranch(RationalInterval(Q(1, 2), 1), -2, 2),
        ))


# ---------------------------------------------------------------------------
# the backward kernel
# ---------------------------------------------------------------------------


def fibres(sys_, pot, ys, n):
    """Depth-n fibres by n backward steps of the whole level, weights from the cocycles."""
    groups, level = np.arange(len(ys)), RationalPoints.of(ys)
    for _ in range(n):
        groups, level = sys_.fibre_step(level, groups)
    rho, zero = sys_.cocycles(pot, level, n)
    return groups.tolist(), list(level), bits(rho), zero.tolist()


def ref_fibres(sys_, pot, ys, n):
    groups, xs, ws = [], [], []
    for i, y in enumerate(ys):
        for x, w in ref_fibre(sys_, pot, y, n):
            groups.append(i)
            xs.append(x)
            ws.append(w)
    return groups, xs, floats_or_nan(ws), [w == 0 for w in ws]


@st.composite
def backward_case(draw):
    (sys_, cuts), (pot, pcuts) = draw(maps()), draw(potentials())
    images = [b.value(e) for b in sys_.branches for e in (b.domain.lo, b.domain.hi)]
    return sys_, pot, draw(points(cuts, pcuts, images)), draw(st.integers(0, 3))


class TestBackward:
    @SETTINGS
    @given(backward_case())
    def test_matches_the_per_point_fibres(self, case):
        sys_, pot, ys, n = case
        assert fibres(sys_, pot, ys, n) == ref_fibres(sys_, pot, ys, n)

    @SETTINGS
    @given(backward_case())
    def test_python_ints_agree_with_int64(self, case):
        sys_, pot, ys, n = case
        fast = fibres(sys_, pot, ys, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intervals, "_EXACT", 0)
            assert fibres(sys_, pot, ys, n) == fast

    def test_a_shared_end_is_one_preimage(self):
        # both tent branches hold 1/2 and send it to 1
        tent = TestForward._tent()
        groups, xs = tent.fibre_step(RationalPoints.of([Q(1), Q(1, 2), Q(0)]), np.arange(3))
        assert groups.tolist() == [0, 1, 1, 2, 2]
        assert list(xs) == [Q(1, 2), Q(1, 4), Q(3, 4), Q(0), Q(1)]

    def test_ties_in_float_sort_by_exact_value(self):
        # distinct points that round to one float, in one group, come back by value
        eps = Q(1, 2**80)
        xs = RationalPoints.of([Q(1, 3) + eps, Q(1, 3), Q(1, 3) - eps, Q(1, 5)])
        assert len(set(xs.floats().tolist())) == 2
        order = xs.order(np.zeros(4, np.intp))
        assert [xs[i] for i in order.tolist()] == sorted(xs)


def test_the_dtype_follows_the_data():
    small = RationalPoints.of([Q(1, 3), Q(5, 7)])
    big = RationalPoints.of([Q(1, 3), Q(1, 2**60)])
    assert small.num.dtype == np.int64 and big.num.dtype == object
    # the product of two int64 batches leaves int64 only where it must
    assert (small * small).num.dtype == np.int64
    assert (big * big).num.dtype == object and list(big * big) == [Q(1, 9), Q(1, 2**120)]


@pytest.mark.parametrize("name", ["fullshift2", "loops2", "loop1"])
def test_graphs_answer_the_same_names_point_by_point(name):
    s = specfile.bundled(name)
    g = s.system.gph
    pot = s.potential
    signed = tuple((e.name, Q(i - 1, 3)) for i, e in enumerate(g.edges))
    energy = dyn.GraphPotential(signed, allow_negative=True)
    psi = th.PotentialFunction(s.system, energy)
    pts = [p for n in range(4) for p in g.words(n)]
    for n in range(3):
        ends, alive = g.orbit_ends(pts, n)
        want = [dyn.orbit_end(s.system, p, n) for p in pts]
        assert ends == [z for z in want if z is not None]
        assert alive.tolist() == [z is not None for z in want]
        rho, zero = g.cocycles(pot, pts, n)
        want = [dyn.cocycle_or_none(s.system, pot, n, p) for p in pts]
        assert bits(rho) == floats_or_nan(want) and zero.tolist() == [w == 0 for w in want]
        sums = psi.birkhoff_floats(pts, n)
        assert bits(sums) == floats_or_nan([psi.birkhoff_or_none(p, n) for p in pts])
        groups, level = np.arange(len(pts)), pts
        for _ in range(n):
            groups, level = g.fibre_step(level, groups)
        want = [(i, x) for i, p in enumerate(pts) for x, _ in dyn.preimages(s.system, pot, p, n)]
        assert list(zip(groups.tolist(), level)) == want
