"""The one backward walk, ``dynamics.preimage_levels``, against the loops it replaced.

The references below are the level loops as ``dynamics.preimages`` and
``rep.OrbitBasis`` wrote them before they read the generator; each reader
must answer exactly as its reference does, in the same order.  The walk
cuts each preimage of weight zero with its subtree, and the references cut
the same nodes, at each level or after the whole tree is built.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from xferop import dynamics as dyn
from xferop import rep
from xferop import specfile
from xferop import thermo as th
from xferop import transfer as tr
from xferop.errors import XferopError
from xferop.intervals import IntervalSet, Q, RationalInterval

SPECS = ["tent_std", "tent_half", "doubling", "fullshift2", "loops2"]
DEPTHS = (1, 2, 3, 4, 5)

# -- references -------------------------------------------------------------


def _preimages(system, pot, y, n):
    """``dynamics.preimages`` with its own level loop, zero weights cut at the end."""
    f = system.map
    level = [(f.point(y), Q(1))]
    for _ in range(n):
        nxt = []
        for z, w in level:
            for x in f.fiber(z):
                nxt.append((x, pot.value(x) * w))
        level = nxt
    level = [(x, w) for x, w in level if w != 0]
    return tuple(sorted(level, key=lambda t: t[0]))


def _orbit_basis(system, pot, anchor, depth, each_level):
    """The frontier loop of ``rep.OrbitBasis.__init__``: nodes, parents, weights.

    The nodes of cocycle zero are cut at each level, or after the whole
    tree is built with the parents renumbered."""
    nodes, parents, cocycles = [rep.BasisNode(0, anchor)], [-1], [Q(1)]
    frontier = [(anchor, 0)]
    for k in range(1, depth + 1):
        nxt = []
        for point, idx in frontier:
            for child in system.map.fiber(point):
                c = pot.value(child) * cocycles[idx]
                if each_level and c == 0:
                    continue
                nodes.append(rep.BasisNode(k, child))
                parents.append(idx)
                cocycles.append(c)
                nxt.append((child, len(nodes) - 1))
        frontier = nxt
    keep = [i for i, c in enumerate(cocycles) if c != 0]
    renumber = {i: j for j, i in enumerate(keep)}
    nodes = tuple(nodes[i] for i in keep)
    parents = tuple(renumber.get(parents[i], -1) for i in keep)
    weights = tuple(pot.value(nd.point) if i > 0 else Q(0) for i, nd in enumerate(nodes))
    return nodes, parents, weights


def _points(system):
    extra = (F(1, 3), F(2, 5), F(3, 4)) if system.backend == "interval" else ()
    return tuple(system.map.default_samples()) + extra


# -- the walk ---------------------------------------------------------------


@pytest.mark.parametrize("name", SPECS)
def test_levels_are_the_fibres_with_parents_and_cocycles(name):
    s = specfile.bundled(name)
    system, pot = s.system, s.potential
    for y in _points(system):
        levels = list(dyn.preimage_levels(system, pot, y, DEPTHS[-1]))
        assert len(levels) == DEPTHS[-1] + 1
        assert levels[0] == ([(system.point(y), 1)], [-1])
        for k in DEPTHS:
            (prev, _), (pairs, parents) = levels[k - 1], levels[k]
            assert len(parents) == len(pairs)
            assert tuple(sorted(pairs, key=lambda t: t[0])) == _preimages(system, pot, y, k)
            for (x, w), p in zip(pairs, parents):
                assert system.map.phi(x) == prev[p][0]
                assert w == dyn.cocycle_or_none(system, pot, k, x)
            # walk order: each parent's fibre in turn, in fibre order, less the zeros
            assert parents == sorted(parents)
            assert [x for x, _ in pairs] == [
                x for z, w in prev for x in system.map.fiber(z) if pot.value(x) * w != 0
            ]


@pytest.mark.parametrize("name", SPECS)
def test_preimages_match_the_old_loop(name):
    s = specfile.bundled(name)
    system, pot = s.system, s.potential
    for y in _points(system):
        for n in (0,) + DEPTHS:
            assert dyn.preimages(system, pot, y, n) == _preimages(system, pot, y, n)


def test_the_walk_reads_as_deep_as_its_reader():
    s = specfile.bundled("tent_std")
    walk = dyn.preimage_levels(s.system, s.potential, F(1, 2), 10**6)
    assert [len(next(walk)[0]) for _ in range(4)] == [1, 2, 4, 8]


# -- readers ----------------------------------------------------------------


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("each_level", [True, False])
def test_orbit_basis_matches_the_frontier_loop(name, each_level):
    s = specfile.bundled(name)
    h = tr.TransferHandle.create(s.system, s.potential)
    for anchor in _points(s.system):
        for depth in DEPTHS:
            basis = rep.OrbitBasis(h, anchor, depth)
            want = _orbit_basis(s.system, s.potential, basis.anchor, depth, each_level)
            assert (basis.nodes, basis.parents, basis._weights) == want


# -- the cut ------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, anchor, dim", [("tent_half", F(1, 3), 17), ("halving", F(1, 8), 3)], ids=["tent_half", "halving"]
)
def test_no_point_of_weight_zero_is_kept_or_stepped_back_from(name, anchor, dim, monkeypatch):
    # tent_half weighs (1/2, 1] zero and halving weighs 1 zero: the bundled
    # specs whose weight is zero somewhere
    s = specfile.bundled(name)
    system, pot = s.system, s.potential
    h = tr.TransferHandle.create(system, pot)
    points = _points(system) + (anchor,)
    for y in points:
        for n in (0,) + DEPTHS:
            assert all(w != 0 for _, w in dyn.preimages(system, pot, y, n))

    tab = th._StateTable(h, tr.AtomicMeasure(tuple((y, F(1, len(points))) for y in points)),
                         th.PotentialFunction.const(system, 1), 0.7)
    ids, _ = tab.quad(1)
    for n in DEPTHS:
        rows, xs, ws = tab.fibres(n, ids)
        assert np.all(ws != 0)
        for row, y in enumerate(tab.points.batch(ids)):
            fib = dyn.preimages(system, pot, y, n)
            assert list(tab.points.batch(xs[rows == row])) == [x for x, _ in fib]
            assert ws[rows == row].tolist() == [float(w) for _, w in fib]

    stepped = []
    fiber = dyn.IntervalSystem.fiber

    def counting(self, y):
        stepped.append(y)
        return fiber(self, y)

    monkeypatch.setattr(dyn.IntervalSystem, "fiber", counting)
    basis = rep.OrbitBasis(h, anchor, 16)
    assert basis.dim == dim
    assert all(pot.value(nd.point) != 0 for nd in basis.nodes[1:])
    # the walk steps back from the kept nodes above the last level alone
    assert stepped == [nd.point for nd in basis.nodes if nd.depth < 16]


def test_a_weight_undefined_below_a_zero_is_never_read():
    # x -> 2x on [0, 1/2]: the preimage 1/2 of 1 weighs zero, and the weight is
    # undefined at 1/4 below it; validation refuses the operator, and the walk
    # no longer reads the weight there (it raised while zeros were cut last)
    system = dyn.PartialSystem(
        dyn.IntervalSystem(IntervalSet.of(RationalInterval(0, 1)), [dyn.AffineBranch(RationalInterval(0, F(1, 2)), 2, 0)])
    )
    pot = dyn.PiecewiseAffine(pieces=((RationalInterval(F(1, 2), 1), 0, 0),))
    assert not tr.validate(system, pot).valid
    assert dyn.preimages(system, pot, 1, 2) == ()
    with pytest.raises(XferopError, match="potential undefined at 1/4"):
        pot.value(F(1, 4))
