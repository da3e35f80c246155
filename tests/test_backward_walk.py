"""The one backward walk, ``dynamics.preimage_levels``, against the loops it replaced.

The references below are the level loops as ``dynamics.preimages`` and
``rep.OrbitBasis`` wrote them before they read the generator; each reader
must answer exactly as its reference does, in the same order.
"""

from fractions import Fraction as F

import pytest

from xferop import dynamics as dyn
from xferop import rep
from xferop import specfile
from xferop import transfer as tr
from xferop.intervals import Q

SPECS = ["tent_std", "tent_half", "doubling", "fullshift2", "loops2"]
DEPTHS = (1, 2, 3, 4, 5)

# -- references -------------------------------------------------------------


def _preimages(system, pot, y, n, drop_zero=False):
    """``dynamics.preimages`` with its own level loop."""
    f = system.map
    level = [(f.point(y), Q(1))]
    for _ in range(n):
        nxt = []
        for z, w in level:
            for x in f.fiber(z):
                nxt.append((x, pot.value(x) * w))
        level = nxt
    if drop_zero:
        level = [(x, w) for x, w in level if w != 0]
    return tuple(sorted(level, key=lambda t: t[0]))


def _orbit_basis(system, pot, anchor, depth, drop_zero):
    """The frontier loop of ``rep.OrbitBasis.__init__``: nodes, parents, weights."""
    nodes = [rep.BasisNode(0, anchor)]
    parents = [-1]
    frontier = [(anchor, 0)]
    for k in range(1, depth + 1):
        nxt = []
        for point, idx in frontier:
            for child in system.map.fiber(point):
                w = pot.value(child)
                if drop_zero and w == 0:
                    continue
                nodes.append(rep.BasisNode(k, child))
                parents.append(idx)
                nxt.append((child, len(nodes) - 1))
        frontier = nxt
    weights = tuple(pot.value(nd.point) if i > 0 else Q(0) for i, nd in enumerate(nodes))
    return tuple(nodes), tuple(parents), weights


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
                assert w == dyn.cocycle(system, pot, k, x)
            # walk order: each parent's fibre in turn, in fibre order
            assert parents == sorted(parents)
            assert [x for x, _ in pairs] == [x for z, _ in prev for x in system.map.fiber(z)]


@pytest.mark.parametrize("name", SPECS)
def test_preimages_match_the_old_loop(name):
    s = specfile.bundled(name)
    system, pot = s.system, s.potential
    for y in _points(system):
        for n in (0,) + DEPTHS:
            for drop_zero in (False, True):
                want = _preimages(system, pot, y, n, drop_zero)
                assert dyn.preimages(system, pot, y, n, drop_zero) == want


def test_the_walk_reads_as_deep_as_its_reader():
    s = specfile.bundled("tent_std")
    walk = dyn.preimage_levels(s.system, s.potential, F(1, 2), 10**6)
    assert [len(next(walk)[0]) for _ in range(4)] == [1, 2, 4, 8]


# -- readers ----------------------------------------------------------------


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("drop_zero", [True, False])
def test_orbit_basis_matches_the_frontier_loop(name, drop_zero):
    s = specfile.bundled(name)
    h = tr.TransferHandle.create(s.system, s.potential)
    for anchor in _points(s.system):
        for depth in DEPTHS:
            basis = rep.OrbitBasis(h, anchor, depth, drop_zero=drop_zero)
            want = _orbit_basis(s.system, s.potential, basis.anchor, depth, drop_zero)
            assert (basis.nodes, basis.parents, basis._weights) == want


def test_drop_zero_cuts_the_zero_subtrees_out_of_the_walk(monkeypatch):
    s = specfile.bundled("tent_half")
    h = tr.TransferHandle.create(s.system, s.potential)
    full = rep.OrbitBasis(h, F(1, 3), 4, drop_zero=False)
    stepped = []
    fiber = dyn.IntervalSystem.fiber

    def counting(self, y):
        stepped.append(y)
        return fiber(self, y)

    monkeypatch.setattr(dyn.IntervalSystem, "fiber", counting)
    kept = rep.OrbitBasis(h, F(1, 3), 16, drop_zero=True)
    # one live point per level, so the walk steps back from those alone
    assert kept.dim == 17 < full.dim
    assert stepped == [nd.point for nd in kept.nodes if nd.depth < 16]
    assert all(s.potential.value(nd.point) != 0 for nd in kept.nodes[1:])
