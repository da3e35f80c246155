import functools
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from xferop import dynamics as dyn
from xferop import groupoid as gp
from xferop import rep
from xferop import specfile
from xferop import transfer as tr
from xferop.errors import NotLocalHomeo, SupportViolation, ValidationError
from xferop.intervals import IntervalSet, RationalInterval

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import cells  # noqa: E402  (the benchmark's specs)

UNIT = RationalInterval(F(0), F(1))


@pytest.fixture(scope="module")
def dbl_gpd(doubling):
    return gp.build_deaconu(doubling.system, doubling.potential, [F(1, 4)], 3)


@pytest.fixture(scope="module")
def shift2_anchor(shift2):
    return shift2.system.gph.path_point(("e0", "e0"))


def _at(gpd, x, k, y):
    """The element (x, k, y) of a table, or None: the table keys points by their ids."""
    ids = {p: i for i, p in enumerate(gpd.points)}
    i = gpd.index.get((ids.get(x), k, ids.get(y)))
    return None if i is None else gpd.elements[i]


def _identity_system():
    sys_ = dyn.PartialSystem(
        dyn.IntervalSystem(
            IntervalSet.of(RationalInterval(0, 1)), [dyn.AffineBranch(UNIT, F(1), F(0))]
        ),
    )
    pot = dyn.PiecewiseAffine(pieces=((UNIT, F(0), F(1)),))
    return sys_, pot


class TestGroupoidElement:
    def test_witness_must_realize_k(self):
        with pytest.raises(ValidationError):
            gp.GroupoidElement(F(1, 2), 1, F(1, 4), (1, 1))
        with pytest.raises(ValidationError):
            gp.GroupoidElement(F(1, 2), 1, F(1, 4), (0, -1))

    def test_inverse_swaps_everything(self):
        g = gp.GroupoidElement(F(1, 8), 1, F(1, 4), (1, 0))
        inv = g.inverse()
        assert (inv.x, inv.k, inv.y, inv.witness) == (F(1, 4), -1, F(1, 8), (0, 1))
        assert inv.inverse() == g


class TestBuildDeaconu:
    def test_irregular_systems_refused(self):
        t = specfile.bundled("tent_std")
        with pytest.raises(NotLocalHomeo):
            gp.build_deaconu(t.system, t.potential, [F(1)], 3)
        h = specfile.bundled("halving")
        with pytest.raises(NotLocalHomeo):
            gp.build_deaconu(h.system, h.potential, [F(1, 2)], 3)

    def test_weight_gap_refused(self):
        # no irregular point, but the weight vanishes on the second branch
        open_half = RationalInterval(F(1, 2), F(1), False, False)
        sys_ = dyn.PartialSystem(
            dyn.IntervalSystem(
                IntervalSet.of(RationalInterval(0, 1)),
                [
                    dyn.AffineBranch(RationalInterval(0, F(1, 4)), 4, 0),
                    dyn.AffineBranch(open_half, 2, -1),
                ],
            ),
        )
        pot = dyn.PiecewiseAffine(
            pieces=((RationalInterval(0, F(1, 4)), 0, 1), (open_half, 0, 0))
        )
        with pytest.raises(NotLocalHomeo, match=r"^weight vanishes on \(1/2, 1\)$"):
            gp.build_deaconu(sys_, pot, [F(1, 8)], 2)

    def test_closed_domain_edge_refused(self):
        # the domain [0, 1/2] is not open in [0, 1], so 1/2 is not regular
        half = RationalInterval(0, F(1, 2))
        sys_ = dyn.PartialSystem(
            dyn.IntervalSystem(IntervalSet.of(RationalInterval(0, 1)), [dyn.AffineBranch(half, 2, 0)]),
        )
        pot = dyn.PiecewiseAffine(pieces=((half, 0, 1),))
        with pytest.raises(
            NotLocalHomeo, match=r"^domain is not fully regular: missing \[1/2, 1/2\]$"
        ):
            gp.build_deaconu(sys_, pot, [F(1, 8)], 2)

    @pytest.mark.parametrize("name", ["loop1", "loops2", "fullshift2"])
    def test_graphs_pass_the_gate(self, name):
        s = specfile.bundled(name)
        assert gp._local_homeo_gate(s.system, s.potential) is None

    def test_doubling_counts(self, dbl_gpd):
        # binary tree of 1/4 to depth 3: 15 points; 15^2 pairs each carry
        # k = depth difference, plus 6 extra arrows through the forward
        # orbit of the anchor (its image chain 1/2, 0, 0 merges with itself
        # at shifted exponents)
        assert len(dbl_gpd.points) == 15
        assert len(dbl_gpd.elements) == 231
        units = [g for g in dbl_gpd.elements if g.k == 0 and g.x == g.y]
        assert len(units) == len(dbl_gpd.points)
        assert all(_at(dbl_gpd, p, 0, p) is not None for p in dbl_gpd.points)

    def test_depth_one_arrows(self, doubling, dbl_gpd):
        for x in doubling.system.map.fiber(F(1, 4)):
            assert _at(dbl_gpd, x, 1, F(1, 4)).witness == (1, 0)

    def test_overshoot_witness(self, dbl_gpd):
        # (1/4, 0, 1/8) is only reachable once both orbits hit the fixed
        # point 0, three steps out on each side
        g = _at(dbl_gpd, F(1, 4), 0, F(1, 8))
        assert g.witness == (3, 3)

    def test_inverse_closure(self, dbl_gpd):
        for g in dbl_gpd.elements:
            inv = g.inverse()
            assert _at(dbl_gpd, inv.x, inv.k, inv.y) == inv
            # g.g^-1 is the lookup of (x, 0, x): a unit
            assert _at(dbl_gpd, g.x, g.k + inv.k, g.x) is not None

    def test_axioms_hold(self, doubling, dbl_gpd):
        assert dbl_gpd.axiom_violations(doubling.system) == 0

    def test_composition_leaves_truncation(self):
        # identity map: the groupoid over one point is the integers
        # truncated at the depth, so the top powers cannot be added
        sys_, pot = _identity_system()
        gz = gp.build_deaconu(sys_, pot, [F(1, 3)], 4)
        assert len(gz.points) == 1
        assert sorted(g.k for g in gz.elements) == list(range(-4, 5))
        x = F(1, 3)
        top, up, dn = (_at(gz, x, k, x) for k in (4, 1, -1))
        # a product is the lookup of the summed degree
        assert _at(gz, x, top.k + up.k, x) is None
        assert _at(gz, x, top.k + dn.k, x).k == 3

    def test_shift_count_matches_brute_force(self, shift2, shift2_anchor):
        gpd = gp.build_deaconu(shift2.system, shift2.potential, [shift2_anchor], 6)
        assert len(gpd.points) == 127
        g = shift2.system.gph

        def shifts(p):
            out = [p]
            while out[-1].word:
                out.append(g.phi(out[-1]))
            return out[:7]

        count = 0
        for x in gpd.points:
            sx = shifts(x)
            for y in gpd.points:
                sy = shifts(y)
                ks = {n - m for n, vx in enumerate(sx) for m, vy in enumerate(sy) if vx == vy}
                count += len(ks)
        assert count == len(gpd.elements) == 16129

    def test_multiple_seeds_connect(self, doubling):
        gm = gp.build_deaconu(doubling.system, doubling.potential, [F(1, 4), F(3, 4)], 2)
        assert len(gm.points) == 14
        assert len(gm.elements) == 116
        # the two trees are disjoint but their anchors share the image 1/2
        g = _at(gm, F(1, 8), 0, F(3, 8))
        assert g.witness == (2, 2)

    def test_element_budget(self, shift2, shift2_anchor):
        with pytest.raises(ValidationError):
            gp.build_deaconu(
                shift2.system, shift2.potential, [shift2_anchor], 6, max_elements=1000
            )


def _table(*elements):
    """A table of exactly these elements, over the points they name."""
    pts = tuple(sorted({p for g in elements for p in (g.x, g.y)}))
    return gp.TruncatedGroupoid(3, pts, elements)


def _unit(x):
    return gp.GroupoidElement(x, 0, x, (0, 0))


class TestAxiomViolations:
    # phi(1/8) = 1/4 under doubling, so (1/8, +1, 1/4) has witness (1, 0)
    UP = gp.GroupoidElement(F(1, 8), 1, F(1, 4), (1, 0))

    def test_a_closed_table_passes(self, doubling):
        table = _table(_unit(F(1, 8)), _unit(F(1, 4)), self.UP, self.UP.inverse())
        assert table.axiom_violations(doubling.system) == 0

    def test_a_witness_that_does_not_replay_counts(self, doubling):
        g = gp.GroupoidElement(F(1, 8), 0, F(1, 4), (0, 0))
        table = _table(_unit(F(1, 8)), _unit(F(1, 4)), g, g.inverse())
        assert table.axiom_violations(doubling.system) == 2

    def test_a_witness_leaving_the_domain_counts(self):
        # x -> 2x on [0, 1/2] only: phi(3/4) and phi(7/8) are both undefined,
        # and two missing images are no witness
        half = RationalInterval(F(0), F(1, 2))
        sys_ = dyn.PartialSystem(
            dyn.IntervalSystem(IntervalSet.of(RationalInterval(0, 1)), [dyn.AffineBranch(half, F(2), F(0))])
        )
        g = gp.GroupoidElement(F(3, 4), 0, F(7, 8), (1, 1))
        table = _table(_unit(F(3, 4)), _unit(F(7, 8)), g, g.inverse())
        assert table.axiom_violations(sys_) == 2

    def test_a_missing_inverse_counts(self, doubling):
        table = _table(_unit(F(1, 8)), _unit(F(1, 4)), self.UP)
        assert table.axiom_violations(doubling.system) == 1

    def test_an_inverse_with_another_witness_counts(self, doubling):
        # phi^2(1/8) = phi(1/4) = 1/2 replays, but it is not UP's inverse
        other = gp.GroupoidElement(F(1, 4), -1, F(1, 8), (1, 2))
        table = _table(_unit(F(1, 8)), _unit(F(1, 4)), self.UP, other)
        assert table.axiom_violations(doubling.system) == 2

    def test_a_missing_unit_counts(self, doubling):
        table = _table(_unit(F(1, 4)), self.UP, self.UP.inverse())
        assert table.axiom_violations(doubling.system) == 2

    @pytest.mark.parametrize("name", ["doubling", "fullshift2", "golden_mean"])
    def test_built_tables_pass(self, name):
        if name == "golden_mean":
            spec = specfile.parse_spec(cells.generated_specs()[name])
        else:
            spec = specfile.bundled(name)
        system, pot = spec.system, spec.potential
        anchor = system.map.default_anchor(dyn.regular_set(system, pot).delta_reg)
        table = gp.build_deaconu(system, pot, [anchor], 3)
        assert table.axiom_violations(system) == 0


class TestGapRelation:
    def test_doubling_level_one(self, doubling):
        pairs = gp.gap_relation(doubling.system, 1, [F(1, 8), F(5, 8), F(1, 3)])
        rel = {(p.x, p.y) for p in pairs}
        assert (F(1, 8), F(5, 8)) in rel
        assert (F(1, 8), F(1, 3)) not in rel and (F(5, 8), F(1, 3)) not in rel

    def test_reflexive(self, doubling):
        pairs = gp.gap_relation(doubling.system, 0, [F(1, 8), F(5, 8)])
        assert {(p.x, p.y) for p in pairs} == {(F(1, 8), F(1, 8)), (F(5, 8), F(5, 8))}

    def test_tower_inclusion(self, doubling):
        samples = [F(1, 8), F(5, 8), F(3, 8), F(7, 8), F(1, 3)]
        levels = gp.gap_tower(doubling.system, samples, 3)
        assert len(levels) == 4
        assert len(levels[0]) == len(samples)
        sets = [{(p.x, p.y) for p in lv} for lv in levels]
        for lo, hi in zip(sets, sets[1:]):
            assert lo <= hi

    def test_graph_components_never_merge(self):
        l2 = specfile.bundled("loops2")
        g = l2.system.gph
        pa = g.path_point(("a", "a"))
        pb = g.path_point(("b", "b"))
        for n in range(3):
            rel = {(p.x, p.y) for p in gp.gap_relation(l2.system, n, [pa, pb])}
            assert (pa, pb) not in rel

    def test_graph_words_merge(self, shift2):
        g = shift2.system.gph
        x, y = g.path_point(("e0", "e1")), g.path_point(("e1", "e1"))
        rel = {(p.x, p.y) for p in gp.gap_relation(shift2.system, 1, [x, y])}
        assert (x, y) in rel

    def test_negative_level_refused(self, doubling):
        with pytest.raises(ValidationError):
            gp.gap_relation(doubling.system, -1, [F(1, 2)])

    def test_flipped(self, doubling):
        # the relation is symmetric: listing the samples the other way round
        # reports each pair flipped
        pairs = gp.gap_relation(doubling.system, 1, [F(1, 8), F(5, 8)])
        flipped = gp.gap_relation(doubling.system, 1, [F(5, 8), F(1, 8)])
        assert gp.GapPair(1, F(1, 8), F(5, 8)) in pairs
        assert {(p.y, p.x) for p in pairs} == {(p.x, p.y) for p in flipped}


@pytest.fixture(scope="module")
def setup(doubling):
    h = tr.TransferHandle.create(doubling.system, doubling.potential)
    basis = rep.OrbitBasis(h, F(1, 4), 5)
    gpd = gp.build_deaconu(doubling.system, doubling.potential, [F(1, 4)], 5)
    return basis, gpd


class TestPhiIsomorphism:
    def test_interval_tensor_products(self, setup):
        basis, gpd = setup
        a = dyn.PiecewiseAffine.hat(F(1, 2), F(1, 2), 1)
        b = dyn.PiecewiseAffine.affine_on(UNIT, 1, 0)
        c = dyn.PiecewiseAffine.hat(F(1, 4), F(1, 4), 1)
        one = dyn.PiecewiseAffine.const_on(UNIT, 1)
        cases = [
            (a, one, 1, 0, one, b, 0, 1),
            (a, b, 1, 1, c, one, 1, 1),
            (a, b, 2, 1, c, one, 1, 2),
            (a, b, 0, 0, c, one, 0, 0),
            (a, one, 2, 0, one, b, 0, 2),
            (a, b, 1, 2, c, one, 2, 1),
        ]
        for fa, fb, n, m, fc, fd, n2, m2 in cases:
            r = gp.iso_phi_check(basis, fa, fb, n, m, fc, fd, n2, m2, gpd=gpd)
            assert r <= 1e-12

    def test_square_defaults_to_same_factor(self, setup):
        basis, gpd = setup
        a = dyn.PiecewiseAffine.hat(F(1, 2), F(1, 2), 1)
        b = dyn.PiecewiseAffine.affine_on(UNIT, 1, 0)
        assert gp.iso_phi_check(basis, a, b, 1, 1, gpd=gpd) <= 1e-12
        with pytest.raises(ValidationError):
            gp.iso_phi_check(basis, a, b, 1, 1, n2=2, gpd=gpd)

    def test_diagonal_is_pointwise_product(self, setup):
        basis, gpd = setup
        a = dyn.PiecewiseAffine.hat(F(1, 2), F(1, 2), 1)
        b = dyn.PiecewiseAffine.affine_on(UNIT, 1, 0)
        c = dyn.PiecewiseAffine.hat(F(1, 4), F(1, 4), 1)
        one = dyn.PiecewiseAffine.const_on(UNIT, 1)
        prod = gp.phi_matrix(basis, a, 0, 0, b) @ gp.phi_matrix(basis, c, 0, 0, one)
        vals = np.array(
            [
                float(a.value(nd.point) * b.value(nd.point) * c.value(nd.point))
                for nd in basis.nodes
            ]
        )
        assert np.abs(np.diag(prod) - vals).max() == 0.0
        assert np.abs(prod - np.diag(np.diag(prod))).max() == 0.0

    def test_degree_bounds(self, setup):
        basis, _ = setup
        with pytest.raises(ValidationError):
            gp.phi_matrix(basis, None, basis.depth + 1, 0, None)
        with pytest.raises(ValidationError):
            gp.phi_matrix(basis, None, 0, -1, None)

    def test_cocycles_computed_once_per_degree(self, doubling, monkeypatch):
        calls = []
        cocycle_or_none = dyn.cocycle_or_none

        def counting(system, pot, k, x):
            calls.append(k)
            return cocycle_or_none(system, pot, k, x)

        monkeypatch.setattr(dyn, "cocycle_or_none", counting)
        h = tr.TransferHandle.create(doubling.system, doubling.potential)
        basis = rep.OrbitBasis(h, F(1, 4), 4)
        a = dyn.PiecewiseAffine.hat(F(1, 2), F(1, 2), 1)
        degrees = range(basis.depth + 1)
        first = [gp.phi_matrix(basis, a, n, m, None) for n in degrees for m in degrees]
        assert gp.iso_phi_check(basis, a, None, 1, 2, a, None, 2, 1) <= 1e-12
        again = [gp.phi_matrix(basis, a, n, m, None) for n in degrees for m in degrees]
        assert all(np.array_equal(x, y) for x, y in zip(first, again))
        assert sorted(set(calls)) == list(degrees)
        assert all(calls.count(k) <= basis.dim for k in degrees)

    def test_slot_values_computed_once_per_function(self, setup, monkeypatch):
        basis, gpd = setup
        evaluated, inside = {}, []
        slot_diag, value = gp._slot_diag, dyn.PiecewiseAffine.value

        def slot(*args):
            inside.append(True)
            try:
                return slot_diag(*args)
            finally:
                inside.pop()

        def counting(f, x):
            if inside and f.zero_outside:  # the arrow side evaluates on its own; weights are not counted
                evaluated[id(f)] = evaluated.get(id(f), 0) + 1
            return value(f, x)

        monkeypatch.setattr(gp, "_slot_diag", slot)
        monkeypatch.setattr(dyn.PiecewiseAffine, "value", counting)
        a = dyn.PiecewiseAffine.hat(F(1, 2), F(1, 2), 1)
        b = dyn.PiecewiseAffine.affine_on(UNIT, 1, 0)
        rng = random.Random(2)
        for _ in range(10):
            n, m, n2, m2 = (rng.randint(0, 3) for _ in range(4))
            assert gp.iso_phi_check(basis, a, b, n, m, b, a, n2, m2, gpd=gpd) <= 1e-12
        assert sorted(evaluated) == sorted((id(a), id(b)))
        assert all(count <= basis.dim for count in evaluated.values())

    def test_slot_values_only_where_the_shift_reaches(self):
        # a vertex point is coarser than an edge cylinder, so the cylinder
        # cannot be read there; at degree one its cocycle is missing and the
        # slot never asks
        s = specfile.bundled("loops2")
        h = tr.TransferHandle.create(s.system, s.potential)
        g = s.system.gph
        basis = rep.OrbitBasis(h, g.vertex_point("v"), 3)
        cyl = tr.CylinderFunction.indicator(g.path_point(("b",)))  # the loop b at v
        assert gp.phi_matrix(basis, cyl, 1, 1, None).shape == (basis.dim, basis.dim)
        with pytest.raises(SupportViolation, match="coarser than cylinder"):
            gp.phi_matrix(basis, cyl, 0, 0, None)

    def test_periodic_anchor_refused(self, doubling):
        # 0 is fixed under doubling, so its tree repeats the point and the
        # node-to-point dictionary would be ambiguous
        h = tr.TransferHandle.create(doubling.system, doubling.potential)
        basis = rep.OrbitBasis(h, F(0), 3)
        with pytest.raises(ValidationError):
            gp.iso_phi_check(basis, None, None, 1, 1)

    def test_graph_cylinder_battery(self, shift2, shift2_anchor):
        h = tr.TransferHandle.create(shift2.system, shift2.potential)
        basis = rep.OrbitBasis(h, shift2_anchor, 6)
        gpd = gp.build_deaconu(shift2.system, shift2.potential, [shift2_anchor], 6)
        g = shift2.system.gph
        fns = [
            tr.CylinderFunction.indicator(g.path_point(("e0",))),
            tr.CylinderFunction.indicator(g.path_point(("e1",)), F(1, 2)),
            tr.CylinderFunction.indicator(g.path_point(("e0", "e1"))),
            tr.CylinderFunction.indicator(g.vertex_point("v")),
            None,
        ]
        rng = random.Random(11)
        worst = 0.0
        for _ in range(20):
            n, m, n2, m2 = (rng.randint(0, 3) for _ in range(4))
            fa, fb, fc, fd = (rng.choice(fns) for _ in range(4))
            r = gp.iso_phi_check(basis, fa, fb, n, m, fc, fd, n2, m2, gpd=gpd)
            worst = max(worst, r)
        assert worst <= 1e-10


def _old_convolution(gpd, basis, a, b, n, m, c, d, n2, m2):
    """The point-keyed loop ``_convolution_matrix`` ran before the table interned its points."""
    end = functools.cache(functools.partial(dyn.orbit_end, basis.system))
    rows = {nd.point: i for i, nd in enumerate(basis.nodes)}
    by_left = {}
    for i, g in enumerate(gpd.elements):
        by_left.setdefault(g.x, []).append(i)

    def tensor(f, h, n, m, g):
        if g.k != n - m:
            return 0.0
        vx = end(g.x, n)
        if vx is None or vx != end(g.y, m):
            return 0.0
        return (1.0 if f is None else float(f.value(g.x))) * (1.0 if h is None else float(h.value(g.y)))

    out = np.zeros((basis.dim, basis.dim))
    second = {}
    for g1 in gpd.elements:
        if g1.k != n - m or g1.x not in rows:
            continue
        v1 = tensor(a, b, n, m, g1)
        if v1 == 0.0:
            continue
        for j in by_left.get(g1.y, ()):
            g2 = gpd.elements[j]
            if g2.k != n2 - m2 or g2.y not in rows:
                continue
            if j not in second:
                second[j] = tensor(c, d, n2, m2, g2)
            if second[j] != 0.0:
                out[rows[g1.x], rows[g2.y]] += v1 * second[j]
    return out


class TestConvolutionOnIds:
    """``_convolution_matrix`` on interned ids against the point-keyed loop, bit for bit."""

    def _cases(self, system, pot, anchor, seeds, depth, fns, seed):
        h = tr.TransferHandle.create(system, pot)
        basis = rep.OrbitBasis(h, anchor, depth)
        gpd = gp.build_deaconu(system, pot, seeds, depth)
        rng = random.Random(seed)
        for _ in range(40):
            degrees = [rng.randint(0, min(3, depth)) for _ in range(4)]
            f = [rng.choice(fns) for _ in range(4)]
            args = (f[0], f[1], degrees[0], degrees[1], f[2], f[3], degrees[2], degrees[3])
            got = gp._convolution_matrix(gpd, basis, *args)
            assert got.tobytes() == _old_convolution(gpd, basis, *args).tobytes()
        return basis, gpd

    def _interval_fns(self):
        return [
            dyn.PiecewiseAffine.hat(F(1, 2), F(1, 2), 1),
            dyn.PiecewiseAffine.affine_on(UNIT, 1, 0),
            dyn.PiecewiseAffine.hat(F(1, 4), F(1, 4), 1),
            None,
        ]

    def test_one_seed(self, doubling):
        self._cases(doubling.system, doubling.potential, F(1, 4), [F(1, 4)], 4, self._interval_fns(), 3)

    def test_two_seeds_reach_off_the_basis(self, doubling):
        # the tree of 3/4 is in the table but not on the basis of 1/4
        basis, gpd = self._cases(
            doubling.system, doubling.potential, F(1, 4), [F(1, 4), F(3, 4)], 3, self._interval_fns(), 5
        )
        on = {nd.point for nd in basis.nodes}
        assert len(gpd.points) > basis.dim
        assert any(g.x in on and g.y not in on for g in gpd.elements)

    @pytest.mark.parametrize("name", ["fullshift2", "golden_mean"])
    def test_graphs(self, name):
        if name == "golden_mean":
            spec = specfile.parse_spec(cells.generated_specs()[name])
        else:
            spec = specfile.bundled(name)
        system, pot = spec.system, spec.potential
        anchor = system.map.default_anchor(dyn.regular_set(system, pot).delta_reg)
        fns = [tr.CylinderFunction.indicator(p, F(i + 1, 2)) for i, p in enumerate(system.gph.words(1))] + [None]
        self._cases(system, pot, anchor, [anchor], 5, fns, 7)


class TestGraphGenerators:
    def test_single_loop_shift(self):
        l1 = specfile.bundled("loop1")
        fam = gp.graph_generators(l1.system, {"e": 1}, 8)
        assert fam.max_residual() == 0.0
        s = fam.isometries["e"]
        blk = np.ix_(fam.interior, fam.interior)
        # one path only: the generator is a plain shift, unitary inside
        assert np.abs((s @ s.T - fam.projections["v"])[blk]).max() == 0.0
        assert np.abs((s.T @ s - fam.projections["v"])[blk]).max() == 0.0

    def test_full_shift_cuntz_relations(self, shift2):
        fam = gp.graph_generators(shift2.system, {"e0": 1, "e1": 1}, 6)
        assert fam.max_residual() == 0.0
        s1, s2 = fam.isometries["e0"], fam.isometries["e1"]
        eye = np.eye(fam.basis.dim)
        blk = np.ix_(fam.interior, fam.interior)
        assert np.abs((s1.T @ s1 - eye)[blk]).max() == 0.0
        assert np.abs((s2.T @ s2 - eye)[blk]).max() == 0.0
        assert np.abs((s1 @ s1.T + s2 @ s2.T - eye)[blk]).max() == 0.0
        assert np.abs(s1.T @ s2).max() == 0.0

    def test_weighted_edges_still_tight(self, shift2):
        # sqrt(lambda) round trips through floats, so only near-exact here
        fam = gp.graph_generators(shift2.system, {"e0": F(1, 2), "e1": F(3)}, 5)
        assert fam.max_residual() <= 1e-12

    def test_two_components(self):
        l2 = specfile.bundled("loops2")
        fam = gp.graph_generators(l2.system, {"a": 1, "b": 1}, 6)
        # anchored in the a-component; the b-generator acts as zero there
        # and every relation it enters holds vacuously
        assert fam.max_residual() == 0.0
        assert np.abs(fam.isometries["b"]).max() == 0.0

    def test_input_validation(self, shift2):
        with pytest.raises(ValidationError):
            gp.graph_generators(shift2.system, {"e0": 1}, 4)
        with pytest.raises(ValidationError):
            gp.graph_generators(shift2.system, {"e0": 1, "e1": 0}, 4)
        d = specfile.bundled("doubling")
        with pytest.raises(ValidationError):
            gp.graph_generators(d.system, {}, 4)

    def test_weight_table_names_only_edges_of_the_graph(self, shift2):
        with pytest.raises(ValidationError, match="^weight names unknown edge zz$"):
            gp.graph_generators(shift2.system, {"e0": 1, "e1": 1, "zz": 3}, 4)

    def test_rep_route_equals_prepend_route(self, shift2):
        fam = gp.graph_generators(shift2.system, {"e0": 1, "e1": 1}, 5)
        assert fam.residuals["shift:e0"] == 0.0
        assert fam.residuals["shift:e1"] == 0.0
