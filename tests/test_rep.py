import random
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from xferop import cli
from xferop import dynamics as dyn
from xferop import rep
from xferop import specfile
from xferop import transfer as tr
from xferop.errors import EmptyBasis, ValidationError, XferopError
from xferop.intervals import Q, RationalInterval

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import cells  # noqa: E402  (the benchmark's specs)

TOL = 1e-12


@pytest.fixture(scope="module")
def tent_basis():
    t = specfile.bundled("tent_std")
    h = tr.TransferHandle.create(t.system, t.potential)
    return rep.OrbitBasis(h, 1, 8)


@pytest.fixture(scope="module")
def shift_basis():
    s = specfile.bundled("fullshift2")
    h = tr.TransferHandle.create(s.system, s.potential)
    return rep.OrbitBasis(h, s.system.gph.vertex_point("v"), 6)


def hat():
    return dyn.PiecewiseAffine.hat(F(1, 2), F(1, 4))


def ident():
    return dyn.PiecewiseAffine.affine_on(RationalInterval(0, 1), 1, 0)


class TestOrbitBasis:
    def test_tent_tree_size(self, tent_basis):
        assert tent_basis.dim == 256  # 1 + (2^8 - 1) nodes above the anchor

    def test_shift_tree_size(self, shift_basis):
        assert shift_basis.dim == 127  # binary words up to length 6

    def test_zero_weights_pruned(self):
        s = specfile.bundled("tent_half")
        h = tr.TransferHandle.create(s.system, s.potential)
        b = rep.OrbitBasis(h, F(1, 2), 6)
        # only the rising branch carries weight, so the tree is a line
        assert b.dim == 7
        assert [nd.point for nd in b.nodes] == [F(1, 2) / 2**k for k in range(7)]

    def test_anchor_outside_the_space_refused(self, tent_handle):
        with pytest.raises(ValidationError, match="^anchor lies outside the space$"):
            rep.OrbitBasis(tent_handle, F(3, 2), 2)

    def test_invalid_handle_refused(self):
        t = specfile.bundled("tent_std")
        bad = dyn.PiecewiseAffine(pieces=((RationalInterval(0, 1), 0, F(1, 2)),))
        h = tr.TransferHandle.create(t.system, bad)
        with pytest.raises(Exception):
            rep.OrbitBasis(h, 1, 4)


class TestRelations:
    def test_transfer_relation(self, tent_basis):
        assert rep.check_transfer_relation(tent_basis, hat()) < TOL

    def test_covariance_with_exact_pullback(self, tent_basis):
        assert rep.check_covariance(tent_basis, hat()) < TOL

    def test_covariance_negative_control(self, tent_basis):
        # a itself is not its own pullback, the residual must be visible
        assert rep.covariance_residual(tent_basis, hat(), hat()) > 0.5

    def test_commutation(self, tent_basis):
        assert rep.check_commutation(tent_basis, hat(), ident()) < TOL

    def test_products_both_orders(self, tent_basis):
        m1 = rep.Monomial(hat(), 2, 1, ident())
        m2 = rep.Monomial(ident(), 1, 2, hat())
        assert rep.product_check(tent_basis, m1, m2) < TOL
        assert rep.product_check(tent_basis, m2, m1) < TOL

    def test_product_needs_room(self, tent_basis):
        deep = rep.Monomial(None, 5, 0, None)
        with pytest.raises(EmptyBasis):
            rep.product_check(tent_basis, deep, deep)

    def test_graph_relations(self):
        s = specfile.bundled("fullshift2")
        h = tr.TransferHandle.create(s.system, s.potential)
        g = s.system.gph
        # anchor at a genuine word so every tree node refines the cylinders
        b0 = rep.OrbitBasis(h, g.path_point(("e0", "e0")), 6)
        assert b0.dim == 127
        a = tr.CylinderFunction.indicator(g.path_point(("e0",)))
        b = tr.CylinderFunction.indicator(g.path_point(("e1", "e0")), F(1, 2))
        assert rep.check_transfer_relation(b0, a) < TOL
        assert rep.check_covariance(b0, a) < TOL
        assert rep.check_commutation(b0, a, b) < TOL
        m1 = rep.Monomial(a, 1, 1, b)
        m2 = rep.Monomial(b, 2, 1, a)
        assert rep.product_check(b0, m1, m2) < TOL

    def test_pullback_is_exact(self):
        t = specfile.bundled("tent_std")
        a = hat()
        aa = a.pullback(t.system.map)
        for k in range(0, 33):
            x = F(k, 32)
            assert aa.value(x) == a.value(t.system.ival.phi(x))

    @pytest.mark.parametrize("spec", ["loops2", "fullshift2"])
    def test_cylinder_pullback_is_exact(self, spec):
        g = specfile.bundled(spec).system.gph
        cyls = g.words(0) + g.words(1) + g.words(2)
        a = tr.CylinderFunction(tuple((p, F(i + 1, 3)) for i, p in enumerate(cyls)))
        aa = a.pullback(g)
        for x in g.words(3):
            assert aa.value(x) == a.value(g.phi(x))


class TestExpectations:
    def test_gauge_scales_t(self, tent_basis):
        ra, rt = rep.gauge_residuals(tent_basis, hat())
        assert ra < TOL and rt < TOL

    def test_e_balanced_fixed(self, tent_basis):
        assert rep.e_check(tent_basis, rep.Monomial(hat(), 2, 2, None)) < TOL

    def test_e_unbalanced_killed(self, tent_basis):
        assert rep.e_check(tent_basis, rep.Monomial(hat(), 3, 1, ident())) < TOL
        m = rep.monomial_matrix(tent_basis, rep.Monomial(hat(), 3, 1, ident()))
        assert np.abs(m).max() > 0.01  # the monomial itself is far from zero

    def test_g_diagonal_is_cocycle(self, tent_basis):
        assert rep.g_check(tent_basis, rep.Monomial(hat(), 2, 2, ident())) < TOL
        assert rep.g_check(tent_basis, rep.Monomial(None, 3, 3, None)) < TOL

    def test_row_norms(self, tent_basis):
        tk = tent_basis.T_pow(3)
        assert np.abs(np.diag(tk @ tk.T) - (tk**2).sum(axis=1)).max() < TOL

    def test_balanced_projection_tent_half(self):
        # with the one-sided weight, T T* is exactly the indicator of [0, 1/2];
        # the basis holds only nodes of weight one, and those all lie there
        s = specfile.bundled("tent_half")
        h = tr.TransferHandle.create(s.system, s.potential)
        b = rep.OrbitBasis(h, F(1, 3), 6)
        assert all(nd.point <= F(1, 2) for nd in b.nodes[1:])
        t = b.T()
        proj = t @ t.T
        ind = dyn.PiecewiseAffine.const_on(RationalInterval(0, F(1, 2)), 1)
        expect = b.pi(ind)
        # the root is the one node whose image point falls outside the tree
        mask = b.band(1, b.depth)
        assert np.abs((proj - expect)[:, mask][mask, :]).max() < TOL


class TestRegularWindow:
    def test_loop_witness_norm(self):
        s = specfile.bundled("loop1")
        h = tr.TransferHandle.create(s.system, s.potential)
        g = s.system.gph
        b = rep.OrbitBasis(h, g.vertex_point("v"), 24)
        assert b.dim == 25  # a single line of loop words
        t = b.T()
        # on the point itself t acts as the scalar 1, so t - 1 vanishes in
        # the one-dimensional quotient; on the line model its norm stays ~2
        w = t - np.eye(b.dim)
        norm = np.linalg.norm(w, 2)
        assert norm > 1.9

    def test_regular_mode_reports_the_windowed_dimension(self):
        args = ["rep", "regular", "--spec", "loop1", "--depth", "4", "--width", "3"]
        result = CliRunner().invoke(cli.main, args)
        assert result.exit_code == 0, result.output
        assert "dimension: 15" in result.output.splitlines()  # 5 line nodes times 3 window slots

    def test_regular_mode_refuses_a_window_under_two(self):
        args = ["rep", "regular", "--spec", "loop1", "--depth", "4", "--width", "1"]
        result = CliRunner().invoke(cli.main, args)
        assert result.exit_code == 3
        assert result.output.splitlines() == ["error: window width must be >= 2"]


# tent_half and halving weigh part of their domain zero, so their walks cut
# preimages; golden_mean is the benchmark's graph with a forbidden word
TREE_SPECS = ["tent_std", "tent_half", "doubling", "halving", "loop1", "loops2", "fullshift2", "golden_mean"]


def _agree(got, want):
    """got() == want(), or both raise alike: a graph cylinder read at a
    vertex point, or a refused step count, whichever way it is reached."""
    try:
        expected = want()
    except XferopError as exc:
        with pytest.raises(type(exc)):
            got()
        return
    assert got() == expected


def _spec(name):
    if name in cells.generated_specs():
        return specfile.parse_spec(cells.generated_specs()[name])
    return specfile.bundled(name)


class TestTreeEvaluation:
    """``FnExpr.on`` against the pointwise closures it replaces at the nodes."""

    @pytest.fixture(scope="class", params=TREE_SPECS)
    def case(self, request):
        s = _spec(request.param)
        h = tr.TransferHandle.create(s.system, s.potential)
        basis = rep.OrbitBasis(h, cli._anchor_of(s, None), 4)
        return s.system, s.potential, basis, cli._battery_fns(h, random.Random(0), 4)

    def test_transfer_sums_the_children(self, case):
        system, pot, basis, fns = case
        for a in fns:
            for n in (0, 1, 2):
                la = rep.FnExpr.of(a).transfer(system, pot, n)
                _agree(
                    lambda: la.on(basis, basis.depth + 1),
                    lambda: [tr.weighted_fiber_sum(system, pot, a.value, nd.point, n) for nd in basis.nodes],
                )

    def test_alpha_reads_the_ancestor(self, case):
        system, _, basis, fns = case
        for a in fns:
            for n in (0, 1, 2, basis.depth + 1):
                ends = [dyn.orbit_end(system, nd.point, n) for nd in basis.nodes]
                _agree(
                    lambda: rep.FnExpr.of(a).alpha(system, n).on(basis, basis.depth + 1),
                    lambda: [Q(0) if z is None else a.value(z) for z in ends],
                )

    def test_composites_equal_their_closures(self, case):
        # the product battery's middle functions, and a transfer of a pullback
        # that reads past the leaves
        system, pot, basis, fns = case
        a, b = fns[0], fns[-1]
        prod = rep.FnExpr.of(a) * rep.FnExpr.of(b)
        exprs = [
            prod.transfer(system, pot, 1),
            prod.transfer(system, pot, 0).alpha(system, 1),
            prod.transfer(system, pot, 2).alpha(system, 2) * rep.FnExpr.const(F(1, 3)),
            rep.FnExpr.of(a).alpha(system, 1).transfer(system, pot, 2),
        ]
        for e in exprs:
            for levels in (basis.depth + 1, basis.depth + 2):
                _agree(lambda: e.on(basis, levels), lambda: [e.value(x) for x, _, _ in basis.tree(levels)])

    def test_pi_matches_the_pointwise_diagonal(self, case):
        system, pot, basis, fns = case
        la = rep.FnExpr.of(fns[0]).transfer(system, pot)
        want = np.diag([float(la.value(nd.point)) for nd in basis.nodes])
        assert np.array_equal(basis.pi(la), want)
        assert np.array_equal(basis.pi(fns[0]), np.diag([float(fns[0].value(nd.point)) for nd in basis.nodes]))

    def test_an_expression_over_another_system_reads_pointwise(self, tent_basis):
        # the tree is the tent's; a doubling transfer must not be read off it
        d = specfile.bundled("doubling")
        la = rep.FnExpr.of(hat()).transfer(d.system, d.potential)
        got = la.on(tent_basis, 3)
        assert got == [tr.weighted_fiber_sum(d.system, d.potential, hat().value, x, 1) for x, _, _ in tent_basis.tree(3)]

    def test_step_counts_are_refused_as_pointwise(self, tent_basis):
        system, pot = tent_basis.system, tent_basis.potential
        for n in (-1, system.depth_bound + 1):
            la = rep.FnExpr.of(hat()).transfer(system, pot, n)
            _agree(lambda: la.on(tent_basis, 2), lambda: [la.value(x) for x, _, _ in tent_basis.tree(2)])

    def test_levels_past_the_depth_are_walked_on_first_use(self, monkeypatch):
        s = specfile.bundled("tent_std")
        h = tr.TransferHandle.create(s.system, s.potential)
        stepped = []
        fiber = dyn.IntervalSystem.fiber

        def counting(self, y):
            stepped.append(y)
            return fiber(self, y)

        monkeypatch.setattr(dyn.IntervalSystem, "fiber", counting)
        basis = rep.OrbitBasis(h, F(1, 3), 3)
        assert len(stepped) == 7  # the nodes above the leaves
        basis.T(), basis.pi(hat())
        assert len(stepped) == 7
        rep.check_transfer_relation(basis, hat())
        assert len(stepped) == 15 and len(basis.tree(5)) == 31
        rep.check_transfer_relation(basis, hat())
        assert len(stepped) == 15


class TestGenerator:
    def test_built_once_and_read_only(self, tent_basis):
        t = tent_basis.T()
        assert tent_basis.T() is t
        with pytest.raises(ValueError):
            t[1, 0] = 0.0

    def test_weights_are_the_potential_at_each_node(self, tent_basis):
        pot = tent_basis.potential
        assert tent_basis._weights == (Q(0),) + tuple(pot.value(nd.point) for nd in tent_basis.nodes[1:])
