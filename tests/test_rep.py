from fractions import Fraction as F

import numpy as np
import pytest

from xferop import dynamics as dyn
from xferop import rep
from xferop import specfile
from xferop import transfer as tr
from xferop.errors import EmptyBasis, ValidationError
from xferop.intervals import IntervalSet, RationalInterval

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
    return tr.TestFunction.hat(F(1, 2), F(1, 4))


def ident():
    return tr.TestFunction.affine_on(RationalInterval(0, 1), 1, 0)


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
        bad = dyn.IntervalPotential(pieces=((RationalInterval(0, 1), 0, F(1, 2)),))
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
        ind = tr.TestFunction.const_on(RationalInterval(0, F(1, 2)), 1)
        expect = b.pi(ind)
        # the root is the one node whose image point falls outside the tree
        mask = b.band(1, b.depth)
        assert np.abs((proj - expect)[:, mask][mask, :]).max() < TOL


class TestQuasiBasis:
    def test_reconstruction_on_tent(self):
        t = specfile.bundled("tent_std")
        qb = rep.quasi_basis(t.system, t.potential)
        pts = [F(k, 32) for k in range(1, 32) if k != 16]
        res = rep.quasi_basis_residual(t.system, t.potential, qb, hat(), pts)
        assert res < 1e-12

    def test_partition_sums_to_one(self):
        t = specfile.bundled("tent_std")
        qb = rep.quasi_basis(t.system, t.potential)
        for k in range(0, 33):
            x = F(k, 32)
            if x == F(1, 2):
                continue
            total = sum(v.value(x) for v in qb.functions)
            assert total == 1

    def test_supports_are_branch_local(self):
        t = specfile.bundled("tent_std")
        qb = rep.quasi_basis(t.system, t.potential)
        doms = [b.domain for b in t.system.ival.branches]
        for v in qb.functions:
            sup = IntervalSet(iv.closure() for iv, m, c in v.pieces if (m, c) != (0, 0))
            assert any(sup.issubset(IntervalSet.of(d)) for d in doms)

    def test_graph_quasi_basis(self):
        s = specfile.bundled("fullshift2")
        qb = rep.quasi_basis(s.system, s.potential)
        g = s.system.gph
        pts = list(g.words(3))
        a = tr.CylinderFunction.indicator(g.path_point(("e0", "e1")))
        res = rep.quasi_basis_residual(s.system, s.potential, qb, a, pts)
        assert res < 1e-12


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

    def test_window_tensor(self):
        s = specfile.bundled("loop1")
        h = tr.TransferHandle.create(s.system, s.potential)
        b = rep.OrbitBasis(h, s.system.gph.vertex_point("v"), 4)
        rb = rep.RegularBasis(b, 3)
        assert rb.dim == 15
        one = tr.CylinderFunction.indicator(s.system.gph.vertex_point("v"))
        assert rb.pi(one).shape == (15, 15)
        tt = rb.T()
        assert np.count_nonzero(tt) == (3 - 1) * 4  # shift blocks of the line
