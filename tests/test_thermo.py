import gc
import math
import random
import re
import time
import weakref
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xferop import dynamics as dyn
from xferop import rep
from xferop import specfile
from xferop import thermo as th
from xferop import transfer as tr
from xferop.errors import NoSolution, OutOfDomain, ValidationError
from xferop.intervals import IntervalSet, RationalInterval

LN2 = math.log(2)
UNIT = RationalInterval(F(0), F(1))


@pytest.fixture(scope="module")
def psi_one(tent):
    return th.PotentialFunction.const(tent.system, 1)


@pytest.fixture(scope="module")
def loop1():
    s = specfile.bundled("loop1")
    return s, tr.TransferHandle.create(s.system, s.potential)


def uniform_ulam(handle, bins):
    """Lebesgue measure on the single component of the space, as bin densities."""
    (comp,) = handle.system.ival.space.intervals
    return tr.UlamMeasure(comp.lo, comp.hi, (1 / (comp.hi - comp.lo),) * bins)


def tv_distance(mu1, mu2):
    """Exact total variation distance of two bin-density measures on one grid."""
    if (mu1.lo, mu1.hi, mu1.bins) != (mu2.lo, mu2.hi, mu2.bins):
        raise ValidationError("total variation needs matching bin grids")
    w = (mu1.hi - mu1.lo) / mu1.bins
    return sum((abs(a - b) * w for a, b in zip(mu1.densities, mu2.densities)), F(0)) / 2


def _psi_exp(psi, beta, x):
    return math.exp(beta * float(psi.carrier.value(x)))


def _psi_affine(system, slope, intercept):
    pot = dyn.PiecewiseAffine(
        pieces=((UNIT, F(slope), F(intercept)),), allow_negative=True
    )
    return th.PotentialFunction(system, pot)


class TestPotentialFunction:
    def test_const_interval(self, tent, psi_one):
        assert psi_one.carrier.constant_value() == 1
        assert psi_one.carrier.value(F(1, 3)) == 1

    def test_birkhoff_sums_along_orbit(self, tent):
        psi = _psi_affine(tent.system, 1, 0)
        # orbit of 1/8 under the tent: 1/8 -> 1/4
        assert psi.birkhoff(F(1, 8), 2) == F(1, 8) + F(1, 4)
        assert psi.birkhoff(F(1, 8), 0) == 0
        assert psi.carrier.constant_value() is None

    def test_coverage_required(self, tent):
        pot = dyn.PiecewiseAffine(
            pieces=((RationalInterval(F(0), F(1, 2)), F(0), F(1)),),
            allow_negative=True,
        )
        with pytest.raises(ValidationError):
            th.PotentialFunction(tent.system, pot)

    def test_jump_rejected(self, tent):
        pot = dyn.PiecewiseAffine(
            pieces=(
                (RationalInterval(F(0), F(1, 2), True, False), F(0), F(0)),
                (RationalInterval(F(1, 2), F(1)), F(0), F(1)),
            ),
            allow_negative=True,
        )
        with pytest.raises(ValidationError):
            th.PotentialFunction(tent.system, pot)

    def test_overrides_rejected(self, tent):
        pot = dyn.PiecewiseAffine(
            pieces=((UNIT, F(0), F(1)),),
            overrides=((F(1, 2), F(1)),),
            allow_negative=True,
        )
        with pytest.raises(ValidationError):
            th.PotentialFunction(tent.system, pot)

    def test_backend_mismatch(self, tent, loop1):
        s, _ = loop1
        with pytest.raises(ValidationError):
            th.PotentialFunction(tent.system, dyn.GraphPotential(weights=(("e", F(1)),)))

    def test_graph_needs_every_edge(self, loop1):
        s, _ = loop1
        with pytest.raises(ValidationError):
            th.PotentialFunction(
                s.system, dyn.GraphPotential(weights=(), allow_negative=True)
            )

    def test_graph_refuses_an_unknown_edge(self, shift2):
        pot = dyn.GraphPotential((("e0", F(1)), ("e1", F(1)), ("zz", F(5))), allow_negative=True)
        with pytest.raises(ValidationError, match="^weight names unknown edge zz$"):
            th.PotentialFunction(shift2.system, pot)

    @pytest.mark.parametrize("name", specfile.BUNDLED)
    def test_value_is_the_weight(self, name):
        s = specfile.bundled(name)
        psi = th.PotentialFunction(s.system, s.psi)
        if s.system.backend == "graph":
            pts = s.system.gph.words(1) + s.system.gph.words(2)
        else:
            delta = s.system.ival.delta
            pts = [x for iv in delta.intervals for x in (iv.lo, iv.midpoint(), iv.hi)]
            pts = [x for x in pts if delta.contains(x)]
        assert pts
        for x in pts:
            assert psi.carrier.value(x) == s.psi.value(x)

    @pytest.mark.parametrize("name", specfile.BUNDLED)
    @pytest.mark.parametrize("energy, expected", [("one", 1), ("zero", 0), ("spec", 1)])
    def test_carrier_constant_value_agrees(self, name, energy, expected):
        # every bundled spec declares the energy one
        s = specfile.bundled(name)
        if energy == "spec":
            psi = th.PotentialFunction(s.system, s.psi)
        else:
            psi = th.PotentialFunction.const(s.system, expected)
        kind = dyn.GraphPotential if s.system.backend == "graph" else dyn.PiecewiseAffine
        assert type(psi.carrier) is kind
        assert psi.carrier.constant_value() == expected

    def test_varying_energy_has_no_constant_value(self, tent, shift2):
        graph = dyn.GraphPotential((("e0", F(1)), ("e1", F(2))), allow_negative=True)
        for psi in (_psi_affine(tent.system, 1, 0), th.PotentialFunction(shift2.system, graph)):
            assert psi.carrier.constant_value() is None

    def test_graph_values(self, loop1):
        s, _ = loop1
        psi = th.PotentialFunction.const(s.system, F(3, 2))
        p = s.system.gph.path_point(("e", "e"))
        assert psi.carrier.value(p) == F(3, 2)
        assert psi.birkhoff(p, 2) == 3
        with pytest.raises(OutOfDomain):
            psi.carrier.value(s.system.gph.vertex_point("v"))


class TestSigmaAction:
    def test_lambda_zero_is_identity(self, tent, psi_one):
        hat = dyn.PiecewiseAffine.hat(F(1, 4), F(1, 4), 1)
        mon = rep.Monomial(hat, 2, 1, hat)
        tw = th.sigma_action(mon, 0.0, psi_one)
        for x in (F(1, 8), F(1, 4), F(3, 8)):
            assert tw.left_value(x) == complex(hat.value(x))
            assert tw.right_value(x) == complex(hat.value(x))

    def test_group_property(self, tent):
        psi = _psi_affine(tent.system, 1, F(-1, 4))
        mon = rep.Monomial(None, 2, 1, None)
        l1, l2 = 0.7 - 0.3j, -1.1 + 0.45j
        once = th.sigma_action(mon, l1 + l2, psi)
        twice = th.sigma_action(th.sigma_action(mon, l1, psi), l2, psi)
        for x in (F(1, 8), F(1, 3), F(5, 8)):
            assert abs(once.left_value(x) - twice.left_value(x)) <= 1e-12
            assert abs(once.right_value(x) - twice.right_value(x)) <= 1e-12

    def test_imaginary_parameter_damps_by_energy(self, tent, psi_one):
        # at lambda = i*beta and unit energy the generator side picks up e^-beta
        beta = 0.9
        mon = rep.Monomial(dyn.PiecewiseAffine.const_on(UNIT, 1), 1, 0, None)
        tw = th.sigma_action(mon, complex(0, beta), psi_one)
        assert abs(tw.left_value(F(1, 3)) - math.exp(-beta)) <= 1e-15
        mon2 = rep.Monomial(None, 0, 1, dyn.PiecewiseAffine.const_on(UNIT, 1))
        tw2 = th.sigma_action(mon2, complex(0, beta), psi_one)
        assert abs(tw2.right_value(F(1, 3)) - math.exp(beta)) <= 1e-15

    def test_mixed_energies_rejected(self, tent, psi_one):
        other = _psi_affine(tent.system, 0, 2)
        tw = th.sigma_action(rep.Monomial(None, 1, 1, None), 1.0, psi_one)
        with pytest.raises(ValidationError):
            th.sigma_action(tw, 1.0, other)


class TestPositiveEnergy:
    def test_unit_energy_holds(self, tent, psi_one):
        v = th.check_positive_energy(tent.system, psi_one, depth=8)
        assert v.property == "PositiveEnergy" and v.holds
        assert v.certificate.depth == 8 and v.certificate.windows > 0

    def test_zero_energy_fails_at_level_one(self, tent):
        psi = th.PotentialFunction.const(tent.system, 0)
        v = th.check_positive_energy(tent.system, psi, depth=4)
        assert v.fails and v.certificate.n == 1
        assert v.certificate.window is not None
        assert psi.birkhoff(v.certificate.point, 1) == 0

    def test_affine_witness_is_exact_root(self, tent):
        psi = _psi_affine(tent.system, 1, F(-1, 4))
        v = th.check_positive_energy(tent.system, psi, depth=6)
        assert v.fails
        c = v.certificate
        assert c.n == 1 and c.point == F(1, 4)
        assert psi.birkhoff(c.point, c.n) == 0

    def test_deeper_cancellation_found(self, tent):
        # psi = x - 3/8 has no level-1 zero on [0, 3/8) branches only at 3/8;
        # the scan must report the shallowest exact zero
        psi = _psi_affine(tent.system, 1, F(-3, 8))
        v = th.check_positive_energy(tent.system, psi, depth=5)
        assert v.fails and psi.birkhoff(v.certificate.point, v.certificate.n) == 0

    @pytest.mark.parametrize("depth", [0, -3])
    def test_an_empty_scan_is_refused(self, tent, psi_one, depth):
        with pytest.raises(ValidationError, match=f"depth must be >= 1, got {depth}"):
            th.check_positive_energy(tent.system, psi_one, depth=depth)

    def test_graph_scan(self, loop1):
        s, _ = loop1
        good = th.PotentialFunction.const(s.system, 1)
        assert th.check_positive_energy(s.system, good, depth=6).holds
        bad = th.PotentialFunction.const(s.system, 0)
        v = th.check_positive_energy(s.system, bad, depth=6)
        assert v.fails and v.certificate.n == 1
        assert v.certificate.chain == v.certificate.point.word


def _on_cell(g, y):
    """The grid's quadratic at y, read off the open cell holding y."""
    assert y not in g.nodes
    c0, c1, c2 = g.cell(y)
    return c0 + c1 * y + c2 * y * y


class TestGridFunctions:
    """Grids are only integrated, so they are held to the functions they
    stand for on the open cells, away from the finitely many nodes."""

    def test_transfer_grid_matches_pointwise_apply(self, tent_handle):
        a = dyn.PiecewiseAffine.hat(F(1, 4), F(1, 8), 1)
        g = th._fiber_grid(tent_handle, a)
        for k in range(32):
            y = F(2 * k + 1, 64)
            assert _on_cell(g, y) == tr.apply(tent_handle, a, y)

    def test_fiber_sum_grid_matches_bare_sums(self, tent_handle):
        sys_ = tent_handle.system.ival
        a = dyn.PiecewiseAffine.hat(F(3, 8), F(1, 8), 1)
        unit = tr.TransferHandle.create(tent_handle.system, dyn.PiecewiseAffine(((UNIT, 0, 1),)))
        g = th._fiber_grid(unit, a)
        for k in range(24):
            y = F(2 * k + 1, 48)
            assert _on_cell(g, y) == sum(a.value(x) for x in sys_.fiber(y))

    def test_grid_product(self, tent_handle):
        carrier = UNIT
        hat = dyn.PiecewiseAffine.hat(F(1, 2), F(1, 2), 1)
        a = th._grid(hat, carrier)
        b = th._grid(tent_handle.potential, carrier)
        p = th._grid_product(a, b)
        for x in (F(1, 8), F(3, 8), F(5, 8), F(7, 8)):
            assert _on_cell(p, x) == _on_cell(a, x) * _on_cell(b, x)
            assert _on_cell(p, x) == hat.value(x) * tent_handle.potential.value(x)

    def test_cell_outside_range_is_zero(self):
        g = th.GridFunction((F(0), F(1)), ((F(1), F(0), F(0)),))
        assert g.cell(F(1, 2)) == (1, 0, 0)
        for x in (F(-1), F(0), F(1), F(2)):
            assert g.cell(x) == (0, 0, 0)


class TestConformalResidual:
    def test_lebesgue_at_log_two_is_exact(self, tent_handle, psi_one):
        mu = uniform_ulam(tent_handle, 64)
        fns = [
            dyn.PiecewiseAffine.const_on(UNIT, 1),
            dyn.PiecewiseAffine.hat(F(1, 2), F(1, 2), 1),
            dyn.PiecewiseAffine.hat(F(1, 4), F(1, 4), 1),
            dyn.PiecewiseAffine.affine_on(UNIT, 1, 0),
        ]
        r = th.conformal_residual(tent_handle, psi_one, LN2, mu, fns)
        assert r.kind == "conformal" and len(r.rows) == 4
        assert r.max_residual <= 1e-12

    def test_wrong_beta_detected(self, tent_handle, psi_one):
        mu = uniform_ulam(tent_handle, 64)
        ones = [dyn.PiecewiseAffine.const_on(UNIT, 1)]
        r = th.conformal_residual(tent_handle, psi_one, 1.0, mu, ones)
        # both sides are exact integrals: lhs 1, rhs e/2
        assert abs(r.max_residual - (math.e / 2 - 1)) <= 1e-12

    def test_point_mass_fails_on_separating_hat(self, tent_handle, psi_one):
        mu = tr.AtomicMeasure(((F(1, 4), F(1)),))
        hat = dyn.PiecewiseAffine.hat(F(1, 4), F(1, 16), 1)
        r = th.conformal_residual(tent_handle, psi_one, LN2, mu, [hat])
        assert abs(r.max_residual - 1.0) <= 1e-12
        assert r.max_residual >= 0.1

    def test_zero_function_gives_zero(self, tent_handle, psi_one):
        mu = uniform_ulam(tent_handle, 16)
        z = dyn.PiecewiseAffine.const_on(UNIT, 0)
        r = th.conformal_residual(tent_handle, psi_one, LN2, mu, [z])
        assert r.max_residual == 0.0

    def test_nonconstant_energy_quadrature(self, tent_handle):
        psi = _psi_affine(tent_handle.system, 1, 0)
        mu = uniform_ulam(tent_handle, 256)
        beta = 0.7
        r = th.conformal_residual(tent_handle, psi, beta, mu, [dyn.PiecewiseAffine.const_on(UNIT, 1)])
        predicted = abs(1.0 - (math.exp(beta) - 1) / (2 * beta))
        # composite midpoint at 256 bins carries ~1e-8 of quadrature error
        assert abs(r.max_residual - predicted) <= 5e-8

    def test_atomic_strong_residual_under_varying_energy(self, tent_handle):
        # both sides come from the atoms, so a non-constant energy is fine; the
        # atoms are the preimages of 1/2 down to depth 7, level n at mass
        # base * e^(-beta n)
        beta = 0.8
        psi = _psi_affine(tent_handle.system, 1, 0)
        a = dyn.PiecewiseAffine.hat(F(1, 4), F(1, 8), 1)
        base = 1.0 / math.fsum(2**n * math.exp(-beta * n) for n in range(8))
        atoms, level = [], [F(1, 2)]
        for n in range(8):
            atoms += [(x, base * math.exp(-beta * n)) for x in level]
            level = sorted({x for y in level for x in tent_handle.system.ival.fiber(y)})
        mu = tr.AtomicMeasure(tuple((x, F(w)) for x, w in atoms))
        row = th.conformal_residual(tent_handle, psi, beta, mu, [a]).rows[0]
        lhs = sum(w * float(tr.apply(tent_handle, a, x)) for x, w in atoms)
        rhs = sum(
            w * float(a.value(x)) * _psi_exp(psi, beta, x) * float(tent_handle.potential.value(x))
            for x, w in atoms
        )
        assert row.lhs == pytest.approx(lhs, abs=1e-15)
        assert row.rhs == pytest.approx(rhs, abs=1e-15)

    def test_float_protocol(self, tent_handle, psi_one):
        mu = uniform_ulam(tent_handle, 16)
        r = th.conformal_residual(tent_handle, psi_one, LN2, mu, [dyn.PiecewiseAffine.const_on(UNIT, 1)])
        assert float(r) == r.max_residual

    @pytest.mark.parametrize("order", [1, -1])
    def test_nan_residual_is_the_maximum(self, order):
        rows = (th.ResidualRow("f0", 1.0, 1.001, 1e-3), th.ResidualRow("f1", math.nan, 0.0, math.nan))
        report = th.ResidualReport("conformal", rows[::order])
        assert math.isnan(report.max_residual) and math.isnan(float(report))
        assert not report.max_residual <= 1.0
        assert th.ResidualReport("conformal", rows[:1]).max_residual == 1e-3
        assert th.ResidualReport("conformal", ()).max_residual == 0.0


def _bare_ruelle_ulam(handle, psi, beta, bins):
    """The per-beta bin matrix, rebuilding the exact geometry on every call.

    This is the loop ``thermo._ruelle_ulam`` ran before the geometry was kept
    across inverse temperatures; it stays here as the reference.
    """
    comp = th._single_component(handle.system)
    lo, hi = comp.lo, comp.hi
    w = (hi - lo) / bins
    k = np.zeros((bins, bins))
    fw = float(w)
    for br in handle.system.ival.branches:
        if br.slope == 0:
            continue
        for j in range(bins):
            binj = RationalInterval(lo + j * w, lo + (j + 1) * w, True, j == bins - 1)
            cell = binj.intersection(br.domain)
            if cell is None or cell.is_point:
                continue
            img = cell.affine_image(br.slope, br.intercept)
            i0 = max(int((img.lo - lo) // w), 0)
            i1 = min(int(-((lo - img.hi) // w)), bins - 1)
            for i in range(i0, i1 + 1):
                bini = RationalInterval(lo + i * w, lo + (i + 1) * w, True, i == bins - 1)
                ycell = img.intersection(bini)
                if ycell is None or ycell.is_point:
                    continue
                xcell = ycell.affine_image(1 / br.slope, -br.intercept / br.slope)
                val = 0.0
                for piv, m, c in psi.carrier.pieces:
                    seg = xcell.intersection(piv)
                    if seg is None or seg.is_point:
                        continue
                    u, v = float(seg.lo), float(seg.hi)
                    if beta == 0.0 or m == 0:
                        val += (v - u) * math.exp(-beta * float(c))
                        continue
                    bm = beta * float(m)
                    val += (
                        math.exp(-beta * (float(m) * u + float(c)))
                        - math.exp(-beta * (float(m) * v + float(c)))
                    ) / bm
                k[i, j] += abs(float(br.slope)) * val / fw
    return k


def _shifted_step(k):
    """The dense shifted power step u -> (k^T + I) u."""
    kt = k.T + np.eye(k.shape[0])
    return lambda u: kt @ u


def _psi_kinked(system):
    """Energy 3x on [0, 1/3] and 1 on [1/3, 1]: the kink cuts bins."""
    third = F(1, 3)
    pot = dyn.PiecewiseAffine(
        pieces=(
            (RationalInterval(F(0), third), F(3), F(0)),
            (RationalInterval(third, F(1), False, True), F(0), F(1)),
        ),
        allow_negative=True,
    )
    return th.PotentialFunction(system, pot)


class TestRuelleUlam:
    @pytest.mark.parametrize("bins", [7, 64, 256])
    @pytest.mark.parametrize("energy", ["x", "kinked"])
    @pytest.mark.parametrize("spec", ["tent_std", "tent_half", "doubling", "halving"])
    def test_matches_per_beta_loop(self, spec, energy, bins):
        s = specfile.bundled(spec)
        h = tr.TransferHandle.create(s.system, s.potential)
        psi = _psi_affine(s.system, 1, 0) if energy == "x" else _psi_kinked(s.system)
        ops = th._RuelleUlam(h, psi, bins)
        for beta in (0.0, 0.7, 3.27):
            ref = _bare_ruelle_ulam(h, psi, beta, bins)
            got = ops.dense(beta)
            assert got.shape == (bins, bins)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)
            if beta == 0.0:
                # exp(0) is exact, so only a change in the sums could differ
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("bins", [7, 64, 256])
    @pytest.mark.parametrize("energy", ["x", "kinked"])
    @pytest.mark.parametrize("spec", ["tent_std", "tent_half", "doubling", "halving"])
    def test_sparse_step_is_the_transposed_product(self, spec, energy, bins):
        # k and its transpose share the Perron root, so only the vector can
        # tell a transposed product apart; these k are not symmetric
        s = specfile.bundled(spec)
        h = tr.TransferHandle.create(s.system, s.potential)
        psi = _psi_affine(s.system, 1, 0) if energy == "x" else _psi_kinked(s.system)
        ops = th._RuelleUlam(h, psi, bins)
        rng = np.random.default_rng(bins)
        for beta in (0.0, 0.7, 3.27):
            k = ops.dense(beta)
            assert not np.allclose(k, k.T)
            u = rng.uniform(0.5, 1.5, bins)
            np.testing.assert_allclose(ops.step(beta)(u), k.T @ u + u, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("bins", [7, 64])
    @pytest.mark.parametrize("spec", ["tent_std", "tent_half", "doubling", "halving"])
    def test_beta_zero_is_the_exact_bin_matrix_of_the_unit_weight(self, spec, bins):
        # at beta = 0 the weight exp(-beta*energy) is 1, so k is the float of
        # transfer.ulam_matrix for the unit weight, the exact reference
        s = specfile.bundled(spec)
        unit = tr.TransferHandle.create(s.system, dyn.PiecewiseAffine(((UNIT, 0, 1),)))
        ops = th._RuelleUlam(unit, _psi_kinked(s.system), bins)
        exact = np.array(tr.ulam_matrix(unit, bins), dtype=float)
        np.testing.assert_allclose(ops.dense(0.0), exact, rtol=1e-12, atol=1e-15)

    def test_overflow_names_beta(self, tent_handle):
        ops = th._RuelleUlam(tent_handle, _psi_affine(tent_handle.system, 1, 0), 64)
        with pytest.raises(ValidationError, match=r"beta=-1000\.0"):
            ops.dense(-1000.0)
        assert np.isfinite(ops.dense(-700.0)).all()

    def test_graph_overflow_names_beta(self):
        s = specfile.bundled("fullshift2")
        ops = th._RuelleGraph(s.system, th.PotentialFunction.const(s.system, 1))
        assert np.array_equal(ops.dense(0.0), np.full((1, 1), 2.0))
        with pytest.raises(ValidationError, match=r"beta=-1000\.0"):
            ops.dense(-1000.0)

    def test_a_zero_vector_is_refused_on_both_backends(self, tent_handle):
        s = specfile.bundled("loops2")
        ulam = th._RuelleUlam(tent_handle, _psi_affine(tent_handle.system, 1, 0), 8)
        graph = th._RuelleGraph(s.system, th.PotentialFunction.const(s.system, 1))
        for ops, n in ((ulam, 8), (graph, 2)):
            with pytest.raises(NoSolution, match="^eigenvector collapsed to zero$"):
                ops.eigenmeasure(np.zeros(n), 1.0)

    def test_graph_atoms_sit_on_the_edges(self):
        # mass(Z(e)) is the source vertex's entry times exp(-beta * energy(e))
        s = specfile.bundled("loops2")
        energy = dyn.GraphPotential((("a", F(1)), ("b", F(2))), allow_negative=True)
        ops = th._RuelleGraph(s.system, th.PotentialFunction(s.system, energy))
        mu = ops.eigenmeasure(np.array([1.0, 3.0]), 0.5)
        a, b = F(1.0) * F(math.exp(-0.5)), F(3.0) * F(math.exp(-1.0))
        assert [(str(p), m) for p, m in mu.atoms] == [("a@u", a / (a + b)), ("b@v", b / (a + b))]

    def test_perron_cap_raises(self):
        step = _shifted_step(np.diag([2.0, 1.0]))
        cold = np.full(2, 0.5)
        with pytest.raises(NoSolution, match="did not converge in 5 steps"):
            th._perron(step, cold, iters=5)
        r, vec = th._perron(step, cold)[:2]
        assert abs(r - 2.0) <= 1e-12 and vec[0] > 1 - 1e-9
        # a warm start from the converged vector still needs a second step
        # to confirm the root, so a capped warm run raises too
        with pytest.raises(NoSolution, match="did not converge in 1 steps"):
            th._perron(step, vec, iters=1)
        assert abs(th._perron(step, vec)[0] - r) <= 1e-12

    def test_perron_cap_raises_warm_on_the_sparse_step(self, tent_handle):
        ops = th._RuelleUlam(tent_handle, _psi_affine(tent_handle.system, 1, 0), 64)
        vec = ops.perron(1.0).vec
        with pytest.raises(NoSolution, match="did not converge in 3 steps"):
            th._perron(ops.step(1.1), vec, iters=3)

    def test_perron_non_finite_raises(self):
        with pytest.raises(NoSolution, match="finite"):
            th._perron(_shifted_step(np.array([[np.inf]])), np.ones(1))
        # warm-started: the vector of a finite operator, then a step that overflows
        vec = th._perron(_shifted_step(np.diag([2.0, 1.0])), np.full(2, 0.5)).vec
        with pytest.raises(NoSolution, match="finite"):
            th._perron(_shifted_step(np.diag([np.inf, 1.0])), vec)


class TestPerronBounds:
    """The Collatz-Wielandt bounds of ``_perron`` and the early exit they allow."""

    @pytest.mark.parametrize("diag", [(1.0, 5.0), (0.5, 5.0)])
    def test_no_early_exit_where_u_has_a_zero(self, diag):
        # rho(k) is 5, but u = (1, 0) never moves: over its support the ratio
        # reads rho = diag[0], which for (0.5, 5) would be a proved r < 1
        step = _shifted_step(np.diag(diag))
        u = np.array([1.0, 0.0])
        with pytest.raises(NoSolution, match="did not converge in 1 steps"):
            th._perron(step, u, iters=1, decide=True)
        root = th._perron(step, u, decide=True)
        assert (root.r, root.lower, root.upper, root.steps) == (diag[0], diag[0], math.inf, 2)
        assert root.sign() == 0

    def test_a_non_finite_step_raises_before_any_decision(self):
        # every entry is finite and their ratios prove r > 1, but the sum overflows
        big = _shifted_step(np.diag([1e308, 1e308]))
        assert th._cw_bounds(big(np.ones(2)), np.ones(2))[0] > 1.0
        with pytest.raises(NoSolution, match="finite"), np.errstate(over="ignore"):
            th._perron(big, np.ones(2), decide=True)
        with pytest.raises(NoSolution, match="finite"):
            th._perron(_shifted_step(np.array([[np.inf]])), np.ones(1), decide=True)

    def test_an_early_exit_is_past_the_band_on_the_converged_side(self):
        step = _shifted_step(np.array([[0.5, 0.25], [0.125, 0.75]]))
        u = np.full(2, 0.5)
        full, early = th._perron(step, u), th._perron(step, u, decide=True)
        assert early.steps < full.steps
        assert early.lower <= full.r <= early.upper and early.upper < 1 - th._SIGN_BAND
        assert early.r < 1 - 1e-10 and early.sign() == -1

    def test_unmoved_entries_are_cut_from_the_lower_bound(self):
        # bin 0 maps nowhere (its row of k^T is 0), bin 1 only receives from
        # bin 0, and bins 2, 3 carry the root 1.5 of their block
        k = np.zeros((4, 4))
        k[0, 1] = 1.0
        k[2:, 2:] = [[1.0, 0.5], [0.5, 1.0]]
        u = np.array([1e-9, 1e-6, 0.5, 0.5])
        root = th._perron(_shifted_step(k), u)
        assert th._cw_bounds(_shifted_step(k)(root.vec), root.vec)[0] == 0.0
        assert abs(root.lower - 1.5) <= 1e-12
        assert root.sign() == 1

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), rho=st.floats(0.5, 1.5))
    def test_the_bounds_of_each_step_bracket_the_converged_root(self, n, seed, rho):
        rng = np.random.default_rng(seed)
        k = rng.uniform(0.01, 1.0, (n, n))
        k *= rho / max(abs(np.linalg.eigvals(k)))
        step = _shifted_step(k)
        start = rng.uniform(0.1, 1.0, n)
        start /= start.sum()
        root = th._perron(step, start)
        slack = 1e-12 * max(1.0, root.r)
        u = start
        for _ in range(root.steps):
            w = step(u)
            lower, upper = th._cw_bounds(w, u)
            assert lower - slack <= root.r <= upper + slack
            u = w / w.sum()
        early = th._perron(step, start, decide=True)
        if early.steps < root.steps:
            assert abs(early.r - 1) > 1e-10 and (early.r - 1) * (root.r - 1) > 0


def _ulam_quad_points(mu, pts):
    """The pts-point midpoint rule in every bin of nonzero density."""
    w = (mu.hi - mu.lo) / mu.bins
    for k in range(mu.bins):
        d = mu.densities[k]
        if d == 0:
            continue
        for i in range(pts):
            x = mu.lo + k * w + w * (2 * i + 1) / (2 * pts)
            yield x, d * w / pts


def _int_ulam_grid(mu, g):
    """Exact integral of a grid function against a bin-density measure."""
    w = (mu.hi - mu.lo) / mu.bins
    total = F(0)
    for (u, v), (c0, c1, c2) in zip(zip(g.nodes, g.nodes[1:]), g.cells):
        u_, v_ = max(u, mu.lo), min(v, mu.hi)
        for k in range(mu.bins):
            a_ = max(u_, mu.lo + k * w)
            b_ = min(v_, mu.lo + (k + 1) * w)
            if b_ > a_:
                anti = [c0 * x + c1 * x * x / 2 + c2 * x * x * x / 3 for x in (a_, b_)]
                total += mu.densities[k] * (anti[1] - anti[0])
    return total


def _bare_integrate(mu, f, pts):
    """The state integral before point tables: f evaluated afresh at every point."""
    if isinstance(mu, tr.AtomicMeasure):
        return math.fsum(float(m) * float(f(x)) for x, m in mu.atoms)
    return math.fsum(float(m) * float(f(x)) for x, m in _ulam_quad_points(mu, pts))


def _bare_parts(m):
    def fn(f):
        return (lambda x: 1.0) if f is None else (lambda x: float(f.value(x)))

    if isinstance(m, th.TwistedMonomial):
        return (lambda x: m.left_value(x).real, m.mon.up, m.mon.down,
                lambda x: m.right_value(x).real)
    return fn(m.left), m.up, m.down, fn(m.right)


def _bare_diag(system, pot, p1, p2):
    """Diagonal expectation of a monomial product, recomputing every exact quantity."""
    a, n, m, b = p1
    c, k, l, d = p2

    def lk(g, k):
        if k == 0:
            return g

        def val(y):
            total = 0.0
            for x, w in dyn.preimages(system, pot, y, k):
                if w != 0:
                    total += float(w) * g(x)
            return total

        return val

    def alphak(g, l):
        if l == 0:
            return g

        def val(x):
            try:
                z = dyn.orbit(system, x, l)[-1]
            except OutOfDomain:
                return 0.0
            return g(z)

        return val

    def bc(x):
        return b(x) * c(x)

    if m >= k:
        up, down, mid = n, m - k + l, alphak(lk(bc, k), l)
    else:
        up, down, mid = n + k - m, l, alphak(lk(bc, m), n)
    if up != down:
        return None

    def g(x):
        w = dyn.cocycle_or_none(system, pot, up, x)
        if w is None or w == 0:
            return 0.0
        return float(w) * a(x) * mid(x) * d(x)

    return g


def _bare_pair(handle, mu, beta, psi, m1, m2, pts):
    """Both sides of the exchange identity, with no table shared between them."""

    def phi(x1, x2):
        g = _bare_diag(handle.system, handle.potential, _bare_parts(x1), _bare_parts(x2))
        return 0.0 if g is None else _bare_integrate(mu, g, pts)

    return phi(m1, th.sigma_action(m2, complex(0.0, beta), psi)), phi(m2, m1)


def _bare_conformal_rhs(handle, psi, beta, mu, a):
    """Right side of an eigen-measure row; the left side is an exact grid integral."""
    pot = handle.potential
    cval = psi.carrier.constant_value()
    if cval is not None:
        carrier = th._single_component(handle.system)
        prod = th._grid_product(th._grid(a, carrier), th._grid(pot, carrier))
        return math.exp(beta * float(cval)) * float(_int_ulam_grid(mu, prod))
    return _bare_integrate(
        mu,
        lambda x: float(a.value(x)) * _psi_exp(psi, beta, x) * float(pot.value_or_zero(x)),
        4,
    )


def _bare_core(handle, mu, beta, psi, a, b, n, pts):
    system, pot = handle.system, handle.potential

    def lhs_fn(x):
        w = dyn.cocycle_or_none(system, pot, n, x)
        if w is None:
            return 0.0
        return float(w) * float(a.value(x)) * float(b.value(x))

    def rhs_fn(y):
        total = 0.0
        for x, w in dyn.preimages(system, pot, y, n):
            if w == 0:
                continue
            damp = math.exp(-beta * float(psi.birkhoff(x, n)))
            total += float(w) * damp * float(a.value(x)) * float(b.value(x))
        return total

    return abs(_bare_integrate(mu, lhs_fn, pts) - _bare_integrate(mu, rhs_fn, pts))


def _spec_system(name):
    """A bundled spec, or ``tent_left``: the tent's left branch alone, so orbits leave."""
    if name != "tent_left":
        return specfile.bundled(name)
    doc = specfile.serialize_spec(specfile.bundled("tent_std"))
    doc["branches"] = doc["branches"][:1]
    return specfile.parse_spec(doc)


def _random_ulam(bins, seed):
    """Uneven rational densities, some of them zero."""
    rng = random.Random(seed)
    dens = [F(rng.randrange(0, 5), rng.randrange(1, 4)) for _ in range(bins)]
    dens[0] += 1
    return tr.UlamMeasure(F(0), F(1), tuple(dens))


class TestStateTables:
    """Point tables change no float: every row equals the table-free reference."""

    @pytest.mark.parametrize("bins", [7, 64, 256])
    @pytest.mark.parametrize("energy", ["one", "x"])
    @pytest.mark.parametrize("spec", ["tent_std", "tent_half", "doubling", "halving", "tent_left"])
    def test_matches_per_point_path(self, spec, energy, bins, monkeypatch):
        s = _spec_system(spec)
        h = tr.TransferHandle.create(s.system, s.potential)
        if energy == "x":
            psi = _psi_affine(s.system, 1, 0)
        else:
            psi = th.PotentialFunction.const(s.system, 1)
        pairs = []
        kms_pair = th._kms_pair

        def spy(tab, m1, m2, pts):
            pairs.append((m1, m2))
            return kms_pair(tab, m1, m2, pts)

        monkeypatch.setattr(th, "_kms_pair", spy)
        beta = 0.7
        # (seed, pts); the reference pays for every point again, so finer grids run fewer
        runs = {7: [(3, 1), (11, 1), (3, 4), (11, 4)], 64: [(3, 1), (11, 4)], 256: [(11, 1)]}
        for seed, pts in runs[bins]:
            mu = _random_ulam(bins, seed)
            pairs.clear()
            # 12 pairs reach the transposed (2, 1) powers, so one table serves
            # orbits and fibres of two depths
            report = th.kms_battery(h, mu, beta, psi, count=12, seed=seed, pts=pts)
            assert len(pairs) == len(report.rows) == 12
            for row, (m1, m2) in zip(report.rows, pairs):
                lhs, rhs = _bare_pair(h, mu, beta, psi, m1, m2, pts)
                assert (row.lhs, row.rhs, row.residual) == (lhs, rhs, abs(lhs - rhs))
            fns = th._battery_functions(h, random.Random(seed), 6)
            got = th.conformal_residual(h, psi, beta, mu, fns)
            for row, a in zip(got.rows, fns):
                assert row.rhs == _bare_conformal_rhs(h, psi, beta, mu, a)
                assert row.residual == abs(row.lhs - row.rhs)
            for n in (0, 1, 2):
                a, b = fns[1], fns[2 + n]
                assert th.core_kms_check(h, mu, beta, psi, a, b, n, pts) == _bare_core(
                    h, mu, beta, psi, a, b, n, pts
                )

    def test_atomic_measure_matches(self, tent_handle, psi_one):
        basis = rep.OrbitBasis(tent_handle, 1, 4)
        mu = tr.AtomicMeasure(tuple((nd.point, F(1, len(basis.nodes))) for nd in basis.nodes))
        psi = _psi_affine(tent_handle.system, 1, 0)
        hat = dyn.PiecewiseAffine.hat(F(1, 4), F(1, 4), 1)
        m1 = rep.Monomial(hat, 1, 1, dyn.PiecewiseAffine.affine_on(UNIT, 1, 0))
        m2 = rep.Monomial(None, 2, 2, hat)
        for e in (psi_one, psi):
            assert th._kms_pair(th._StateTable(tent_handle, mu, e, 0.7), m1, m2, 1) == _bare_pair(
                tent_handle, mu, 0.7, e, m1, m2, 1
            )

    @pytest.mark.parametrize("n", [1, 2])
    def test_fibres_of_no_ids_at_a_depth_never_filled(self, tent_handle, psi_one, n):
        # a read of no ids runs no fill, and the depth's flat runs were read as filled
        tab = th._StateTable(tent_handle, tr.AtomicMeasure(((F(1, 3), 1),)), psi_one, 0.7)
        rows, xs, ws = tab.fibres(n, np.empty(0, np.intp))
        assert (len(rows), len(xs), len(ws)) == (0, 0, 0)

    def test_no_table_outlives_its_call(self, tent_handle, monkeypatch):
        made = []

        class Recorded(th._StateTable):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(weakref.ref(self))

        monkeypatch.setattr(th, "_StateTable", Recorded)
        psi = _psi_affine(tent_handle.system, 1, 0)
        fns = th._battery_functions(tent_handle, random.Random(0), 6)
        first, second = _random_ulam(16, 1), _random_ulam(16, 2)
        th.kms_battery(tent_handle, first, 0.7, psi, count=8, seed=1)
        th.conformal_residual(tent_handle, psi, 0.7, first, fns)
        got = th.kms_battery(tent_handle, second, 0.7, psi, count=8, seed=1)
        gc.collect()
        assert len(made) == 3 and all(ref() is None for ref in made)
        # the second measure's rows owe nothing to the first measure's tables
        fresh = th.kms_battery(tent_handle, second, 0.7, psi, count=8, seed=1)
        assert got == fresh
        assert [r.lhs for r in got.rows] != [
            r.lhs for r in th.kms_battery(tent_handle, first, 0.7, psi, count=8, seed=1).rows
        ]


def _const_fn(tab, vals):
    """An id function with the given float at each point of the table, by id."""
    col = np.full(len(tab.points), np.nan)
    for i, v in vals.items():
        col[i] = v
    return lambda ids: col[ids]


class TestColumnarFloatOrder:
    """Each columnar op keeps the float operations, in the order, of a per-point loop."""

    def test_fibre_sum_adds_left_to_right_in_fibre_order(self, tent_handle, psi_one):
        # four preimages of weight 1/4 each; terms 1e16, 1, -1e16, 1 sum to 1.0
        # from the left and to 0.0 from the right
        mu = tr.AtomicMeasure(((F(1, 3), 1),))
        tab = th._StateTable(tent_handle, mu, psi_one, 0.7)
        ids, _ = tab.quad(1)
        rows, xs, ws = tab.fibres(2, ids)
        assert rows.tolist() == [0] * 4 and ws.tolist() == [0.25] * 4
        g = _const_fn(tab, dict(zip(xs.tolist(), (4e16, 4.0, -4e16, 4.0))))
        total = 0.0
        for x, w in zip(xs.tolist(), ws.tolist()):
            total += w * g(np.array([x]))[0]
        backwards = 0.0
        for x, w in reversed(list(zip(xs.tolist(), ws.tolist()))):
            backwards += w * g(np.array([x]))[0]
        assert (total, backwards) == (1.0, 0.0)
        assert th._lk(tab, g, 2)(ids).tolist() == [total]

    def test_product_is_w_times_a_times_mid_times_d(self):
        # a weight of 3/10 is no power of two, so every association rounds on its own
        s = specfile.bundled("doubling")
        h = tr.TransferHandle.create(s.system, dyn.PiecewiseAffine(((UNIT, 0, F(3, 10)),)))
        atoms = tuple((F(k, 67), 1) for k in range(1, 65))
        tab = th._StateTable(h, tr.AtomicMeasure(atoms), _psi_affine(s.system, 1, 0), 0.7)
        ids, _ = tab.quad(1)
        rng = random.Random(5)
        a, b, c, d = (
            _const_fn(tab, {i: rng.uniform(0.1, 10.0) for i in ids.tolist()}) for _ in range(4)
        )
        # (a T T* b)(c d): up = down = 1 with mid = b * c, the weight being rho_1
        g = th._g_diag_product(tab, (a, 1, 1, b), (c, 0, 0, d))
        w = 0.3
        assert tab.cocycles(1, ids).tolist() == [w] * len(ids)
        mid = b(ids) * c(ids)
        av, dv = a(ids), d(ids)
        want = [w * x * y * z for x, y, z in zip(av.tolist(), mid.tolist(), dv.tolist())]
        assert g(ids).tolist() == want
        others = [
            w * (av * (mid * dv)), (w * av) * (mid * dv), w * ((av * mid) * dv), dv * mid * av * w,
        ]
        assert all(o.tolist() != want for o in others)

    def test_positive_zero_where_the_orbit_leaves(self, psi_one):
        # the tent's left branch alone: points right of 1/2 leave after one step
        s = _spec_system("tent_left")
        h = tr.TransferHandle.create(s.system, s.potential)
        mu = tr.AtomicMeasure(((F(1, 8), 1), (F(3, 4), 1), (F(5, 8), 1)))
        tab = th._StateTable(h, mu, th.PotentialFunction.const(s.system, 1), 0.7)
        ids, _ = tab.quad(1)
        assert tab.orbit_ends(1, ids).tolist()[1:] == [-1, -1]
        got = th._alphak(tab, lambda z: np.full(len(z), -1.0), 1)(ids).tolist()
        assert got[0] == -1.0
        assert [math.copysign(1.0, v) for v in got[1:]] == [1.0, 1.0] and got[1:] == [0.0, 0.0]

    def test_positive_zero_where_the_cocycle_is_zero_or_missing(self, psi_one):
        # tent_half weighs (1/2, 1] with zero; the left branch alone leaves 3/4 out.
        # With a = b = c = -1 and d = 1, the product left unmasked would read
        # -0.0 or NaN there
        neg = lambda z: np.full(len(z), -1.0)  # noqa: E731
        pos = lambda z: np.full(len(z), 1.0)  # noqa: E731
        for spec, dead in (("tent_half", 0.0), ("tent_left", math.nan)):
            s = _spec_system(spec)
            h = tr.TransferHandle.create(s.system, s.potential)
            mu = tr.AtomicMeasure(((F(1, 8), 1), (F(3, 4), 1)))
            tab = th._StateTable(h, mu, th.PotentialFunction.const(s.system, 1), 0.7)
            ids, _ = tab.quad(1)
            w = tab.cocycles(1, ids).tolist()
            assert w[0] > 0 and repr(w[1]) == repr(dead)
            got = th._g_diag_product(tab, (neg, 1, 1, neg), (neg, 0, 0, pos))(ids).tolist()
            assert got[0] == -w[0] and got[1] == 0.0 and math.copysign(1.0, got[1]) == 1.0


class TestEnergyColumn:
    def test_nan_where_the_sum_raised(self):
        # the tent's left branch alone: 3/4 leaves after one step, so S_2 raises there
        s = _spec_system("tent_left")
        h = tr.TransferHandle.create(s.system, s.potential)
        psi = _psi_affine(s.system, 1, 0)
        mu = tr.AtomicMeasure(((F(1, 8), 1), (F(3, 4), 1)))
        tab = th._StateTable(h, mu, psi, 0.7)
        ids, _ = tab.quad(1)
        sums = tab.energy_sums(psi, 2, ids).tolist()
        assert sums[0] == float(psi.birkhoff(F(1, 8), 2)) and math.isnan(sums[1])
        with pytest.raises(OutOfDomain):
            psi.birkhoff(F(3, 4), 2)


class TestOverflow:
    def test_each_state_exponential_raises_the_overflow_error(self, tent_handle):
        # exp(beta*energy), exp(-i lam S_n) and exp(-beta*S_n) each overflow at |beta| = 800
        psi = _psi_affine(tent_handle.system, 1, 0)
        mu = _random_ulam(16, 1)
        a = dyn.PiecewiseAffine.hat(F(1, 2), F(1, 2), 1)
        message = r"^exp\(-beta\*energy\) overflows at beta=800.0; the state integrals are not finite$"
        with pytest.raises(ValidationError, match=message):
            th.conformal_residual(tent_handle, psi, 800.0, mu, [a])
        with pytest.raises(ValidationError, match=message):
            th.kms_battery(tent_handle, mu, 800.0, psi, count=8, seed=1)
        with pytest.raises(ValidationError, match=message.replace("800.0", "-800.0")):
            th.core_kms_check(tent_handle, mu, -800.0, psi, a, a, 1)


class TestStateTableWork:
    def test_each_exact_quantity_once_per_point_and_depth(self, tent_handle, monkeypatch):
        # every column is filled by batch calls, and no id is filled twice for one column
        filled = {}
        read = th._StateTable._read

        def spy(self, key, ids, compute, *rest, **kwargs):
            def counted(todo):
                filled.setdefault(key, []).extend(todo.tolist())
                return compute(todo)

            return read(self, key, ids, counted, *rest, **kwargs)

        monkeypatch.setattr(th._StateTable, "_read", spy)
        psi = _psi_affine(tent_handle.system, 1, 0)
        report = th.kms_battery(tent_handle, _random_ulam(64, 3), 0.7, psi, count=12, seed=3, pts=4)
        assert len(report.rows) == 12
        kinds = {key[0] for key in filled if isinstance(key, tuple)}
        assert {"orbit", "cocycle", "fibre", "energy"} <= kinds
        for key, ids in filled.items():
            assert max(Counter(ids).values()) == 1, key


class TestSolveConformal:
    def test_tent_recovers_log_two_and_lebesgue(self, tent_handle, psi_one):
        t0 = time.time()
        cand = th.solve_conformal(tent_handle, psi_one, bins=1024, bracket=(0.1, 3.0))
        elapsed = time.time() - t0
        assert abs(cand.beta - LN2) <= 1e-8
        assert cand.mu.total_mass() == 1
        tv = tv_distance(cand.mu, uniform_ulam(tent_handle, 1024))
        assert tv <= F(5, 1024) and float(tv) <= 1e-9
        assert elapsed < 10.0

    def test_tv_bound_decreases_with_bins(self, tent_handle, psi_one):
        bounds = []
        for m in (64, 256, 1024):
            cand = th.solve_conformal(tent_handle, psi_one, bins=m, bracket=(0.1, 3.0))
            tv = tv_distance(cand.mu, uniform_ulam(tent_handle, m))
            assert tv <= F(5, m)
            bounds.append(F(5, m))
        assert bounds[0] > bounds[1] > bounds[2]

    def test_candidate_satisfies_residual_check(self, tent_handle, psi_one):
        cand = th.solve_conformal(tent_handle, psi_one, bins=256, bracket=(0.1, 3.0))
        fns = [dyn.PiecewiseAffine.hat(F(1, 2), F(1, 2), 1), dyn.PiecewiseAffine.const_on(UNIT, 1)]
        r = th.conformal_residual(tent_handle, psi_one, cand.beta, cand.mu, fns)
        assert r.max_residual <= 1e-9

    def test_nonconstant_energy_bisection(self, tent_handle):
        psi = _psi_affine(tent_handle.system, 1, 0)
        cand = th.solve_conformal(tent_handle, psi, bins=256, bracket=(0.5, 6.0))
        assert abs(cand.beta - 3.2668447624891996) <= 1e-9
        fns = [
            dyn.PiecewiseAffine.const_on(UNIT, 1),
            dyn.PiecewiseAffine.hat(F(1, 2), F(1, 2), 1),
        ]
        r = th.conformal_residual(tent_handle, psi, cand.beta, cand.mu, fns)
        assert r.max_residual <= F(5, 256)

    def test_doubling_shifted_energy(self):
        s = specfile.bundled("doubling")
        h = tr.TransferHandle.create(s.system, s.potential)
        cand = th.solve_conformal(h, _psi_affine(s.system, 1, F(1, 2)), bins=256)
        assert abs(cand.beta - 0.7641579239512795) <= 1e-9

    def test_the_last_call_converges_where_the_bracket_width_stops(self):
        # energies near 1e6 make r(beta) so steep that the bracket shrinks
        # to rounding width while |r - 1| is still past the early-exit band
        s = specfile.parse_spec({
            "name": "golden_steep", "backend": "graph",
            "vertices": ["a", "b"],
            "edges": [{"name": "aa", "src": "a", "rng": "a"},
                      {"name": "ab", "src": "a", "rng": "b"},
                      {"name": "ba", "src": "b", "rng": "a"}],
            "weights": {"aa": "1", "ab": "1", "ba": "1"},
            "psi_weights": {"aa": "3000000", "ab": "6000000", "ba": "4500000"},
        })
        h = tr.TransferHandle.create(s.system, s.potential)
        psi = th.PotentialFunction(s.system, s.psi)
        cand = th.solve_conformal(h, psi, bracket=(1e-8, 3e-7))
        ops = th._RuelleGraph(s.system, psi)
        root = ops.perron(cand.beta)
        assert abs(root.r - 1) > th._SIGN_BAND and root.sign() != 0
        assert cand.mu == ops.eigenmeasure(root.vec, cand.beta)
        assert cand.beta_lo <= cand.beta <= cand.beta_hi

    def test_geometry_built_once_and_no_beta_repeated(self, tent_handle, monkeypatch):
        builds, betas = [], []

        class Counting(th._RuelleUlam):
            def __init__(self, handle, psi, bins):
                builds.append(bins)
                super().__init__(handle, psi, bins)

            def values(self, beta):
                betas.append(beta)
                return super().values(beta)

        monkeypatch.setattr(th, "_RuelleUlam", Counting)
        psi = _psi_affine(tent_handle.system, 1, 0)
        cand = th.solve_conformal(tent_handle, psi, bins=64, bracket=(0.5, 6.0))
        assert builds == [64]
        assert betas[:2] == [0.5, 6.0] and betas[-1] == cand.beta
        assert len(set(betas)) == len(betas)

    def test_interval_solve_builds_no_dense_matrix(self, tent_handle, psi_one, monkeypatch):
        bins = 64
        zeros = np.zeros

        def refuse(*args, **kwargs):
            raise AssertionError("dense bin matrix built")

        def small_zeros(shape, *args, **kwargs):
            assert np.prod(shape) < bins * bins, "dense bin matrix built"
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(th._RuelleUlam, "dense", refuse)
        monkeypatch.setattr(np, "eye", refuse)
        monkeypatch.setattr(np, "zeros", small_zeros)
        psi = _psi_affine(tent_handle.system, 1, 0)
        for energy in (psi, psi_one):
            th.solve_conformal(tent_handle, energy, bins=bins, bracket=(0.5, 6.0))

    def test_overflowing_bracket_raises(self, tent_handle, psi_one):
        psi = _psi_affine(tent_handle.system, 1, 0)
        for bracket in ((-800.0, -700.0), (-1000.0, 6.0)):
            with pytest.raises(ValidationError, match="overflows"):
                th.solve_conformal(tent_handle, psi, bins=64, bracket=bracket)
        # the constant-energy shortcut scales one root and must refuse too,
        # also where exp itself is finite but the scaled root is not
        for bracket in ((-1000.0, 6.0), (-709.5, 6.0)):
            with pytest.raises(ValidationError, match="overflows"):
                th.solve_conformal(tent_handle, psi_one, bins=64, bracket=bracket)

    def test_graph_overflowing_bracket_raises(self):
        s = specfile.bundled("fullshift2")
        h = tr.TransferHandle.create(s.system, s.potential)
        psi = th.PotentialFunction.const(s.system, 1)
        with pytest.raises(ValidationError, match=r"beta=-1000\.0"):
            th.solve_conformal(h, psi, bracket=(-1000.0, 6.0))

    def test_graph_single_loop_freezes_at_zero(self, loop1):
        s, h = loop1
        psi = th.PotentialFunction.const(s.system, 1)
        cand = th.solve_conformal(h, psi, bracket=(-1.0, 1.0))
        assert abs(cand.beta) <= 1e-9
        ((p, m),) = cand.mu.atoms
        assert p.word == ("e",) and m == 1

    def test_graph_full_shift(self):
        s = specfile.bundled("fullshift2")
        h = tr.TransferHandle.create(s.system, s.potential)
        psi = th.PotentialFunction.const(s.system, 1)
        cand = th.solve_conformal(h, psi, bracket=(0.1, 3.0))
        assert abs(cand.beta - LN2) <= 1e-8
        assert sorted(p.word[0] for p, _ in cand.mu.atoms) == ["e0", "e1"]
        assert all(m == F(1, 2) for _, m in cand.mu.atoms)

    def test_zero_energy_flat_root_reported(self, tent_handle):
        psi0 = th.PotentialFunction.const(tent_handle.system, 0)
        with pytest.raises(NoSolution) as exc:
            th.solve_conformal(tent_handle, psi0, bins=64, bracket=(0.1, 3.0))
        data = exc.value.data
        assert data["flat"] is True
        # the bare fiber-sum operator of the tent has two branches, so the
        # temperature-independent root sits at two, not at one
        assert abs(data["r_lo"] - 2.0) <= 1e-9

    def test_one_sided_bracket_reports_endpoints(self, tent_handle, psi_one):
        with pytest.raises(NoSolution) as exc:
            th.solve_conformal(tent_handle, psi_one, bins=64, bracket=(1.0, 3.0))
        data = exc.value.data
        assert data["flat"] is False
        assert data["r_lo"] < 1 and data["r_hi"] < 1

    def test_flat_root_at_one_returns_degenerate_candidate(self):
        ident = dyn.PartialSystem(
            dyn.IntervalSystem(
                IntervalSet.of(RationalInterval(0, 1)), [dyn.AffineBranch(UNIT, F(1), F(0))]
            ),
        )
        pot = dyn.PiecewiseAffine(pieces=((UNIT, F(0), F(1)),))
        h = tr.TransferHandle.create(ident, pot)
        psi0 = th.PotentialFunction.const(ident, 0)
        cand = th.solve_conformal(h, psi0, bins=32, bracket=(0.1, 3.0))
        assert "degenerate" in cand.note
        assert cand.beta == pytest.approx(1.55)
        assert cand.mu.total_mass() == 1

    def test_bad_bracket_rejected(self, tent_handle, psi_one):
        with pytest.raises(ValidationError):
            th.solve_conformal(tent_handle, psi_one, bracket=(2.0, 1.0))

    @pytest.mark.parametrize(
        "bracket, shown",
        [((0.5, math.inf), "(0.5, inf)"), ((-math.inf, 1.0), "(-inf, 1.0)"),
         ((math.nan, 1.0), "(nan, 1.0)")],
    )
    def test_non_finite_bracket_rejected(self, tent_handle, psi_one, bracket, shown):
        # (0.5, inf) used to return beta = inf in place of log 2
        with pytest.raises(ValidationError, match=re.escape(f"bracket {shown} needs finite ends")):
            th.solve_conformal(tent_handle, psi_one, bracket=bracket)

    def test_candidate_mass_enforced(self):
        lopsided = tr.UlamMeasure(F(0), F(1), (F(3),) * 4)
        with pytest.raises(ValidationError):
            th.KMSCandidate(LN2, lopsided)


class TestKmsChecks:
    def test_battery_at_the_conformal_point(self, tent_handle, psi_one):
        mu = uniform_ulam(tent_handle, 256)
        r = th.kms_battery(tent_handle, mu, LN2, psi_one, count=20, seed=7)
        assert len(r.rows) == 20
        assert r.max_residual <= 1e-5 + 10 / 256
        off = [row for row in r.rows if row.label.endswith("off")]
        assert len(off) == 5
        assert all(row.lhs == 0.0 and row.rhs == 0.0 for row in off)
        nontrivial = [row for row in r.rows if abs(row.lhs) > 1e-4]
        assert len(nontrivial) >= 6

    def test_single_pair_analytic_value(self, tent_handle, psi_one):
        # phi(a T T* . T T*) = integral of a * rho = 1/8 for this hat, and
        # the exchange identity keeps both sides there
        mu = uniform_ulam(tent_handle, 256)
        hat = dyn.PiecewiseAffine.hat(F(1, 4), F(1, 4), 1)
        m1 = rep.Monomial(hat, 1, 1, None)
        m2 = rep.Monomial(None, 1, 1, None)
        lhs, rhs = th._kms_pair(th._StateTable(tent_handle, mu, psi_one, LN2), m1, m2, 1)
        assert abs(lhs - 0.125) <= 1e-12
        assert abs(rhs - 0.125) <= 1e-12

    def test_unbalanced_pair_vanishes_on_both_sides(self, tent_handle, psi_one):
        mu = uniform_ulam(tent_handle, 64)
        m1 = rep.Monomial(dyn.PiecewiseAffine.const_on(UNIT, 1), 1, 0, None)
        lhs, rhs = th._kms_pair(th._StateTable(tent_handle, mu, psi_one, LN2), m1, m1, 1)
        assert lhs == 0.0 and rhs == 0.0

    def test_state_matches_rep_diagonal(self, tent_handle, psi_one):
        # independent route: the exact structural-expectation diagonal from
        # the matrix model, summed over an atomic measure on the tree nodes
        basis = rep.OrbitBasis(tent_handle, 1, 5)
        n = len(basis.nodes)
        mu = tr.AtomicMeasure(tuple((nd.point, F(1, n)) for nd in basis.nodes))
        mon = rep.Monomial(
            dyn.PiecewiseAffine.hat(F(1, 4), F(1, 4), 1),
            1,
            1,
            dyn.PiecewiseAffine.affine_on(UNIT, 1, 0),
        )
        unit = rep.Monomial(None, 0, 0, None)
        lhs, rhs = th._kms_pair(th._StateTable(tent_handle, mu, psi_one, 0.0), mon, unit, 1)
        expected = float(sum(F(1, n) * v for v in rep.g_values(basis, mon)))
        assert lhs == pytest.approx(expected, abs=1e-13)
        assert rhs == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("count", [0, -3])
    def test_empty_battery_refused(self, tent_handle, psi_one, count):
        mu = uniform_ulam(tent_handle, 8)
        with pytest.raises(ValidationError, match="at least one pair"):
            th.kms_battery(tent_handle, mu, LN2, psi_one, count=count)

    def test_wrong_measure_fails_loudly(self, tent_handle, psi_one):
        bad = tr.AtomicMeasure(((F(1, 4), F(1)),))
        r = th.kms_battery(tent_handle, bad, LN2, psi_one, count=20, seed=7)
        assert r.max_residual >= 0.1

    def test_beta_zero_flagged_noncertifying(self, tent_handle):
        psi0 = th.PotentialFunction.const(tent_handle.system, 0)
        mu = uniform_ulam(tent_handle, 32)
        r = th.kms_battery(tent_handle, mu, 0.0, psi0, count=8, seed=1)
        assert r.notes and "certifies nothing" in r.notes[0]

    def test_core_check_level_zero_is_trivial(self, tent_handle, psi_one):
        mu = uniform_ulam(tent_handle, 64)
        a = dyn.PiecewiseAffine.hat(F(1, 2), F(1, 4), 1)
        b = dyn.PiecewiseAffine.const_on(UNIT, 1)
        assert th.core_kms_check(tent_handle, mu, LN2, psi_one, a, b, 0) == 0.0

    def test_core_check_higher_levels(self, tent_handle, psi_one):
        mu = uniform_ulam(tent_handle, 256)
        a = dyn.PiecewiseAffine.hat(F(1, 2), F(1, 4), 1)
        b = dyn.PiecewiseAffine.const_on(UNIT, 1)
        for n in (1, 2):
            assert th.core_kms_check(tent_handle, mu, LN2, psi_one, a, b, n) <= 1e-12

    def test_core_check_detects_wrong_beta(self, tent_handle, psi_one):
        mu = uniform_ulam(tent_handle, 256)
        a = dyn.PiecewiseAffine.const_on(UNIT, 1)
        b = dyn.PiecewiseAffine.const_on(UNIT, 1)
        # lhs carries the branch weight 1/2, rhs the damped fiber sum e^-beta
        gap = th.core_kms_check(tent_handle, mu, 1.5, psi_one, a, b, 1)
        assert abs(gap - (0.5 - math.exp(-1.5))) <= 1e-12


class TestHelpers:
    def test_uniform_ulam(self, tent_handle):
        u = uniform_ulam(tent_handle, 10)
        assert u.total_mass() == 1 and u.bins == 10

    def test_tv_distance(self, tent_handle):
        u = uniform_ulam(tent_handle, 8)
        assert tv_distance(u, u) == 0
        v = tr.UlamMeasure(F(0), F(1), (F(2),) * 4 + (F(0),) * 4)
        assert tv_distance(u, v) == F(1, 2)
        with pytest.raises(ValidationError):
            tv_distance(u, uniform_ulam(tent_handle, 16))

    def test_hat_battery_respects_region(self, tent, tent_handle):
        reg = dyn.regular_set(tent.system, tent.potential).delta_reg
        fns = th.hat_battery(reg, 8)
        assert len(fns) == 8
        for f in fns:
            support = IntervalSet(iv.closure() for iv, m, c in f.pieces if (m, c) != (0, 0))
            assert support.difference(reg).is_empty

    def test_hat_battery_empty_region(self):
        assert th.hat_battery(IntervalSet.empty(), 3) == []


def _cantor_markov():
    """x -> 3x on [0, 1/3] and 3x - 2 on [2/3, 1], weight 1/2, energy 1 then 2."""

    def closed(lo, hi):
        return {"lo": lo, "hi": hi, "lo_closed": True, "hi_closed": True}

    def const(lo, hi, value):
        return {"interval": closed(lo, hi), "slope": "0", "intercept": value}

    return specfile.parse_spec(
        {
            "name": "cantor_markov",
            "backend": "interval",
            "space": [closed("0", "1")],
            "branches": [
                {"domain": closed("0", "1/3"), "slope": "3", "intercept": "0"},
                {"domain": closed("2/3", "1"), "slope": "3", "intercept": "-2"},
            ],
            "potential": {"pieces": [const("0", "1", "1/2")], "overrides": []},
            "psi": {"pieces": [const("0", "1/3", "1"), const("2/3", "1", "2")], "overrides": []},
        }
    )


class TestMarkovOracle:
    """A Markov map whose Perron root is known in closed form.

    Every point of [0, 1] has one preimage under each branch, and the energy
    is constant on each branch, so the constants are a positive eigenvector
    of the fiber sum with eigenvalue r(beta) = exp(-beta) + exp(-2 beta).
    The same holds for the bin matrix on any grid (each bin's preimages are
    the 1/3-scaled bins inside a branch), so the solver's root is
    beta = log of the golden ratio, up to its stop rule |r - 1| <= 1e-10.
    The gap (1/3, 2/3) in the domain is what lets the energy jump.
    """

    @pytest.mark.parametrize("bins", [3, 9, 27, 81, 243, 729, 8, 64, 256, 512])
    def test_beta_is_log_golden_ratio(self, bins):
        s = _cantor_markov()
        h = tr.TransferHandle.create(s.system, s.potential)
        cand = th.solve_conformal(h, th.PotentialFunction(s.system, s.psi), bins=bins)
        beta = math.log((1 + math.sqrt(5)) / 2)
        slope = math.exp(-beta) + 2 * math.exp(-2 * beta)  # |r'(beta)|
        assert abs(cand.beta - beta) <= 1e-10 / slope

    @pytest.mark.parametrize("bins", [3, 9, 27, 81, 243, 729, 8, 64, 256, 512])
    def test_the_enclosure_holds_log_golden_ratio(self, bins):
        # the bins of the gap (1/3, 2/3) map nowhere, so the lower bound is
        # taken with them cut (``_cut_lower``)
        s = _cantor_markov()
        h = tr.TransferHandle.create(s.system, s.potential)
        cand = th.solve_conformal(h, th.PotentialFunction(s.system, s.psi), bins=bins)
        assert cand.beta_lo < math.log((1 + math.sqrt(5)) / 2) < cand.beta_hi
