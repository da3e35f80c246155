import random
import re
from fractions import Fraction as F

import pytest

from xferop import dynamics as dyn
from xferop import specfile
from xferop import thermo as th
from xferop import transfer as tr
from xferop.errors import NotValidated, SupportViolation, ValidationError
from xferop.intervals import IntervalSet, Q, RationalInterval, frac_str

INTERVAL_SPECS = ["tent_std", "tent_half", "doubling", "halving"]


class TestValidate:
    def test_tent_std_is_valid_norm_one(self, tent):
        v = tr.validate(tent.system, tent.potential)
        assert v.valid and v.norm == 1 and v.defects == ()

    def test_seam_without_override_is_fatal(self, tent):
        pot = dyn.PiecewiseAffine(pieces=((RationalInterval(0, 1), 0, F(1, 2)),))
        v = tr.validate(tent.system, pot)
        assert not v.valid
        (d,) = v.defects
        assert d.kind == "collision_sum" and d.fatal
        assert (d.x0, d.y0, d.side) == (F(1, 2), F(1), -1)
        # both fold germs arrive below 1, so the limit sum doubles the weight
        assert d.required == 1 and d.found == F(1, 2)

    def test_tent_half_seam_sum_works(self):
        s = specfile.bundled("tent_half")
        v = tr.validate(s.system, s.potential)
        assert v.valid and v.norm == 1 and v.defects == ()

    def test_doubling_warns_but_passes(self):
        s = specfile.bundled("doubling")
        v = tr.validate(s.system, s.potential)
        assert v.valid and v.norm == 1
        (d,) = v.defects
        assert not d.fatal and d.kind == "one_sided_jump"
        assert (d.x0, d.y0) == (F(1, 2), F(1))
        assert v.warnings

    def test_halving_needs_taper(self):
        s = specfile.bundled("halving")
        assert tr.validate(s.system, s.potential).valid
        flat = dyn.PiecewiseAffine(pieces=((RationalInterval(0, 1), 0, 1),))
        v = tr.validate(s.system, flat)
        assert not v.valid
        assert any(d.kind == "missing_arrival" and d.x0 == 1 for d in v.defects)

    def test_graph_norms(self):
        assert tr.validate(*_sp("loop1")).norm == 1
        assert tr.validate(*_sp("loops2")).norm == 1
        assert tr.validate(*_sp("fullshift2")).norm == 2

    @pytest.mark.parametrize("w", [0, -1])
    def test_graph_refuses_a_non_positive_weight(self, w):
        system, _ = _sp("fullshift2")
        pot = dyn.GraphPotential((("e0", F(w)), ("e1", F(1))), allow_negative=True)
        with pytest.raises(ValidationError, match="^edge weight for e0 must be positive$"):
            tr.validate(system, pot)

    def test_graph_refuses_a_missing_weight(self):
        system, _ = _sp("fullshift2")
        with pytest.raises(ValidationError, match="^edge e0 has no weight$"):
            tr.validate(system, dyn.GraphPotential((("e1", F(1)),)))

    def test_graph_refuses_an_unknown_edge(self):
        system, _ = _sp("fullshift2")
        pot = dyn.GraphPotential((("e0", F(1)), ("e1", F(1)), ("zz", F(5))), allow_negative=True)
        with pytest.raises(ValidationError, match="^weight names unknown edge zz$"):
            tr.validate(system, pot)

    def test_require_valid_raises(self, tent):
        pot = dyn.PiecewiseAffine(pieces=((RationalInterval(0, 1), 0, F(1, 2)),))
        h = tr.TransferHandle.create(tent.system, pot)
        with pytest.raises(NotValidated):
            h.require_valid()


def _sp(name):
    s = specfile.bundled(name)
    return s.system, s.potential


class TestApply:
    def test_unit_is_fixed(self, tent_handle):
        one = dyn.PiecewiseAffine.const_on(RationalInterval(0, 1), 1)
        for k in range(9):
            assert tr.apply(tent_handle, one, F(k, 8)) == 1
        assert tr.apply(tent_handle, one, 1, n=5) == 1

    def test_hat_against_hand_sum(self, tent_handle, tent):
        hat = dyn.PiecewiseAffine.hat(F(1, 2), F(1, 4))
        assert tr.apply(tent_handle, hat, 1) == 1
        # generic point: both fiber weights are 1/2
        y = F(3, 8)
        x0, x1 = F(3, 16), F(13, 16)
        assert tr.apply(tent_handle, hat, y) == (hat.value(x0) + hat.value(x1)) / 2

    def test_graph_apply(self):
        s = specfile.bundled("fullshift2")
        h = tr.TransferHandle.create(s.system, s.potential)
        g = s.system.gph
        p = g.path_point(("e1",))
        ind = tr.CylinderFunction.indicator(g.path_point(("e0", "e1")))
        # only the e0-prepend lands in the cylinder
        assert tr.apply(h, ind, p) == 1
        ind1 = tr.CylinderFunction.indicator(g.path_point(("e1", "e1")))
        assert tr.apply(h, ind, p) + tr.apply(h, ind1, p) == 2

    def test_coarse_point_rejected(self):
        s = specfile.bundled("fullshift2")
        g = s.system.gph
        fine = tr.CylinderFunction.indicator(g.path_point(("e0", "e1")))
        with pytest.raises(SupportViolation):
            fine.value(g.path_point(("e0",)))

    def test_disjoint_vertex_point_evaluates(self):
        g = specfile.bundled("loops2").system.gph
        ind = tr.CylinderFunction.indicator(g.path_point(("b",)))
        assert ind.value(g.vertex_point("u")) == 0
        with pytest.raises(SupportViolation, match="coarser"):
            ind.value(g.vertex_point("v"))

    def test_backend_mismatch(self, tent_handle):
        with pytest.raises(ValidationError):
            tr.apply(tent_handle, tr.CylinderFunction(), F(1, 2))


class TestFunctions:
    def test_hat_shape(self):
        hat = dyn.PiecewiseAffine.hat(F(1, 2), F(1, 4), 2)
        assert hat.value(F(1, 2)) == 2
        assert hat.value(F(3, 8)) == 1
        assert hat.value(F(1, 4)) == 0
        assert hat.value(F(9, 10)) == 0
        support = IntervalSet(iv.closure() for iv, m, c in hat.pieces if (m, c) != (0, 0))
        assert support == IntervalSet.of(RationalInterval(F(1, 4), F(3, 4)))

    def test_disagreeing_pieces_rejected(self):
        with pytest.raises(ValidationError):
            dyn.PiecewiseAffine.zero_off(
                pieces=(
                    (RationalInterval(0, F(1, 2)), 0, 1),
                    (RationalInterval(F(1, 2), 1), 0, 2),
                ),
            )


class TestDuals:
    def test_ulam_columns_are_stochastic(self, tent_handle):
        m = tr.ulam_matrix(tent_handle, 8)
        for j in range(8):
            assert sum(m[i][j] for i in range(8)) == 1
        assert m[0][0] == F(1, 2) and m[0][7] == F(1, 2)

    def test_uniform_density_is_invariant(self, tent_handle):
        mu = tr.UlamMeasure(0, 1, (F(1),) * 16)
        m = tr.ulam_matrix(tent_handle, 16)
        nu = tr.UlamMeasure(
            0, 1, tuple(sum((m[i][j] * mu.densities[i] for i in range(16)), F(0)) for j in range(16))
        )
        assert nu.densities == (F(1),) * 16
        assert nu.total_mass() == 1

    @pytest.mark.parametrize("name", ["tent_std", "tent_half", "doubling", "halving"])
    def test_ulam_columns_carry_the_weight_of_their_bin(self, name):
        # w * sum_i K[i][j] = sum over branches b of |slope_b| * (integral of rho
        # over bin j in dom b), computed without the bin walk
        s = specfile.bundled(name)
        h = tr.TransferHandle.create(s.system, s.potential)
        (comp,) = s.system.ival.space.intervals
        pot, branches = s.potential, s.system.ival.branches
        for bins in range(1, 17):
            mat = tr.ulam_matrix(h, bins)
            w = (comp.hi - comp.lo) / bins
            for j in range(bins):
                binj = IntervalSet.of(
                    RationalInterval(comp.lo + j * w, comp.lo + (j + 1) * w, True, j == bins - 1)
                )
                cells = ((b, binj.intersection(IntervalSet.of(b.domain))) for b in branches)
                want = sum((abs(b.slope) * tr.integrate_potential(pot, c) for b, c in cells), F(0))
                assert w * sum(mat[i][j] for i in range(bins)) == want

    def test_ulam_rejects_graph(self):
        s = specfile.bundled("loop1")
        h = tr.TransferHandle.create(s.system, s.potential)
        with pytest.raises(ValidationError):
            tr.ulam_matrix(h, 4)


def _set_values(pieces, x):
    """The values of every piece holding x, as a set: the lookup before first-match."""
    return {m * x + c for iv, m, c in pieces if iv.contains(x)}


def _reference_weight(pot, x):
    for p, v in pot.overrides:
        if p == x:
            return v
    vals = _set_values(pot.pieces, x)
    if not vals:
        raise ValidationError(f"potential undefined at {frac_str(x)}")
    if len(vals) > 1:
        raise ValidationError(f"potential ambiguous at {frac_str(x)}")
    return vals.pop()


def _reference_function(f, x):
    vals = _set_values(f.pieces, x)
    assert len(vals) <= 1
    return vals.pop() if vals else Q(0)


def _probe_points(pieces):
    """Piece ends and midpoints, quadrature points of a 16-bin grid, and points off [0, 1]."""
    pts = {F(-1, 4), F(5, 4), F(-1, 10**9), 1 + F(1, 10**9)}
    for iv, _, _ in pieces:
        pts.update((iv.lo, iv.hi, (iv.lo + iv.hi) / 2))
    grid = tr.UlamMeasure(0, 1, (1,) * 16)
    for n in (1, 4):
        pts.update(grid.quadrature(n)[0])
    return sorted(pts)


class TestPieceLookup:
    """The first piece holding a point gives its value, as the set of all of them did."""

    @pytest.mark.parametrize("name", INTERVAL_SPECS + ["seam"])
    def test_weights_and_energies_match_the_set_lookup(self, name):
        if name == "seam":
            # touching pieces that disagree, settled by an override
            half = F(1, 2)
            pots = [dyn.PiecewiseAffine(
                ((RationalInterval(0, half), 0, 1), (RationalInterval(half, 1), 1, 1)),
                overrides=((half, F(7, 4)),),
            )]
        else:
            s = specfile.bundled(name)
            pots = [s.potential, s.psi]
        for pot in pots:
            for x in _probe_points(pot.pieces):
                held = bool(_set_values(pot.pieces, x))
                try:
                    want = _reference_weight(pot, x)
                except ValidationError as e:
                    with pytest.raises(ValidationError, match=re.escape(str(e))):
                        pot.value(x)
                    assert not held and pot.value_or_zero(x) == 0
                    continue
                got = pot.value(x)
                assert got == want and type(got) is Q
                assert pot.value_or_zero(x) == (want if held else 0)

    @pytest.mark.parametrize("name", INTERVAL_SPECS)
    def test_test_functions_match_the_set_lookup(self, name):
        s = specfile.bundled(name)
        h = tr.TransferHandle.create(s.system, s.potential)
        fns = th._battery_functions(h, random.Random(3), 10)
        fns += th.hat_battery(dyn.regular_set(s.system, s.potential).delta_reg, 6)
        for f in fns:
            pts = _probe_points(f.pieces)
            want = [_reference_function(f, x) for x in pts]
            got = [f.value(x) for x in pts]
            assert got == want and all(type(v) is Q for v in got)
