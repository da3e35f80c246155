import json
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

from xferop import dynamics as dyn
from xferop import spectra
from xferop import specfile
from xferop.cli import main
from xferop.errors import HypothesisViolated, NotValidated, OutOfSpectrum
from xferop.intervals import IntervalSet, RationalInterval


class TestLevelSets:
    def test_positive_iterate_tent_half(self, tent_half):
        s = tent_half
        assert spectra.positive_iterate(s.system, s.potential, 1) == IntervalSet.of(RationalInterval(0, F(1, 2)))
        assert spectra.positive_iterate(s.system, s.potential, 2) == IntervalSet.of(RationalInterval(0, F(1, 4)))
        assert spectra.level_space(s.system, s.potential, 2) == IntervalSet.of(RationalInterval(0, 1))

    def test_positive_iterate_halving(self):
        s = specfile.bundled("halving")
        two = spectra.positive_iterate(s.system, s.potential, 2)
        assert two == IntervalSet.of(RationalInterval(0, 1, True, False))
        img = spectra.level_space(s.system, s.potential, 2)
        assert img == IntervalSet.of(RationalInterval(0, F(1, 4), True, False))

    def test_graph_level_space(self):
        s = specfile.bundled("fullshift2")
        top = spectra.level_space(s.system, s.potential, 3)
        assert [str(c) for c in top.cylinders] == ["()@v"]


class TestSpectrumKn:
    def test_tent_level_one(self, tent):
        st, pts = spectra.spectrum_Kn(tent.system, tent.potential, 1, samples=[1, 0])
        assert st == IntervalSet.of(RationalInterval(0, 1))
        dims = {p.base: p.dimension for p in pts}
        assert dims[F(1)] == 1 and dims[F(0)] == 2

    def test_tent_half_every_dimension_one(self, tent_half):
        s = tent_half
        st, pts = spectra.spectrum_Kn(
            s.system, s.potential, 1, samples=[0, F(1, 3), F(7, 8), 1]
        )
        assert st == IntervalSet.of(RationalInterval(0, 1))
        assert all(p.dimension == 1 for p in pts)

    def test_zero_weight_empty_spectrum(self, tent):
        dead = dyn.PiecewiseAffine(pieces=((RationalInterval(0, 1), 0, 0),))
        st, pts = spectra.spectrum_Kn(tent.system, dead, 1)
        assert st.is_empty and pts == ()

    def test_out_of_spectrum_sample(self):
        s = specfile.bundled("halving")
        with pytest.raises(OutOfSpectrum):
            spectra.spectrum_Kn(s.system, s.potential, 1, samples=[F(3, 4)])


class TestSpectrumAn:
    def test_tent_strata(self, tent):
        d = spectra.spectrum_An(tent.system, tent.potential, 3)
        for k in range(3):
            assert d.strata[k] == IntervalSet.point(F(1, 2))
        assert d.strata[3] == IntervalSet.of(RationalInterval(0, 1))
        inner = {p.level: p.dimension for p in d.sampled_points if p.stratum == "interior"}
        assert inner == {0: 1, 1: 2, 2: 4}
        assert d.warnings  # discontinuous weight: gluing data is a lower bound

    def test_tent_boundary_blocks(self, tent):
        # the blocks at the two ends of the top stratum, n = 3: the top point
        # glues to the interior point 1/2 of the levels below
        n = 3
        s, p = tent.system, tent.potential
        top = {y: spectra.spectrum_Kn(s, p, n, samples=[y])[1][0].dimension for y in (0, 1)}
        d = spectra.spectrum_An(s, p, n)
        inner = {q.level: q.dimension for q in d.sampled_points if q.stratum == "interior"}
        assert {q.base for q in d.sampled_points if q.stratum == "interior"} == {F(1, 2)}
        assert sorted([top[1], inner[n - 1]]) == [4, 4]
        assert sorted([top[0], *(inner[k] for k in range(n - 1))]) == [1, 2, 5]

    def test_strata_avoid_regular_set(self, tent):
        d = spectra.spectrum_An(tent.system, tent.potential, 2)
        reg = dyn.regular_set(tent.system, tent.potential).delta_reg
        for k in range(2):
            assert not d.strata[k].intersects(reg)

    def test_irregular_points_appear_in_strata(self, tent):
        d = spectra.spectrum_An(tent.system, tent.potential, 2)
        report = dyn.regular_set(tent.system, tent.potential)
        for ip in report.irregular_points:
            for k in range(2):
                if dyn.preimages(tent.system, tent.potential, ip.point, k):
                    assert d.strata[k].contains(ip.point)

    def test_generators_verify_exactly(self, tent):
        d = spectra.spectrum_An(tent.system, tent.potential, 2)
        assert d.topology_generators
        for g in d.topology_generators:
            assert spectra.check_generator(tent.system, tent.potential, g)

    def test_corrupted_generator_rejected(self, tent):
        d = spectra.spectrum_An(tent.system, tent.potential, 2)
        g = next(g for g in d.topology_generators if not g.sets[-1].is_empty)
        bad = spectra.TopologyTuple(g.sets[:-1] + (IntervalSet.empty(),))
        assert not spectra.check_generator(tent.system, tent.potential, bad)

    def test_tent_half_gluing(self, tent_half):
        s = tent_half
        d = spectra.spectrum_An(s.system, s.potential, 1)
        assert d.strata[0] == IntervalSet.of(RationalInterval(F(1, 2), 1))
        assert d.strata[1] == IntervalSet.of(RationalInterval(0, 1))
        assert d.warnings
        seam = [g for g in d.topology_generators if g.sets[0].contains(F(1, 2))]
        assert seam
        # a neighbourhood of the seam point pulls in a window at the far end
        top = seam[0].sets[1]
        assert top.contains(F(15, 16)) and not top.contains(F(1, 2)) and not top.contains(1)

    def test_graph_top_only(self):
        s = specfile.bundled("fullshift2")
        d = spectra.spectrum_An(s.system, s.potential, 2)
        assert all(not st.cylinders for st in d.strata[:2])
        assert [str(c) for c in d.strata[2].cylinders] == ["()@v"]
        assert d.sampled_points[0].dimension == 4  # binary words of length 2
        assert not d.warnings
        for g in d.topology_generators:
            assert spectra.check_generator(s.system, s.potential, g)

    @pytest.mark.parametrize("name", ["tent_std", "tent_half", "doubling"])
    def test_level_spaces_built_once(self, monkeypatch, name):
        # generator growth and verification share one list of level spaces
        s = specfile.bundled(name)
        n, calls = 2, []
        original = spectra.level_space

        def counted(system, pot, k):
            calls.append(k)
            return original(system, pot, k)

        monkeypatch.setattr(spectra, "level_space", counted)
        d = spectra.spectrum_An(s.system, s.potential, n)
        assert sorted(calls) == list(range(n + 1))
        assert d.topology_generators

    def test_csv(self, tent):
        d = spectra.spectrum_An(tent.system, tent.potential, 2)
        assert (0, F(1, 2), 1) in [(p.level, p.base, p.dimension) for p in d.sampled_points]


class TestQuasiOrbits:
    def test_discontinuous_weight_rejected(self, tent):
        with pytest.raises(HypothesisViolated):
            spectra.quasi_orbits(tent.system, tent.potential, 4, [F(1, 3)])

    def test_halving_classes(self):
        s = specfile.bundled("halving")
        q = spectra.quasi_orbits(
            s.system, s.potential, 8,
            [F(1, 3), F(2, 3), F(1, 5), F(2, 5), F(4, 5), F(3, 5)],
        )
        assert q.classes[F(1, 3)] == q.classes[F(2, 3)]
        assert len({q.classes[F(1, 5)], q.classes[F(2, 5)], q.classes[F(4, 5)]}) == 1
        assert len(q.representatives) == 3
        assert q.classes[F(3, 5)] not in (q.classes[F(1, 3)], q.classes[F(1, 5)])

    def test_fixed_point_single_class(self):
        s = specfile.bundled("halving")
        q = spectra.quasi_orbits(s.system, s.potential, 4, [0])
        assert len(q.representatives) == 1

    def test_doubling_dyadics_merge(self):
        s = specfile.bundled("doubling")
        q = spectra.quasi_orbits(
            s.system, s.potential, 6, [F(1, 8), F(3, 8), F(5, 8), F(1, 4)]
        )
        assert len(q.representatives) == 1

    def test_full_shift_single_class(self):
        s = specfile.bundled("fullshift2")
        g = s.system.gph
        q = spectra.quasi_orbits(
            s.system, s.potential, 6,
            [g.path_point(("e0", "e0")), g.path_point(("e1", "e1")), g.path_point(("e0", "e1"))],
        )
        assert len(q.representatives) == 1

    def test_two_loops_two_classes(self):
        s = specfile.bundled("loops2")
        g = s.system.gph
        q = spectra.quasi_orbits(
            s.system, s.potential, 6, [g.path_point(("a", "a")), g.path_point(("b", "b"))]
        )
        assert len(q.representatives) == 2

    def test_classes_partition(self):
        s = specfile.bundled("halving")
        samples = [F(1, 3), F(2, 3), F(3, 5)]
        q = spectra.quasi_orbits(s.system, s.potential, 8, samples)
        assert set(q.classes) == {F(1, 3), F(2, 3), F(3, 5)}
        for rep in q.representatives:
            assert q.classes[rep] == rep


# The rho-discontinuity warning read off the regular-set report, against a
# direct scan of the weight's breakpoints and the map's critical points.
def _scanned_warning(system, pot):
    if system.backend == "graph":
        return None
    sys_ = system.ival
    candidates = pot.breakpoints() | set(sys_.critical_points())
    bad = sorted(
        x for x in candidates
        if sys_.delta.contains(x) and not dyn._rho_continuous_at(sys_, pot, x)
    )
    if bad:
        pts = ", ".join(str(x) for x in bad)
        return (
            "weight is discontinuous at " + pts + "; the emitted gluing data is a "
            "lower bound: open sets of the spectrum may be strictly finer"
        )
    return None


def _tent(pot):
    sys_ = dyn.PartialSystem(
        dyn.IntervalSystem(
            IntervalSet.of(RationalInterval(0, 1)),
            [
                dyn.AffineBranch(RationalInterval(0, F(1, 2)), 2, 0),
                dyn.AffineBranch(RationalInterval(F(1, 2), 1), -2, 2),
            ],
        ),
    )
    return sys_, pot


HAND_BUILT = {
    # an override jump inside the one piece, off every branch seam
    "override": dyn.PiecewiseAffine(
        pieces=((RationalInterval(0, 1), 0, F(1, 2)),), overrides=((F(1, 4), 1),)
    ),
    # a jump at the branch seam 1/2
    "seam": dyn.PiecewiseAffine(
        pieces=(
            (RationalInterval(0, F(1, 2)), 0, 1),
            (RationalInterval(F(1, 2), 1, False, True), 0, F(1, 2)),
        )
    ),
}


class TestDiscontinuityWarning:
    @pytest.mark.parametrize("name", specfile.BUNDLED)
    def test_bundled_specs_match_the_scan(self, name):
        s = specfile.bundled(name)
        want = _scanned_warning(s.system, s.potential)
        report = dyn.regular_set(s.system, s.potential)
        assert spectra._rho_discontinuity_warning(report) == want
        assert (want is not None) == (name in ("tent_std", "tent_half"))
        d = spectra.spectrum_An(s.system, s.potential, 2)
        assert d.warnings == ((want,) if want else ())

    @pytest.mark.parametrize("name", ["tent_std", "tent_half"])
    def test_quasi_orbits_refuses_with_the_warning(self, name):
        s = specfile.bundled(name)
        with pytest.raises(HypothesisViolated) as exc:
            spectra.quasi_orbits(s.system, s.potential, 4, [F(1, 3)])
        assert str(exc.value) == _scanned_warning(s.system, s.potential)

    @pytest.mark.parametrize("kind", sorted(HAND_BUILT))
    def test_hand_built_weights_match_the_scan(self, kind):
        sys_, pot = _tent(HAND_BUILT[kind])
        want = _scanned_warning(sys_, pot)
        assert want is not None
        assert spectra._rho_discontinuity_warning(dyn.regular_set(sys_, pot)) == want

    def test_hand_built_jumps_are_where_the_weight_jumps(self):
        for kind, at in (("override", "1/4"), ("seam", "1/2")):
            sys_, pot = _tent(HAND_BUILT[kind])
            text = spectra._rho_discontinuity_warning(dyn.regular_set(sys_, pot))
            assert text.startswith(f"weight is discontinuous at {at};")

    def test_unvalidated_operator_is_refused(self, tmp_path):
        # the weight misses (1/4, 1/2] of the domain, so the operator fails
        # validation, and quasi_orbits refuses it as spectrum_An does
        half = RationalInterval(0, F(1, 2))
        sys_ = dyn.PartialSystem(
            dyn.IntervalSystem(IntervalSet.of(RationalInterval(0, 1)), [dyn.AffineBranch(half, 2, 0)]),
        )
        pot = dyn.PiecewiseAffine(pieces=((RationalInterval(0, F(1, 4)), 0, 1),))
        with pytest.raises(NotValidated, match="quasi-orbits require a validated transfer operator"):
            spectra.quasi_orbits(sys_, pot, 2, [F(1, 8)])
        with pytest.raises(NotValidated):
            spectra.spectrum_An(sys_, pot, 2)
        path = tmp_path / "uncovered.json"
        path.write_text(json.dumps(specfile.serialize_spec(specfile.SpecData("uncovered", sys_, pot))))
        result = CliRunner().invoke(main, ["quasi-orbits", "--spec", str(path)])
        assert result.exit_code == 3
        assert "quasi-orbits require a validated transfer operator" in result.output
