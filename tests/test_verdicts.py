import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xferop
from xferop import dynamics as dyn
from xferop import rep
from xferop import specfile
from xferop import transfer as tr
from xferop import verdicts as vd
from xferop.errors import ValidationError, XferopError
from xferop.intervals import IntervalSet, RationalInterval


@pytest.fixture(scope="module")
def loop1():
    return specfile.bundled("loop1")


@pytest.fixture(scope="module")
def loops2():
    return specfile.bundled("loops2")


def _golden_mean():
    """The golden-mean shift of the benchmark: edges a->a, a->b, b->a."""
    doc = {
        "name": "golden_mean", "backend": "graph", "vertices": ["a", "b"],
        "edges": [{"name": "aa", "src": "a", "rng": "a"},
                  {"name": "ab", "src": "a", "rng": "b"},
                  {"name": "ba", "src": "b", "rng": "a"}],
        "weights": {"aa": "1", "ab": "1", "ba": "1"},
    }
    return specfile.parse_spec(doc)


@pytest.fixture(scope="module")
def identity_system():
    sys_ = dyn.PartialSystem(
        dyn.IntervalSystem(
            IntervalSet.closed(0, 1), [dyn.AffineBranch(RationalInterval(0, 1), 1, 0)]
        ),
        name="ident",
    )
    pot = dyn.IntervalPotential(pieces=((RationalInterval(0, 1), F(0), F(1)),))
    return sys_, pot


@pytest.fixture(scope="module")
def pure_contraction():
    # x/2 on [0,1] with a weight that never vanishes
    sys_ = dyn.PartialSystem(
        dyn.IntervalSystem(
            IntervalSet.closed(0, 1), [dyn.AffineBranch(RationalInterval(0, 1), F(1, 2), 0)]
        ),
        name="shrink",
    )
    pot = dyn.IntervalPotential(pieces=((RationalInterval(0, 1), F(0), F(1)),))
    return sys_, pot


class TestVerdictType:
    def test_status_certificate_coupling(self):
        with pytest.raises(ValidationError):
            vd.Verdict("Minimal", "Holds", None, 4)
        with pytest.raises(ValidationError):
            vd.Verdict("Minimal", "Unknown", "stray", 4)
        with pytest.raises(ValidationError):
            vd.Verdict("Minimal", "Maybe", None, 4)
        with pytest.raises(ValidationError):
            vd.Verdict("Openness", "Holds", "c", 4)

    def test_str_and_flags(self):
        v = vd.Verdict("TopFree", "Unknown", None, 7)
        assert "TopFree" in str(v) and "7" in str(v)
        assert not v.holds and not v.fails


class TestTopFree:
    def test_tent_holds(self, tent):
        v = vd.check_top_free(tent.system, tent.potential, 8)
        assert v.holds
        assert v.certificate.branches_scanned == sum(2**n for n in range(1, 9))

    def test_doubling_holds(self):
        s = specfile.bundled("doubling")
        assert vd.check_top_free(s.system, s.potential, 6).holds

    def test_loop1_fails_with_cycle(self, loop1):
        v = vd.check_top_free(loop1.system, loop1.potential, 6)
        assert v.fails
        assert v.certificate == vd.CycleNoExit(("e",))

    def test_loops2_fails(self, loops2):
        v = vd.check_top_free(loops2.system, loops2.potential, 6)
        assert v.fails
        assert v.certificate.edges in (("a",), ("b",))

    def test_fullshift_holds_with_exits(self, shift2):
        v = vd.check_top_free(shift2.system, shift2.potential, 6)
        assert v.holds
        # each loop is witnessed by the other loop as its exit
        assert (("e0",), "e1") in v.certificate.cycles
        assert (("e1",), "e0") in v.certificate.cycles

    def test_identity_fails_and_replays(self, identity_system):
        sys_, pot = identity_system
        v = vd.check_top_free(sys_, pot, 4)
        assert v.fails
        cert = v.certificate
        assert cert.n == 1 and not cert.window.is_point
        assert vd.verify_periodic_window(sys_, pot, cert)

    def test_regular_cut_in_the_middle_of_a_chain(self):
        # phi(x) = 1 - x with weight 0 on [0, 1/4]: the regular set is (1/4, 1],
        # so the window of phi^2 = id is cut by reg and by phi^-1(reg)
        flip = dyn.PartialSystem(
            dyn.IntervalSystem(
                IntervalSet.closed(0, 1), [dyn.AffineBranch(RationalInterval(0, 1), -1, 1)]
            )
        )
        pot = dyn.IntervalPotential(
            pieces=(
                (RationalInterval(0, F(1, 4)), F(0), F(0)),
                (RationalInterval(F(1, 4), 1), F(1), F(-1, 4)),
            )
        )
        v = vd.check_top_free(flip, pot, 4)
        window = RationalInterval(F(1, 4), F(3, 4), False, False)
        assert v.fails and v.certificate == vd.PeriodicWindow(2, window, (0, 0))
        assert vd.verify_periodic_window(flip, pot, v.certificate)

    def test_depth_monotone(self, tent, loop1):
        for s, expect in ((tent, "Holds"), (loop1, "Fails")):
            for d in (3, 5, 8):
                assert vd.check_top_free(s.system, s.potential, d).status == expect


class TestInvariant:
    def test_whole_space(self, tent):
        space = tent.system.ival.space
        assert vd.check_invariant(tent.system, tent.potential, space) == (True, True)

    def test_tent_open_interval(self, tent):
        u = IntervalSet.of(RationalInterval(0, 1, False, False))
        pos, neg = vd.check_invariant(tent.system, tent.potential, u)
        assert pos is False  # the peak maps into the deleted endpoint
        assert neg is True

    def test_loops2_single_loop(self, loops2):
        g = loops2.system.gph
        u = (g.vertex_point("u"),)
        assert vd.check_invariant(loops2.system, loops2.potential, u) == (True, True)

    @pytest.mark.parametrize("name", ["loop1", "loops2", "fullshift2"])
    def test_graph_set_descriptions(self, name):
        s = specfile.bundled(name)
        for region in (
            dyn.regular_set(s.system, s.potential).delta_reg,
            dyn.iterate_domain(s.system, 0),
        ):
            assert vd.check_invariant(s.system, s.potential, region) == (True, True)

    def test_halving_interior(self):
        s = specfile.bundled("halving")
        u = IntervalSet.of(RationalInterval(0, 1, False, False))
        assert vd.check_invariant(s.system, s.potential, u) == (True, True)


class TestMinimal:
    def test_tent_holds(self, tent):
        v = vd.check_minimal(tent.system, tent.potential, 8)
        assert v.holds
        assert v.certificate.seeds > 500

    def test_loop1_holds(self, loop1):
        assert vd.check_minimal(loop1.system, loop1.potential, 6).holds

    def test_fullshift_holds(self, shift2):
        assert vd.check_minimal(shift2.system, shift2.potential, 6).holds

    def test_loops2_fails_one_loop(self, loops2):
        v = vd.check_minimal(loops2.system, loops2.potential, 6)
        assert v.fails
        region = v.certificate.region
        assert len(region) == 1 and region[0].rng in ("u", "v")
        assert vd.check_invariant(loops2.system, loops2.potential, region) == (True, True)

    def test_halving_fails_with_invariant_window(self):
        s = specfile.bundled("halving")
        v = vd.check_minimal(s.system, s.potential, 6)
        assert v.fails
        region = v.certificate.region
        assert vd.check_invariant(s.system, s.potential, region) == (True, True)
        assert region != s.system.ival.space and not region.is_empty

    def test_doubling_seam_artifact_is_invariant(self):
        # the half-open seam leaves the fixed endpoint with no other preimage,
        # so its complement is a genuine invariant open set
        s = specfile.bundled("doubling")
        v = vd.check_minimal(s.system, s.potential, 6)
        assert v.fails
        assert v.certificate.region == IntervalSet.of(RationalInterval(0, 1, True, False))


def _bare_minimal(system, pot, depth):
    """Minimality scan without the saturation memo: the reference."""
    sys_, space, pos, reg = vd._regions(system, pot)
    max_iter = 4 * depth
    seeds = vd._minimal_seeds(system, space, depth)
    hit_bound = False
    for seed in seeds:
        u = seed
        for _ in range(max_iter):
            nxt = vd._closure_step(sys_, pos, reg, u)
            if nxt == u:
                break
            u = nxt
        else:
            hit_bound = True
            continue
        if u != space:
            return vd.Verdict("Minimal", "Fails", vd.InvariantSet(u), depth)
    if hit_bound:
        return vd.Verdict("Minimal", "Unknown", None, depth)
    return vd.Verdict("Minimal", "Holds", vd.MinimalScan(depth, len(seeds), max_iter), depth)


class TestMinimalMemo:
    @pytest.mark.parametrize("depth", [1, 2, 4, 6, 8])
    @pytest.mark.parametrize("name", specfile.BUNDLED)
    def test_matches_bare_scan(self, name, depth):
        s = specfile.bundled(name)
        got = vd.check_minimal(s.system, s.potential, depth)
        want = _bare_minimal(s.system, s.potential, depth)
        assert (got.status, got.certificate) == (want.status, want.certificate)

    def test_recorded_steps_respect_the_bound(self, tent, monkeypatch):
        # on the tent, (0, 2^-m) first reaches X after m + 2 steps, and the
        # second set on its trail contains (0, 2^-(m-1)); at depth 2 (8 steps)
        # the first seed saturates in 7 and the second one hits the bound
        seeds = [IntervalSet.of(RationalInterval(0, F(1, 2**m), False, False)) for m in (5, 6)]
        monkeypatch.setattr(vd, "_minimal_seeds", lambda system, space, depth: seeds)
        for depth, status in ((2, "Unknown"), (3, "Holds")):
            assert vd.check_minimal(tent.system, tent.potential, depth).status == status
            assert _bare_minimal(tent.system, tent.potential, depth).status == status

    def test_bad_certificate_raises(self, monkeypatch):
        s = specfile.bundled("halving")
        monkeypatch.setattr(vd, "check_invariant", lambda *a: (True, False))
        with pytest.raises(XferopError, match="not an invariant open set"):
            vd.check_minimal(s.system, s.potential, 2)

    def test_bad_certificate_raises_under_optimize(self):
        code = (
            "from xferop import specfile, verdicts as vd\n"
            "from xferop.errors import XferopError\n"
            "vd.check_invariant = lambda *a: (True, False)\n"
            "s = specfile.bundled('halving')\n"
            "try:\n"
            "    vd.check_minimal(s.system, s.potential, 2)\n"
            "except XferopError:\n"
            "    print('raised')\n"
        )
        src = str(Path(xferop.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"


def _grid_seeds_with_check(space, depth):
    """Interval seeds as built before the openness check was dropped: every
    grid interval in both variants, kept if nonempty, new and open in X."""
    lo, hi = space.min(), space.max()
    width = hi - lo
    seeds, seen = [], set()
    for k in range(0, min(depth, 8) + 1):
        step = width / 2**k
        for j in range(2**k):
            a, b = lo + j * step, lo + (j + 1) * step
            for iv in (
                RationalInterval(a, b, False, False),
                RationalInterval(a, b, a == lo, b == hi),
            ):
                s = IntervalSet.of(iv).intersection(space)
                if s in seen or s.is_empty or not s.is_open_in(space):
                    continue
                seen.add(s)
                seeds.append(s)
    return seeds


# no points in (1/8, 1/2): (0, 1/4) and (0, 1/2) both clip to (0, 1/8]
GAPPED = IntervalSet.of(RationalInterval(0, F(1, 8)), RationalInterval(F(1, 2), 1))
SPACES = {
    "gapped": GAPPED,
    "gapped-wide": IntervalSet.of(RationalInterval(0, F(1, 4)), RationalInterval(F(1, 2), 1)),
    "shifted": IntervalSet.closed(1, 3),
}


class TestMinimalSeeds:
    @pytest.mark.parametrize("depth", range(1, 9))
    @pytest.mark.parametrize("name", ["tent_std", "tent_half", "doubling", "halving"])
    def test_bundled_match_checked_construction(self, name, depth):
        s = specfile.bundled(name)
        space = s.system.ival.space
        seeds = vd._minimal_seeds(s.system, space, depth)
        assert seeds == _grid_seeds_with_check(space, depth)
        assert all(seed.is_open_in(space) for seed in seeds)

    @pytest.mark.parametrize("depth", [1, 2, 3, 8])
    @pytest.mark.parametrize("space", list(SPACES.values()), ids=list(SPACES))
    def test_other_spaces_match_checked_construction(self, tent, space, depth):
        seeds = vd._minimal_seeds(tent.system, space, depth)
        assert seeds == _grid_seeds_with_check(space, depth)
        assert all(seed.is_open_in(space) for seed in seeds)

    def test_clipped_duplicates_are_dropped(self, tent):
        seeds = vd._minimal_seeds(tent.system, GAPPED, 2)
        assert seeds.count(IntervalSet.of(RationalInterval(0, F(1, 8), False, True))) == 1
        assert len(seeds) == len(set(seeds))


def _linear_lookup(recorded, u, j, max_iter):
    """The memo lookup as a plain newest-first scan: the reference."""
    return next((j + k for s, k in reversed(recorded) if j + k < max_iter and s.issubset(u)), None)


# endpoints share values often, and two differ only past float precision
_ENDS = [F(k, 8) for k in range(9)] + [F(1, 3), F(2, 3), F(1, 4) + F(1, 2**60), F(1, 2) - F(1, 2**60)]


@st.composite
def _intervals(draw, ends):
    a, b = sorted(draw(st.lists(st.sampled_from(ends), min_size=2, max_size=2)))
    if a == b:
        return RationalInterval.point(a)
    return RationalInterval(a, b, draw(st.booleans()), draw(st.booleans()))


@st.composite
def _memo_case(draw):
    dyadic = [F(k, 16) for k in range(17)]
    seeds = draw(st.lists(
        st.lists(_intervals(dyadic), min_size=1, max_size=2).map(IntervalSet),
        min_size=1, max_size=12,
    ))
    # distinct bounds, so equal steps mean the same seed matched
    bounds = draw(st.lists(st.integers(0, 40), min_size=len(seeds), max_size=len(seeds), unique=True))
    u = IntervalSet(draw(st.lists(_intervals(_ENDS + dyadic), min_size=1, max_size=6)))
    return list(zip(seeds, bounds)), u, draw(st.integers(0, 31))


class TestSaturationMemo:
    @settings(max_examples=300, deadline=None)
    @given(_memo_case())
    def test_filtered_lookup_matches_linear_scan(self, case):
        recorded, u, j = case
        memo = vd._SaturationMemo(len(recorded))
        for s, k in recorded:
            memo.record(s, k)
        assert memo.lookup(u, j, 32) == _linear_lookup(recorded, u, j, 32)

    def test_float_tie_keeps_the_match(self):
        # both right ends of u round to the float 0.25, so the search lands on
        # the first component; the seed lies in the second one
        eps = F(1, 2**60)
        u = IntervalSet.of(
            RationalInterval(0, F(1, 4) - eps), RationalInterval(F(1, 4) - eps / 2, F(1, 4), False)
        )
        memo = vd._SaturationMemo(1)
        memo.record(IntervalSet.of(RationalInterval(F(1, 4) - eps / 4, F(1, 4))), 3)
        assert float(u.intervals[0].hi) == float(u.intervals[1].hi)
        assert memo.lookup(u, 0, 32) == 3

    def test_exact_tests_on_tent(self, tent, monkeypatch):
        calls = 0
        issubset = IntervalSet.issubset

        def counted(self, other):
            nonlocal calls
            calls += 1
            return issubset(self, other)

        monkeypatch.setattr(IntervalSet, "issubset", counted)
        assert vd.check_minimal(tent.system, tent.potential, 8).holds
        # a plain newest-first scan makes about 184,000 here
        assert calls < 1000


class TestContractingSet:
    def test_designed_negative_reports_inclusion(self, tent):
        v = IntervalSet.of(RationalInterval(F(1, 16), F(3, 8), False, False))
        u = IntervalSet.of(RationalInterval(F(1, 32), F(3, 16), False, False))
        rep = vd.check_contracting_set(tent.system, tent.potential, v, [(u, 1)])
        assert not rep.ok and rep.violated == "piece_not_regular"

    def test_designed_negative_cover_failure(self, tent):
        v = IntervalSet.of(RationalInterval(F(1, 16), F(3, 8), False, False))
        u = IntervalSet.of(RationalInterval(F(1, 16), F(3, 16), False, False))
        rep = vd.check_contracting_set(tent.system, tent.potential, v, [(u, 1)])
        assert not rep.ok and rep.violated == "closure_not_covered"

    def test_manual_positive(self, tent):
        v = IntervalSet.of(RationalInterval(F(1, 8), F(1, 2), False, False))
        u = IntervalSet.of(RationalInterval(F(23, 64), F(31, 64), False, False))
        assert vd.check_contracting_set(tent.system, tent.potential, v, [(u, 2)]).ok

    def test_empty_region(self, tent):
        u = IntervalSet.of(RationalInterval(F(1, 4), F(3, 8), False, False))
        rep = vd.check_contracting_set(tent.system, tent.potential, IntervalSet.empty(), [(u, 1)])
        assert not rep.ok and rep.violated == "region_empty"

    def test_overlapping_pieces(self, tent):
        v = IntervalSet.of(RationalInterval(F(1, 8), F(1, 2), False, False))
        u1 = IntervalSet.of(RationalInterval(F(1, 4), F(3, 8), False, False))
        u2 = IntervalSet.of(RationalInterval(F(5, 16), F(7, 16), False, False))
        rep = vd.check_contracting_set(tent.system, tent.potential, v, [(u1, 2), (u2, 2)])
        assert not rep.ok and rep.violated == "not_disjoint"

    def test_graph_positive_and_exhausted(self, shift2):
        g = shift2.system.gph
        v = (g.path_point(("e0",)),)
        u = (g.path_point(("e0", "e0")),)
        assert vd.check_contracting_set(shift2.system, shift2.potential, v, [(u, 1)]).ok
        rep = vd.check_contracting_set(shift2.system, shift2.potential, v, [(v, 1)])
        assert not rep.ok and rep.violated == "region_exhausted"

    @pytest.mark.parametrize(
        "region, pieces, violated",
        [
            ((), [(("e0", "e0"), 1)], "region_empty"),
            (("e0",), [(("e0", "e0"), 1), (("e0", "e0", "e1"), 1)], "not_disjoint"),
            (("e0",), [(("e0", "e0"), 0)], "bad_exponent"),
            (("e0",), [(("e1", "e0"), 1)], "piece_not_regular"),  # U is not inside V
            (("e0",), [(("e0", "e0", "e0"), 1)], "closure_not_covered"),
        ],
        ids=["region-empty", "not-disjoint", "bad-exponent", "piece-outside-v", "not-covered"],
    )
    def test_graph_designed_negatives(self, shift2, region, pieces, violated):
        g = shift2.system.gph
        v = (g.path_point(region),) if region else ()
        us = [((g.path_point(word),), n) for word, n in pieces]
        rep = vd.check_contracting_set(shift2.system, shift2.potential, v, us)
        assert not rep.ok and rep.violated == violated

    def test_graph_piece_outside_the_core(self):
        # the length-1 cylinder of f holds the finite path f, which cannot
        # be shifted twice, so it leaves the 2-step regular core
        g = dyn.GraphSystem(["t", "u"], [dyn.GraphEdge("a", "u", "u"), dyn.GraphEdge("f", "t", "u")])
        system = dyn.PartialSystem(g)
        pot = dyn.GraphPotential((("a", F(1)), ("f", F(1))))
        v = (g.vertex_point("u"),)
        rep = vd.check_contracting_set(system, pot, v, [((g.path_point(("f",)),), 2)])
        assert not rep.ok and rep.violated == "piece_not_regular"
        assert vd.check_contracting_set(system, pot, v, [((g.path_point(("a", "a")),), 2)]).ok


class TestContracting:
    def test_tent_holds_at_one_third(self, tent):
        v = vd.check_contracting(tent.system, tent.potential, 8)
        assert v.holds
        cert = v.certificate
        assert cert.x0 == F(1, 3)
        assert len(cert.scales) >= 4
        for scale in cert.scales:
            rep = vd.check_contracting_set(tent.system, tent.potential, scale.region, scale.pieces)
            assert rep.ok

    def test_fullshift_holds_and_replays(self, shift2):
        v = vd.check_contracting(shift2.system, shift2.potential, 8)
        assert v.holds
        for scale in v.certificate.scales:
            rep = vd.check_contracting_set(
                shift2.system, shift2.potential, scale.region, scale.pieces
            )
            assert rep.ok

    # fullshift2's certificate is replayed by test_fullshift_holds_and_replays
    @pytest.mark.parametrize("name, status", [("loops2", "Fails"), ("golden_mean", "Holds")])
    def test_graph_certificates_replay(self, name, status):
        s = _golden_mean() if name == "golden_mean" else specfile.bundled(name)
        v = vd.check_contracting(s.system, s.potential, 8)
        assert v.status == status
        for scale in v.certificate.scales if v.holds else ():
            rep = vd.check_contracting_set(s.system, s.potential, scale.region, scale.pieces)
            assert rep.ok

    def test_loop1_fails_deterministic(self, loop1):
        v = vd.check_contracting(loop1.system, loop1.potential, 6)
        assert v.fails
        assert v.certificate.kind == "deterministic_inverse_orbits"

    def test_halving_fails_domain(self):
        s = specfile.bundled("halving")
        v = vd.check_contracting(s.system, s.potential, 6)
        assert v.fails
        assert v.certificate.kind == "domain_not_positive"
        assert v.certificate.detail.contains(F(1))

    def test_pure_contraction_obstructed(self, pure_contraction):
        sys_, pot = pure_contraction
        v = vd.check_contracting(sys_, pot, 6)
        assert v.fails
        assert v.certificate.kind == "no_expanding_branch"


def _built_chains(monkeypatch):
    """Record the chain of every composite branch built from now on."""
    built = []
    post_init = dyn.CompositeBranch.__post_init__

    def counted(self):
        built.append(self.chain)
        post_init(self)

    monkeypatch.setattr(dyn.CompositeBranch, "__post_init__", counted)
    return built


class TestCompositeWalk:
    """Each scan walks the levels of phi^n once, building each level once."""

    def test_top_free_builds_each_level_once(self, tent, monkeypatch):
        built = _built_chains(monkeypatch)
        v = vd.check_top_free(tent.system, tent.potential, 8)
        assert v.certificate.branches_scanned == len(built) == 510
        assert sorted(built, key=len) == built and len(set(built)) == len(built)

    def test_contracting_builds_each_level_once(self, tent, monkeypatch):
        built = _built_chains(monkeypatch)
        assert vd.check_contracting(tent.system, tent.potential, 8).holds
        assert len(set(built)) == len(built)
        assert max(map(len, built)) == 6


class TestDerivedVerdicts:
    def test_loop1_simple_fails(self, loop1):
        v = vd.verdict_simple(loop1.system, loop1.potential, 6)
        assert v.fails
        assert [p.property for p in v.certificate] == ["TopFree"]
        assert any("single circuit" in n for n in v.notes)

    def test_loops2_simple_fails_via_minimality(self, loops2):
        v = vd.verdict_simple(loops2.system, loops2.potential, 6)
        assert v.fails
        assert "Minimal" in [p.property for p in v.certificate]

    def test_fullshift_simple_holds(self, shift2):
        assert vd.verdict_simple(shift2.system, shift2.potential, 6).holds

    def test_tent_purely_infinite(self, tent):
        v = vd.verdict_purely_infinite(tent.system, tent.potential, 8)
        assert v.holds
        assert any("Kirchberg" in n for n in v.notes)

    def test_fullshift_purely_infinite(self, shift2):
        assert vd.verdict_purely_infinite(shift2.system, shift2.potential, 8).holds

    def test_halving_purely_infinite_fails(self):
        s = specfile.bundled("halving")
        assert vd.verdict_purely_infinite(s.system, s.potential, 6).fails

    def test_one_circuit(self, tent, loop1, loops2, shift2):
        assert vd.check_one_circuit(loop1.system, loop1.potential).holds
        assert vd.check_one_circuit(shift2.system, shift2.potential).fails
        assert vd.check_one_circuit(loops2.system, loops2.potential).fails
        assert vd.check_one_circuit(tent.system, tent.potential).fails


def _witness_norms(basis, fns):
    """Norm of a t - a sqrt(rho) in the orbit-tree representation, for each a."""
    sq = np.diag([math.sqrt(float(basis.potential.value_or_zero(nd.point))) for nd in basis.nodes])
    return [float(np.linalg.norm(basis.pi(f) @ (basis.T() - sq), 2)) for f in fns]


class TestWitnessNorms:
    def test_loop1_annihilated_in_orbit_rep(self, loop1):
        free = vd.check_top_free(loop1.system, loop1.potential, 6)
        orbit, regular = vd.periodic_witness_norms(
            loop1.system, loop1.potential, free.certificate, depth=6, width=16
        )
        assert orbit <= 1e-10
        assert regular >= 0.1

    def test_identity_window_annihilated(self, identity_system):
        sys_, pot = identity_system
        free = vd.check_top_free(sys_, pot, 4)
        orbit, regular = vd.periodic_witness_norms(sys_, pot, free.certificate, depth=4, width=12)
        assert orbit <= 1e-10
        assert regular >= 0.1

    def test_anchor_off_the_domain(self):
        # X = [0, 1] with one branch x -> 2x on [0, 1/2]: the anchor 3/4 lies in X minus the domain
        half = RationalInterval(0, F(1, 2))
        space = IntervalSet.of(RationalInterval(0, 1))
        system = dyn.PartialSystem(dyn.IntervalSystem(space, [dyn.AffineBranch(half, 2, 0)]))
        handle = tr.TransferHandle.create(system, dyn.IntervalPotential(((half, 0, 1),)))
        fns = [tr.TestFunction.hat(F(3, 4), F(1, 4), 1), tr.TestFunction.hat(F(3, 8), F(1, 8), 1)]
        at_anchor, below = _witness_norms(rep.OrbitBasis(handle, F(3, 4), 3), fns)
        # the weight is zero at the anchor, so a t - a sqrt(rho) vanishes for a hat there
        assert at_anchor == 0.0
        assert below == pytest.approx(2**0.5)

    def test_fullshift_no_annihilation(self, shift2):
        handle = tr.TransferHandle.create(shift2.system, shift2.potential)
        g = shift2.system.gph
        anchor = g.path_point(("e0",) * 4)
        fns = [
            tr.CylinderFunction.indicator(g.path_point(w))
            for w in (("e0",), ("e1",), ("e0", "e1"), ("e1", "e0"))
        ]
        assert min(_witness_norms(rep.OrbitBasis(handle, anchor, 5), fns)) >= 0.1
