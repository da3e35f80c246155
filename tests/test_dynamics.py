import dataclasses
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xferop import dynamics as dyn
from xferop import specfile
from xferop import spectra
from xferop import thermo as th
from xferop import transfer as tr
from xferop.errors import (
    DepthExceeded,
    OutOfDomain,
    ParseError,
    ValidationError,
)
from xferop.intervals import IntervalSet, RationalInterval


@pytest.fixture(scope="module")
def halving():
    return specfile.bundled("halving")


class TestIntervalSystem:
    def test_branch_overlap_rejected(self):
        space = IntervalSet.of(RationalInterval(0, 1))
        b0 = dyn.AffineBranch(RationalInterval(0, F(3, 4)), 1, 0)
        b1 = dyn.AffineBranch(RationalInterval(F(1, 2), 1), 1, 0)
        with pytest.raises(ValidationError):
            dyn.IntervalSystem(space, [b0, b1])

    def test_shared_endpoint_must_agree(self):
        space = IntervalSet.of(RationalInterval(0, 1))
        b0 = dyn.AffineBranch(RationalInterval(0, F(1, 2)), 1, 0)
        b1 = dyn.AffineBranch(RationalInterval(F(1, 2), 1), 1, -1)
        with pytest.raises(ValidationError):
            dyn.IntervalSystem(space, [b0, b1])

    def test_image_must_land_in_space(self):
        space = IntervalSet.of(RationalInterval(0, 1))
        with pytest.raises(ValidationError):
            dyn.IntervalSystem(space, [dyn.AffineBranch(RationalInterval(0, 1), 2, 0)])

    def test_tent_fibers(self, tent):
        sys_ = tent.system.ival
        assert sys_.fiber(F(1, 2)) == (F(1, 4), F(3, 4))
        assert sys_.fiber(1) == (F(1, 2),)
        assert sys_.fiber(0) == (F(0), F(1))

    def test_doubling_germs_at_seam(self, doubling):
        sys_ = doubling.system.ival
        germs = sys_.germs_at(F(1, 2))
        assert [(g.side, g.limit) for g in germs] == [(-1, F(1)), (1, F(0))]


class TestIteration:
    def test_tent_domains_are_everything(self, tent):
        for n in (1, 2, 5):
            assert dyn.iterate_domain(tent.system, n) == IntervalSet.of(RationalInterval(0, 1))

    def test_depth_guard(self, tent):
        with pytest.raises(DepthExceeded):
            dyn.iterate_domain(tent.system, tent.system.depth_bound + 1)

    def test_negative_step_counts_are_refused(self, tent):
        # PartialSystem.check_depth is the one guard every walk goes through
        system, pot = tent.system, tent.potential
        mu = tr.AtomicMeasure(((F(1, 3), 1),))
        tab = th._StateTable(tr.TransferHandle.create(system, pot), mu, th.PotentialFunction.const(system, 1), 0.7)
        ids, _ = tab.quad(1)
        for call in (
            lambda: system.check_depth(-1),
            lambda: dyn.iterate_domain(system, -1),
            lambda: dyn.preimages(system, pot, F(1, 3), -1),
            lambda: dyn.cocycle_or_none(system, pot, -1, F(1, 3)),
            lambda: spectra.positive_iterate(system, pot, -1),
            lambda: tab.cocycles(-1, ids),
            lambda: tab.fibres(-1, ids),
        ):
            with pytest.raises(ValidationError, match="^n must be nonnegative$"):
                call()

    def test_tent_preimage_counts(self, tent):
        # the right endpoint pulls back along one branch fewer than 0 does
        for n in range(1, 8):
            assert len(dyn.preimages(tent.system, tent.potential, 1, n)) == 2 ** (n - 1)
            assert len(dyn.preimages(tent.system, tent.potential, 0, n)) == 2 ** (n - 1) + 1

    def test_tent_level3_weights(self, tent):
        got = dyn.preimages(tent.system, tent.potential, 1, 3)
        assert got == tuple(
            (F(2 * j + 1, 8), F(1, 4)) for j in range(4)
        )

    def test_drop_zero(self, tent_half):
        # 3/4 is in the fibre of 1/2 but weighs zero, so the operator never sees it
        assert tent_half.system.map.fiber(F(1, 2)) == (F(1, 4), F(3, 4))
        pos = dyn.preimages(tent_half.system, tent_half.potential, F(1, 2), 1)
        assert pos == ((F(1, 4), F(1)),)

    def test_cocycle_out_of_domain_reports_step(self, tent_half):
        # orbit of 1/2 under tent: 1/2 -> 1 -> 0 -> 0, always inside
        assert dyn.cocycle_or_none(tent_half.system, tent_half.potential, 3, F(1, 2)) == 0
        ps = dyn.PartialSystem(
            dyn.IntervalSystem(
                IntervalSet.of(RationalInterval(0, 1)),
                [dyn.AffineBranch(RationalInterval(0, F(1, 2)), 1, 0)],
            ),
        )
        pot = dyn.PiecewiseAffine(pieces=((RationalInterval(0, F(1, 2)), 0, 1),))
        # 3/4 lies outside the only branch, so the walk leaves at once
        assert dyn.cocycle_or_none(ps, pot, 2, F(3, 4)) is None

    @given(st.integers(0, 255), st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_cocycle_is_multiplicative(self, num, n, m):
        tent = specfile.bundled("tent_std")
        x = F(num, 256)
        lhs = dyn.cocycle_or_none(tent.system, tent.potential, n + m, x)
        mid = dyn.orbit(tent.system, x, n)[-1]
        rhs = dyn.cocycle_or_none(tent.system, tent.potential, n, x) * dyn.cocycle_or_none(
            tent.system, tent.potential, m, mid
        )
        assert lhs == rhs


class TestRegions:
    def test_tent_regular_set(self, tent):
        rep = dyn.regular_set(tent.system, tent.potential)
        assert rep.delta == IntervalSet.of(RationalInterval(0, 1))
        assert rep.delta_pos == IntervalSet.of(RationalInterval(0, 1))
        assert rep.delta_reg == IntervalSet.of(RationalInterval(0, 1)).difference(IntervalSet.point(F(1, 2)))
        assert [(p.point, p.reason) for p in rep.irregular_points] == [
            (F(1, 2), "not_locally_injective")
        ]
        # the fold also jumps the weight; both reasons are kept
        assert rep.irregular_points[0].reasons == (
            "not_locally_injective",
            "rho_discontinuous",
        )

    def test_tent_half_regions(self, tent_half):
        rep = dyn.regular_set(tent_half.system, tent_half.potential)
        assert rep.delta_pos == IntervalSet.of(RationalInterval(0, F(1, 2)))
        assert rep.delta_reg == IntervalSet.of(RationalInterval(0, F(1, 2), True, False))
        reasons = {p.point: p.reason for p in rep.irregular_points}
        assert reasons[F(1, 2)] == "not_locally_injective"
        assert reasons[F(1)] == "zero_potential"

    def test_doubling_fully_regular(self, doubling):
        rep = dyn.regular_set(doubling.system, doubling.potential)
        assert rep.delta_reg == IntervalSet.of(RationalInterval(0, 1))
        assert rep.irregular_points == ()

    def test_halving_regular_set(self, halving):
        rep = dyn.regular_set(halving.system, halving.potential)
        assert rep.delta_reg == IntervalSet.of(RationalInterval(0, 1, True, False))
        assert [p.reason for p in rep.irregular_points] == ["zero_potential"]

    def test_regular_set_is_open(self, tent, tent_half, doubling, halving):
        for spec in (tent, tent_half, doubling, halving):
            rep = dyn.regular_set(spec.system, spec.potential)
            space = spec.system.ival.space
            assert rep.delta_reg.is_open_in(space)


class TestPower:
    """phi^n of the tent, through its composite branches and the cocycle."""

    def test_tent_square_branches(self, tent):
        *_, comps = dyn.composite_levels(tent.system.ival, 2)
        doms = sorted((c.domain.lo, c.domain.hi, c.slope) for c in comps)
        assert doms == [
            (F(0), F(1, 4), F(4)),
            (F(1, 4), F(1, 2), F(-4)),
            (F(1, 2), F(3, 4), F(4)),
            (F(3, 4), F(1), F(-4)),
        ]

    def test_tent_square_weight_is_chained(self, tent):
        for x in (F(1, 8), F(3, 8), F(5, 8), F(7, 8)):
            assert dyn.cocycle_or_none(tent.system, tent.potential, 2, x) == F(1, 4)
        for x in (F(1, 4), F(1, 2), F(3, 4)):
            assert dyn.cocycle_or_none(tent.system, tent.potential, 2, x) == F(1, 2)

    def test_power_agrees_with_orbit_product(self, tent):
        *_, comps = dyn.composite_levels(tent.system.ival, 3)
        for num in range(0, 65):
            x = F(num, 64)
            ends = {c.value(x) for c in comps if c.domain.contains(x)}
            assert ends == {dyn.orbit(tent.system, x, 3)[-1]}

    def test_levels_walk_parent_then_branch(self, tent):
        levels = list(dyn.composite_levels(tent.system.ival, 3))
        assert [c.chain for c in levels[2]] == list(itertools.product(range(2), repeat=3))
        for n, level in enumerate(levels, 1):
            for comp in level:
                prefixes = comp.prefix_maps()
                assert len(prefixes) == n and prefixes[0].slope == 1 and prefixes[0].intercept == 0
                assert [p.chain for p in prefixes[1:]] == [comp.chain[:k] for k in range(1, n)]

    def test_levels_are_lazy(self, tent, monkeypatch):
        built = []
        post_init = dyn.CompositeBranch.__post_init__

        def counted(self):
            built.append(len(self.chain))
            post_init(self)

        monkeypatch.setattr(dyn.CompositeBranch, "__post_init__", counted)
        walk = dyn.composite_levels(tent.system.ival, 8)
        assert built == []
        next(walk), next(walk)
        assert built == [1] * 2 + [2] * 4


class TestEssentialDomain:
    def test_tent_stabilizes_immediately(self, tent):
        ed, stab, at = dyn.essential_domain(tent.system, 6)
        assert ed == IntervalSet.of(RationalInterval(0, 1))
        assert stab and at == 1

    def test_halving_keeps_shrinking(self, halving):
        ed, stab, _ = dyn.essential_domain(halving.system, 5)
        assert ed == IntervalSet.of(RationalInterval(0, F(1, 32)))
        assert not stab

    def test_loop_with_tail(self):
        g = dyn.GraphSystem(
            ["u", "v"],
            [dyn.GraphEdge("e", "v", "v"), dyn.GraphEdge("f", "v", "u")],
        )
        ps = dyn.PartialSystem(g)
        ed, stab, _ = dyn.essential_domain(ps, 4)
        assert [str(a) for a in ed.cylinders] == ["eeee@v"]
        assert stab


class TestGraphSystem:
    def test_words_and_atoms(self):
        full = specfile.bundled("fullshift2").system.gph
        assert len(full.words(6)) == 64
        assert len(full.atoms(6)) == 64  # no finite boundary paths here

    def test_shift_undoes_prepend(self):
        full = specfile.bundled("fullshift2").system.gph
        p = full.path_point(("e0", "e1", "e0"))
        for q in full.fiber(p):
            assert full.phi(q) == p

    def test_inadmissible_word_rejected(self):
        loops = specfile.bundled("loops2").system.gph
        with pytest.raises(ValidationError):
            loops.path_point(("a", "b"))

    def test_terminal_vertex_is_exact(self):
        g = dyn.GraphSystem(
            ["u", "v"],
            [dyn.GraphEdge("f", "v", "u")],  # nothing continues past v
        )
        p = g.path_point(("f",))
        assert g.is_exact(p)
        assert g.fiber(g.vertex_point("v")) == (p,)
        assert g.fiber(g.vertex_point("u")) == ()
        # atoms at depth 2 include the stopped paths
        assert {str(a) for a in g.atoms(2)} == {"f@v", "()@v"}

    def test_repeated_vertex_refused(self):
        with pytest.raises(ValidationError, match="vertex names must be distinct"):
            dyn.GraphSystem(["a", "a"], [dyn.GraphEdge("e", "a", "a"), dyn.GraphEdge("f", "a", "a")])

    def test_loop1_is_singleton(self):
        g = specfile.bundled("loop1").system.gph
        assert g.is_singleton(g.vertex_point("v"))
        assert not g.is_exact(g.vertex_point("v"))


class TestPartialSystem:
    @pytest.mark.parametrize("name", ["loop1", "loops2", "fullshift2"])
    def test_path_points_sort_by_sort_key(self, name):
        points = list(specfile.bundled(name).system.gph.atoms(4))
        random.Random(0).shuffle(points)
        assert sorted(points) == sorted(points, key=dyn.PathPoint.sort_key)

    @pytest.mark.parametrize("m", [None, "interval", IntervalSet.of(RationalInterval(0, 1))])
    def test_refuses_other_maps(self, m):
        with pytest.raises(ValidationError, match="unknown map type"):
            dyn.PartialSystem(m)

    def test_backend_accessors_refuse_the_other_backend(self, tent):
        graph = specfile.bundled("loop1").system
        assert (tent.system.backend, graph.backend) == ("interval", "graph")
        assert tent.system.ival is tent.system.map and graph.gph is graph.map
        with pytest.raises(ValidationError, match="^operation needs the graph backend$"):
            tent.system.gph
        with pytest.raises(ValidationError, match="^operation needs the interval backend$"):
            graph.ival


class TestPointProtocol:
    def test_interval_points(self, tent):
        m = tent.system.map
        assert m.summary() == "branches: 2"
        assert m.default_samples() == [0, F(1, 2), 1]
        assert m.default_anchor(dyn.regular_set(tent.system, tent.potential).delta_reg) == F(1, 4)
        assert m.point_text(m.parse_point(" 0.25 ")) == "1/4"
        with pytest.raises(ParseError, match=r"^point 2 lies outside the space \[0, 1\]$"):
            m.point_from_doc({"point": "2"})

    def test_interval_restriction_cuts_branch_domains(self, tent):
        reg = dyn.regular_set(tent.system, tent.potential).delta_reg
        cut, note = tent.system.map.restricted(reg)
        assert note == "branch domains cut to [0, 1/2) u (1/2, 1]"
        assert [str(b.domain) for b in cut.branches] == ["[0, 1/2)", "(1/2, 1]"]

    def test_graph_points(self, shift2):
        m = shift2.system.map
        assert m.summary() == "vertices: 1; edges: 2"
        assert [m.point_text(p) for p in m.default_samples()] == ["e0", "e1"]
        assert m.point_text(m.default_anchor(m.delta)) == "e0.e0"
        assert m.point_text(m.parse_point("@v")) == "@v"
        assert m.restricted(m.delta) == (m, "dropped edges: none")


def _piece_ends_and_overrides(pot):
    ends = {x for iv, _, _ in pot.pieces for x in (iv.lo, iv.hi)}
    return ends | {x for x, _ in pot.overrides}


class TestPotentialTypes:
    @pytest.mark.parametrize("name", ["tent_std", "tent_half", "doubling", "halving"])
    @pytest.mark.parametrize("field", ["potential", "psi"])
    def test_breakpoints_are_piece_ends_and_overrides(self, name, field):
        pot = getattr(specfile.bundled(name), field)
        assert pot.breakpoints() == _piece_ends_and_overrides(pot)

    def test_breakpoints_of_a_power_weight(self):
        # the chained weight of the tent's square: 1/4 on each quarter and the
        # cocycle 1/2 at the three inner seams
        quarters = [RationalInterval(F(k, 4), F(k + 1, 4)) for k in range(4)]
        pot = dyn.PiecewiseAffine(
            tuple((iv, 0, F(1, 4)) for iv in quarters),
            overrides=tuple((F(k, 4), F(1, 2)) for k in (1, 2, 3)),
        )
        assert pot.breakpoints() == _piece_ends_and_overrides(pot)
        assert pot.breakpoints() == {F(0), F(1, 4), F(1, 2), F(3, 4), F(1)}

    def test_breakpoints_keep_an_interior_override(self):
        pot = dyn.PiecewiseAffine(((RationalInterval(0, 1), 0, 1),), overrides=((F(1, 3), 2),))
        assert pot.breakpoints() == {F(0), F(1, 3), F(1)}

    def test_backend_is_not_a_field(self, tent, shift2):
        assert (tent.potential.backend, shift2.potential.backend) == ("interval", "graph")
        for cls in (dyn.PiecewiseAffine, dyn.GraphPotential):
            assert "backend" not in {f.name for f in dataclasses.fields(cls)}

    def test_graph_value_is_the_first_edge_weight(self, shift2):
        g = shift2.system.gph
        pot = dyn.GraphPotential((("e0", F(1, 3)), ("e1", F(2))))
        assert pot.value(g.path_point(("e1", "e0"))) == 2
        assert pot.value(g.path_point(("e0",))) == F(1, 3)
        with pytest.raises(OutOfDomain):
            pot.value(g.vertex_point("v"))

    def test_value_or_zero_is_zero_off_the_domain(self, shift2):
        half = RationalInterval(0, F(1, 2))
        pot = dyn.PiecewiseAffine(((half, 0, 1),), overrides=((F(1, 2), 3),))
        assert [pot.value_or_zero(x) for x in (F(1, 4), F(1, 2), F(3, 4))] == [1, 3, 0]
        g = shift2.system.gph
        gpot = dyn.GraphPotential((("e0", F(1, 3)), ("e1", F(2))))
        assert gpot.value_or_zero(g.path_point(("e1", "e0"))) == 2
        assert gpot.value_or_zero(g.vertex_point("v")) == 0

    def test_graph_potential_takes_no_pieces(self):
        with pytest.raises(TypeError):
            dyn.GraphPotential(pieces=((RationalInterval(0, 1), 0, 1),))

    def test_interval_potential_takes_no_weights(self):
        with pytest.raises(TypeError):
            dyn.PiecewiseAffine(weights=(("e", F(1)),))


# CylinderSet against a brute-force model: each cylinder is the set of depth-D
# atoms it holds, with D above every word length drawn
SINK_GRAPH = dyn.GraphSystem(
    ["t", "u"], [dyn.GraphEdge("a", "u", "u"), dyn.GraphEdge("f", "t", "u")]
)
CYL_GRAPHS = {
    "loops2": specfile.bundled("loops2").system.gph,
    "fullshift2": specfile.bundled("fullshift2").system.gph,
    "sink": SINK_GRAPH,
}
MAX_WORD = 3


def _atoms_of(g, cyls):
    return frozenset(
        a
        for a in g.atoms(MAX_WORD + 1)
        for c in cyls
        if a.rng == c.rng and a.word[: len(c.word)] == c.word
    )


@st.composite
def cylinder_sets(draw, g):
    pool = [w for n in range(MAX_WORD + 1) for w in g.words(n)]
    return dyn.CylinderSet(g, draw(st.lists(st.sampled_from(pool), max_size=4)))


@st.composite
def cylinder_pairs(draw):
    g = CYL_GRAPHS[draw(st.sampled_from(sorted(CYL_GRAPHS)))]
    return g, draw(cylinder_sets(g)), draw(cylinder_sets(g))


@settings(max_examples=300)
@given(cylinder_pairs())
def test_cylinder_set_matches_atom_model(pair):
    g, s, t = pair
    ms, mt = _atoms_of(g, s), _atoms_of(g, t)
    assert _atoms_of(g, s.union(t)) == ms | mt
    assert _atoms_of(g, s.intersection(t)) == ms & mt
    assert s.intersects(t) == bool(ms & mt)
    assert s.issubset(t) == (ms <= mt)
    assert (s == t) == (ms == mt)
    # normal form: sorted, no member inside another
    cyls = s.cylinders
    assert list(cyls) == sorted(cyls, key=dyn.PathPoint.sort_key)
    assert not any(b.contains(c) for i, b in enumerate(cyls) for c in cyls[i + 1 :])
    # a note is printed, ignored by == and dropped by every operation
    noted = s.noted("a note")
    assert noted == s and str(noted) == f"{s}  (a note)"
    assert noted.cylinders == s.cylinders
    for out in (noted.union(t), t.union(noted), noted.intersection(t), t.intersection(noted)):
        assert out.note == "" and "a note" not in str(out)


@pytest.mark.parametrize("name", ["loops2", "fullshift2"])
def test_cylinder_set_contains(name):
    g = CYL_GRAPHS[name]
    pool = [w for n in range(MAX_WORD + 1) for w in g.words(n)]
    assert all(g.space.contains(p) for p in pool)
    for n in (1, 2):
        words = g.words(n)
        for k in range(len(words) + 1):
            for members in itertools.combinations(words, k):
                s = dyn.CylinderSet(g, members)
                for p in pool:
                    assert s.contains(p) == dyn.CylinderSet(g, (p,)).issubset(s)
                    assert s.contains(p) == (_atoms_of(g, (p,)) <= _atoms_of(g, s))


def test_spec_roundtrip_all_bundled():
    for name in specfile.BUNDLED:
        doc = specfile.serialize_spec(specfile.bundled(name))
        assert specfile.spec_roundtrip(doc)


# The graph forks iterate_domain, level_space and essential_domain had before
# they ran the shared set loops, kept as references: the n-step domain is the
# n-words, the level space the vertices ending a k-word, and the essential
# domain the depth atoms that survive source propagation.
def _printed(points, note=""):
    return "{" + ", ".join(str(p) for p in points) + "}" + (f"  ({note})" if note else "")


def _reference_iterate_domain(g, n):
    return _printed(g.words(n), f"paths of length >= {n}")


def _reference_level_space(g, k):
    ends = sorted({w.end for w in g.words(k)})
    return _printed((g.vertex_point(v) for v in ends), f"tails reachable by {k} shifts")


def _source_propagation(g, n):
    current = frozenset(g.vertices)
    for _ in range(n):
        current = frozenset(e.src for e in g.edges if e.rng in current)
    return current


def _reference_essential_domain(g, depth):
    atoms = g.atoms(depth)
    partial = None
    stabilized_at = None
    for n in range(1, depth + 1):
        sn = _source_propagation(g, n)
        fn = frozenset(a for a in atoms if len(a.word) >= n and a.rng in sn)
        new = fn if partial is None else partial & fn
        if partial is not None and new == partial and stabilized_at is None:
            stabilized_at = n - 1
        elif new != partial:
            stabilized_at = None
        partial = new
    return _printed(sorted(partial, key=dyn.PathPoint.sort_key)), stabilized_at


def _graph(vertices, edges):
    return dyn.GraphSystem(vertices, [dyn.GraphEdge(*e) for e in edges])


MERGED_GRAPHS = {
    "loop1": specfile.bundled("loop1").system.gph,
    "loops2": specfile.bundled("loops2").system.gph,
    "fullshift2": specfile.bundled("fullshift2").system.gph,
    "golden_mean": _graph(["a", "b"], [("aa", "a", "a"), ("ab", "a", "b"), ("ba", "b", "a")]),
    "tail": _graph(["u", "v"], [("e", "v", "v"), ("f", "v", "u")]),
    "sink": SINK_GRAPH,
}


@pytest.mark.parametrize("name", sorted(MERGED_GRAPHS))
def test_merged_graph_paths_match_the_reference(name):
    g = MERGED_GRAPHS[name]
    system = dyn.PartialSystem(g)
    pot = dyn.GraphPotential(tuple((e.name, F(1)) for e in g.edges))
    for n in range(1, 9):
        assert str(dyn.iterate_domain(system, n)) == _reference_iterate_domain(g, n)
        assert str(spectra.level_space(system, pot, n)) == _reference_level_space(g, n)
        ess, stabilized, at = dyn.essential_domain(system, n)
        assert (str(ess), at) == _reference_essential_domain(g, n)
        assert stabilized == (at is not None)


@pytest.mark.parametrize("name", sorted(MERGED_GRAPHS))
def test_graph_delta_is_the_preimage_of_the_space(name):
    g = MERGED_GRAPHS[name]
    assert g.delta.cylinders == g.words(1)
    assert g.delta.sample_points() == g.delta.cylinders
    pot = dyn.GraphPotential(tuple((e.name, F(1)) for e in g.edges))
    assert pot.positive_part(g.delta) is g.delta


def test_interval_positive_part_drops_the_zero_set(tent_half):
    delta = tent_half.system.ival.delta
    pot = tent_half.potential
    assert pot.positive_part(delta) == delta.difference(pot.zero_set(delta))
    assert delta.noted("ignored") is delta
