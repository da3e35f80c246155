"""The one forward walk and the graph's cycles and reach, against the loops they replaced.

The references below are the walks as the verdict, groupoid and spectra
modules wrote them before ``dynamics.forward_walk``, ``GraphSystem.cycles``
and ``GraphSystem.reach`` took their place; each new walk must answer exactly
as its reference does, in the same order.
"""

import functools
import itertools
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

from xferop import dynamics as dyn
from xferop import specfile
from xferop import spectra
from xferop import verdicts as vd
from xferop.cli import main
from xferop.errors import OutOfDomain, ValidationError, XferopError
from xferop.intervals import IntervalSet, RationalInterval

# -- references -------------------------------------------------------------


def _simple_cycles(gph):
    """Simple cycles of the walk digraph v -> src(e), e in continuations(v)."""
    order = {v: i for i, v in enumerate(sorted(gph.vertices))}
    cycles = []

    def visit(start, v, path, seen):
        for e in gph.continuations(v):
            w = e.src
            if w == start:
                cycles.append(tuple(path + [e.name]))
            elif order[w] > order[start] and w not in seen:
                visit(start, w, path + [e.name], seen | {w})

    for start in sorted(gph.vertices, key=order.get):
        visit(start, start, [], {start})
    return tuple(cycles)


def _cycle_exit(gph, cycle):
    """An alternative continuation at some vertex of the cycle, if any."""
    for name in cycle:
        v = gph.edge_by_name[name].rng
        for e in gph.continuations(v):
            if e.name != name:
                return e.name
    return None


def _reaches_all_atoms(gph, target, depth):
    """Every short word can be continued to reach the target vertex."""
    reach = {target}
    frontier = {target}
    for _ in range(len(gph.vertices) + 1):
        frontier = {e.rng for e in gph.edges if e.src in frontier} - reach
        reach |= frontier
    return all(w.end in reach for w in gph.words(min(depth // 2, 3)))


def _walks_into(gph, v, targets):
    seen = {v}
    frontier = {v}
    while frontier:
        frontier = {e.src for e in gph.edges if e.rng in frontier} - seen
        if frontier & targets:
            return True
        seen |= frontier
    return False


def _max_orbit(system, x, cap):
    out = [x]
    for _ in range(cap):
        try:
            out.append(system.map.phi(out[-1]))
        except OutOfDomain:
            break
    return tuple(out)


def _orbit(system, x, n):
    f = system.map
    out = [f.point(x)]
    for step in range(n):
        try:
            out.append(f.phi(out[-1]))
        except OutOfDomain:
            raise OutOfDomain(x, step) from None
    return tuple(out)


def _cocycle(system, pot, n, x):
    if n < 0:
        raise ValidationError("n must be nonnegative")
    system.check_depth(n)
    out = F(1)
    f = system.map
    z = f.point(x)
    for step in range(n):
        try:
            nxt = f.phi(z)
        except OutOfDomain:
            raise OutOfDomain(x, step) from None
        out *= pot.value(z)
        z = nxt
    return out


def _forward_part_of_orbit_set(system, pot, x, depth):
    """The forward loop of ``spectra._orbit_set`` as it was."""
    fwd = [system.point(x)]
    for _ in range(depth):
        z = fwd[-1]
        try:
            nxt = system.map.phi(z)
        except OutOfDomain:
            break
        if pot.value(z) == 0:
            break
        fwd.append(nxt)
    return fwd


def _outcome(fn, *args):
    """What a call answers: its value, or the type, message, point and step it raised."""
    try:
        return ("value", fn(*args))
    except XferopError as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "point", None),
                getattr(exc, "step", None))


# -- small graphs -----------------------------------------------------------


def _small_graphs():
    """Every graph on at most 3 vertices with at most 4 edges, as edge multisets,
    each with its edges and its vertices listed both ways round (the order of
    ``continuations`` and of ``vertices`` picks cycles, exits and listings)."""
    for nv in (1, 2, 3):
        names = "abc"[:nv]
        pairs = list(itertools.product(names, repeat=2))
        for k in range(5):
            for edges in itertools.combinations_with_replacement(pairs, k):
                for es in {edges, edges[::-1]}:
                    for vs in {names, names[::-1]}:
                        yield dyn.GraphSystem(
                            tuple(vs),
                            [dyn.GraphEdge(f"e{i}", s, r) for i, (s, r) in enumerate(es)],
                        )


SMALL_GRAPHS = list(_small_graphs())


def test_the_small_graphs_cover_every_shape():
    shapes = {(len(g.vertices), len(g.edges)) for g in SMALL_GRAPHS}
    assert shapes == {(nv, k) for nv in (1, 2, 3) for k in range(5)}
    assert len(SMALL_GRAPHS) > 2000


def test_cycles_pair_each_simple_cycle_with_its_first_exit():
    for g in SMALL_GRAPHS:
        want = tuple((c, _cycle_exit(g, c)) for c in _simple_cycles(g))
        assert g.cycles == want, (g.vertices, g.edges)


def test_reach_is_the_walk_into_a_set():
    for g in SMALL_GRAPHS:
        for r in range(len(g.vertices) + 1):
            for targets in itertools.combinations(g.vertices, r):
                reach = g.reach(targets)
                assert set(targets) <= reach <= set(g.vertices)
                for v in set(g.vertices) - set(targets):
                    assert (v in reach) == _walks_into(g, v, set(targets)), (g.edges, v, targets)


def test_reach_decides_what_reaches_all_atoms_decided():
    for g in SMALL_GRAPHS:
        for target, depth in itertools.product(g.vertices, (1, 2, 4, 6)):
            reach = g.reach({target})
            got = all(w.end in reach for w in g.words(min(depth // 2, 3)))
            assert got == _reaches_all_atoms(g, target, depth), (g.edges, target, depth)


def _one_circuit_reference(g, depth):
    """``check_one_circuit`` on a graph, written with the old helpers."""
    cycles = _simple_cycles(g)
    if len(cycles) != 1:
        return vd.Verdict("OneCircuit", "Fails", vd.Obstruction("cycle_count", cycles), depth)
    cyc = cycles[0]
    ex = _cycle_exit(g, cyc)
    if ex is not None:
        return vd.Verdict("OneCircuit", "Fails", vd.Obstruction("cycle_has_exit", (cyc, ex)), depth)
    on_cycle = {g.edge_by_name[n].rng for n in cyc}
    stranded = [v for v in g.vertices if v not in on_cycle and not _walks_into(g, v, on_cycle)]
    if stranded:
        return vd.Verdict(
            "OneCircuit", "Fails", vd.Obstruction("unreached_vertices", tuple(stranded)), depth
        )
    return vd.Verdict("OneCircuit", "Holds", vd.CycleNoExit(cyc), depth)


def _top_free_reference(g, depth):
    """The graph half of ``check_top_free``, written with the old helpers."""
    cycles = _simple_cycles(g)
    witnessed = []
    for cyc in cycles:
        ex = _cycle_exit(g, cyc)
        if ex is None:
            return vd.Verdict("TopFree", "Fails", vd.CycleNoExit(cyc), depth)
        witnessed.append((cyc, ex))
    return vd.Verdict("TopFree", "Holds", vd.FreeScan(depth, len(cycles), tuple(witnessed)), depth)


def test_graph_verdicts_print_as_the_old_helpers_made_them():
    for g in SMALL_GRAPHS:
        system = dyn.PartialSystem(g)
        pot = dyn.GraphPotential(tuple((e.name, F(1)) for e in g.edges))
        for check, reference in ((vd.check_one_circuit, _one_circuit_reference),
                                 (vd.check_top_free, _top_free_reference)):
            got, want = check(system, pot, 2), reference(g, 2)
            assert (got, str(got.certificate)) == (want, str(want.certificate))
        infinite = any(_cycle_exit(g, c) is not None for c in _simple_cycles(g))
        assert vd._regular_set_infinite(system, pot) == infinite


# -- the forward walk ---------------------------------------------------------


def _graph_cases():
    for name in ("loop1", "loops2", "fullshift2"):
        s = specfile.bundled(name)
        g = s.system.gph
        for k in range(4):
            for p in g.words(k):  # a word of length k leaves at step k
                yield s.system, s.potential, p


def _gappy_map():
    """x -> 2x on [0, 1/2] inside [0, 1]: the domain misses (1/2, 1], and the
    weight is defined on [0, 1/4] only, so it raises before the walk leaves."""
    system = dyn.PartialSystem(
        dyn.IntervalSystem(IntervalSet.of(RationalInterval(0, 1)), [dyn.AffineBranch(RationalInterval(0, F(1, 2)), 2, 0)])
    )
    pot = dyn.PiecewiseAffine(pieces=((RationalInterval(0, F(1, 4)), 1, 1),))
    return system, pot


def _interval_cases():
    system, pot = _gappy_map()
    full = dyn.PiecewiseAffine(pieces=((RationalInterval(0, 1), 0, 2),))
    for j in range(17):
        for weight in (pot, full):
            yield system, weight, F(j, 16)


WALK_CASES = [*_graph_cases(), *_interval_cases()]


def test_the_walk_cases_leave_at_every_step():
    steps = set()
    for system, _, x in WALK_CASES:
        try:
            _orbit(system, x, 5)
        except OutOfDomain as exc:
            steps.add(exc.step)
    assert steps == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("n", range(6))
def test_forward_walk_matches_the_old_loops(n):
    for system, pot, x in WALK_CASES:
        assert dyn.forward_walk(system, x, n) == _max_orbit(system, x, n)
        old = _outcome(_orbit, system, x, n)
        assert _outcome(dyn.orbit, system, x, n) == old
        assert dyn.orbit_end(system, x, n) == (old[1][-1] if old[0] == "value" else None)
        old = _outcome(_cocycle, system, pot, n, x)
        leaves = old[0] == "raised" and old[1] is OutOfDomain
        if not leaves:
            assert _outcome(dyn.cocycle_or_none, system, pot, n, x) == old
        else:
            assert dyn.cocycle_or_none(system, pot, n, x) is None


def test_a_weight_that_raises_still_raises_before_the_walk_leaves():
    system, pot = _gappy_map()
    # 3/16 -> 3/8 -> 3/4 leaves at step 2, but the weight at 3/8 raises first
    with pytest.raises(XferopError, match="potential undefined at 3/8"):
        dyn.cocycle_or_none(system, pot, 3, F(3, 16))
    with pytest.raises(OutOfDomain) as exc:
        dyn.orbit(system, F(3, 16), 3)
    assert (exc.value.point, exc.value.step) == (F(3, 16), 2)


@pytest.mark.parametrize("name", ["tent_std", "tent_half", "doubling", "fullshift2", "loops2"])
def test_orbit_sets_cut_where_the_old_loop_stopped(name):
    s = specfile.bundled(name)
    samples = s.system.map.default_samples()
    for depth in (1, 2, 3):
        for x in samples:
            want = set()
            for target in _forward_part_of_orbit_set(s.system, s.potential, x, depth):
                for level in range(depth + 1):
                    want.update(q for q, _ in dyn.preimages(s.system, s.potential, target, level))
            assert spectra._orbit_set(s.system, s.potential, x, depth) == want


# -- one enumeration per graph -------------------------------------------------


def _counting_cycles(monkeypatch):
    """Record each run of the body of ``GraphSystem.cycles``."""
    runs = []
    body = dyn.GraphSystem.cycles.func

    def counting(self):
        runs.append(self)
        return body(self)

    prop = functools.cached_property(counting)
    prop.__set_name__(dyn.GraphSystem, "cycles")
    monkeypatch.setattr(dyn.GraphSystem, "cycles", prop)
    return runs


@pytest.mark.parametrize(
    "cell",
    [["report", "--spec", "fullshift2"], ["check", "simple", "--spec", "loops2"]],
    ids=["report", "check-simple"],
)
def test_cycles_are_enumerated_once_per_command(cell, monkeypatch):
    # the old helpers enumerated them 4 times for report and 3 for check simple
    runs = _counting_cycles(monkeypatch)
    result = CliRunner().invoke(main, cell)
    assert result.exit_code in (0, 1), result.output
    assert len(runs) == 1
