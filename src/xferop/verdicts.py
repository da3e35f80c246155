"""Bounded-depth decision procedures for dynamical properties.

Each checker returns a three-valued Verdict.  Holds and Fails always carry a
certificate that can be re-verified independently (an identity window, an
invariant open set, a contracting tuple, a cycle).  Unknown means the search
exhausted its depth budget without deciding; it never masquerades as Fails
unless a structural obstruction is proven.

No check walks a graph itself: the graph halves read the simple cycles with
their exits (``GraphSystem.cycles``, computed once per graph) and the vertices
that walk into a set (``GraphSystem.reach``), which is where condition (L) and
cofinality live.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import dynamics as dyn
from .dynamics import CylinderSet, PartialSystem, PathPoint, Potential
from .errors import ValidationError, XferopError
from .intervals import IntervalSet, Q, RationalInterval

PROPERTIES = (
    "TopFree",
    "Minimal",
    "Contracting",
    "Simple",
    "PurelyInfiniteSimple",
    "OneCircuit",
    "PositiveEnergy",
)
STATUSES = ("Holds", "Fails", "Unknown")


@dataclass(frozen=True)
class Verdict:
    property: str
    status: str
    certificate: object = None
    depth: int = 0
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.property not in PROPERTIES:
            raise ValidationError(f"unknown property {self.property}")
        if self.status not in STATUSES:
            raise ValidationError(f"unknown status {self.status}")
        if self.status == "Unknown":
            if self.certificate is not None:
                raise ValidationError("Unknown carries only the exhausted depth")
        elif self.certificate is None:
            raise ValidationError(f"{self.status} requires a certificate")

    @property
    def holds(self) -> bool:
        return self.status == "Holds"

    @property
    def fails(self) -> bool:
        return self.status == "Fails"

    def __str__(self) -> str:
        return f"{self.property}: {self.status} (depth {self.depth})"


# -- certificate payloads ---------------------------------------------------


@dataclass(frozen=True)
class PeriodicWindow:
    """An interval with interior in X on which some n-fold composite is the
    identity: nondegenerate, or a point isolated in X, which is open in X."""

    n: int
    window: RationalInterval
    chain: tuple[int, ...]

    def covers(self, pt) -> bool:
        """Whether ``pt`` lies in the window."""
        return self.window.contains(pt)


@dataclass(frozen=True)
class FreeScan:
    """Search log for a Holds(TopFree) verdict: what was exhausted."""

    depth: int
    branches_scanned: int
    cycles: tuple[tuple[tuple[str, ...], str], ...] = ()


@dataclass(frozen=True)
class CycleNoExit:
    edges: tuple[str, ...]

    def covers(self, pt: PathPoint) -> bool:
        """Whether ``pt`` starts with a rotation of the circuit."""
        cyc, n = self.edges, len(self.edges)
        return any(pt.word[:n] == cyc[j:] + cyc[:j] for j in range(n))


@dataclass(frozen=True)
class InvariantSet:
    """A nontrivial open set closed under the forward and backward moves."""

    region: object  # IntervalSet or tuple[PathPoint, ...]

    def __post_init__(self):
        if isinstance(self.region, CylinderSet):
            object.__setattr__(self, "region", self.region.cylinders)


@dataclass(frozen=True)
class MinimalScan:
    """Search log for a Holds(Minimal) verdict.

    ``depth`` is the scan depth and ``seeds`` the number of seeds read; a
    Holds verdict reads every seed.  ``iterations`` is the configured bound
    on closure steps per seed, ``4*depth``, not the steps used.
    """

    depth: int
    seeds: int
    iterations: int


@dataclass(frozen=True)
class ContractingTuple:
    region: object  # V
    pieces: tuple[tuple[object, int], ...]  # (U_k, n_k)


@dataclass(frozen=True)
class ContractingCert:
    x0: object
    orbit_points: int
    resolution: Fraction
    scales: tuple[ContractingTuple, ...]


@dataclass(frozen=True)
class Obstruction:
    """A structural reason a property fails, re-checkable from the system."""

    kind: str
    detail: object = None


@dataclass(frozen=True)
class ContractingReport:
    ok: bool
    violated: Optional[str] = None
    detail: str = ""


# -- shared geometry --------------------------------------------------------


def _regions(system: PartialSystem, pot: Potential):
    """(map, space, pos, reg): the backend's map, X, and the positive and
    regular parts of the domain, all as open sets of the backend's type.

    On graphs the shift is locally injective and every edge weight is
    positive, so both parts are the length-1 cylinders.
    """
    report = dyn.regular_set(system, pot)
    f = system.map
    return f, f.space, report.delta_pos, report.delta_reg


def _open_set(system: PartialSystem, region):
    """A region as the backend's open-set type.

    Accepts that type itself, a ``RationalInterval``, a ``PathPoint`` or a
    sequence of path points.
    """
    if isinstance(region, (IntervalSet, CylinderSet)):
        return region
    if isinstance(region, RationalInterval):
        return IntervalSet.of(region)
    if isinstance(region, PathPoint):
        region = (region,)
    return CylinderSet(system.gph, region)


# -- topological freeness ---------------------------------------------------


def check_top_free(system: PartialSystem, pot: Potential, depth: int = 8) -> Verdict:
    """Scan for periodic behaviour with nonempty interior over the regular set."""
    system.check_scan_depth(depth)
    if system.backend == "graph":
        cycles = system.gph.cycles
        for cyc, ex in cycles:
            if ex is None:
                return Verdict("TopFree", "Fails", CycleNoExit(cyc), depth)
        return Verdict("TopFree", "Holds", FreeScan(depth, len(cycles), cycles), depth)

    sys_, space, _, reg = _regions(system, pot)
    isolated = IntervalSet.points(space.isolated_points())
    scanned = 0
    for n, level in enumerate(dyn.composite_levels(sys_, depth), 1):
        for comp in level:
            scanned += 1
            d = comp.domain  # an affine map is the identity there iff it fixes both ends
            if comp.value(d.lo) != d.lo or comp.value(d.hi) != d.hi:
                continue
            stay = IntervalSet.of(d)
            for prefix in comp.prefix_maps():
                stay = stay.intersection(prefix.preimage_of(reg))
            # a fixed point isolated in X is open, so it has interior too
            window = stay.nondegenerate() or stay.intersection(isolated)
            if not window.is_empty:
                cert = PeriodicWindow(n, window.intervals[0], comp.chain)
                return Verdict("TopFree", "Fails", cert, depth)
    return Verdict("TopFree", "Holds", FreeScan(depth, scanned), depth)


def verify_periodic_window(system: PartialSystem, pot: Potential, cert: PeriodicWindow) -> bool:
    """Replay a Fails(TopFree) certificate pointwise and on the regular set.

    No command calls it yet: it is kept as the replayer a certificate
    check (``verify-cert``, ROADMAP item 5) will run on a saved window.
    """
    _, space, _, reg = _regions(system, pot)
    window = IntervalSet.of(cert.window)
    if window.nondegenerate().is_empty and cert.window.lo not in space.isolated_points():
        return False
    for x in window.sample_points(5):
        pts = dyn.orbit(system, x, cert.n)
        if pts[-1] != x:
            return False
        if any(not reg.contains(p) for p in pts[:-1]):
            return False
    return True


# -- invariance and minimality ----------------------------------------------


def check_invariant(system: PartialSystem, pot: Potential, region) -> tuple[bool, bool]:
    """Exact (positively, negatively) invariance of an open set."""
    sys_, _, pos, reg = _regions(system, pot)
    u = _open_set(system, region)
    positively = sys_.image_of(u.intersection(pos)).issubset(u)
    negatively = sys_.preimage_of(u).intersection(reg).issubset(u)
    return positively, negatively


def _replay_invariant(system: PartialSystem, pot: Potential, region) -> None:
    """Re-check a Fails(Minimal) certificate; an explicit raise survives ``-O``."""
    if check_invariant(system, pot, region) != (True, True):
        raise XferopError(f"minimality certificate {region} is not an invariant open set")


def _closure_step(sys_, pos, reg, u, img=None):
    """``u | phi(u & pos) | (phi^-1(u) & reg)``: one full closure step.

    ``img``, when given, is the image half ``phi(u & pos)``, already built
    by the caller.  ``check_minimal`` builds it first and looks the memo up
    in it, since ``img`` lies inside the step: a recorded seed inside
    ``img`` decides the seed, and the preimage half is never built.
    """
    if img is None:
        img = sys_.image_of(u.intersection(pos))
    return u.union(img).union(sys_.preimage_of(u).intersection(reg))


def _order_float(x: Fraction) -> float:
    """``float(x)``, or an infinity of its sign past the float range: still
    non-strictly monotone, which is all the memo's filter needs."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


class _SaturationMemo:
    """Seeds known to reach X, each with the steps within which it does.

    For interval seeds it also keeps the float ends of the first component,
    so that a lookup tests ``issubset`` exactly only on the few seeds that
    pass a float filter.  The arrays double when full, since the scan does
    not know ahead how many seeds it reads.
    """

    def __init__(self):
        self.seeds: list = []
        self.steps = np.empty(16, dtype=np.int64)
        self.lo = np.zeros(16)
        self.hi = np.zeros(16)

    def record(self, seed, steps: int) -> None:
        n = len(self.seeds)
        if n == len(self.steps):
            self.steps, self.lo, self.hi = (
                np.concatenate((a, np.zeros_like(a))) for a in (self.steps, self.lo, self.hi)
            )
        self.seeds.append(seed)
        self.steps[n] = steps
        if isinstance(seed, IntervalSet):
            first = seed.intervals[0]
            self.lo[n], self.hi[n] = _order_float(first.lo), _order_float(first.hi)

    def lookup(self, u, j: int, max_iter: int) -> Optional[int]:
        """``j + K`` for the newest recorded seed inside ``u`` whose bound K
        meets ``j + K < max_iter``, or None.

        An interval seed lies in ``u`` only if its first component lies in
        one component b of ``u``: b ends no earlier and starts no later.
        Converting a Fraction to float is correctly rounded, so it keeps
        order (``x <= y`` gives ``float(x) <= float(y)``), and so does
        reading an end past the float range as an infinity of its sign.
        Hence b comes no earlier than the first component whose float right
        end is at least the seed's, and as left ends increase, that
        component's float left end is at most the seed's.  The filter keeps only the seeds meeting
        this, with one ``searchsorted``: it needs no margin and never drops
        a seed that lies in ``u``.
        """
        n = len(self.seeds)
        keep = j + self.steps[:n] < max_iter
        if isinstance(u, IntervalSet):
            lo = np.array([_order_float(iv.lo) for iv in u.intervals] + [math.inf])
            hi = np.array([_order_float(iv.hi) for iv in u.intervals])
            first = np.searchsorted(hi, self.hi[:n])
            keep &= lo[first] <= self.lo[:n]
        for i in np.flatnonzero(keep)[::-1]:
            if self.seeds[i].issubset(u):
                return j + int(self.steps[i])
        return None


def check_minimal(system: PartialSystem, pot: Potential, depth: int = 8) -> Verdict:
    """Grow each seeded open set to its invariant closure and compare with X.

    Seeds are drawn lazily, coarse to fine (``open_seeds`` of the map), and
    each is iterated under the closure step for at most ``4*depth`` steps.
    A fixed point other than X is a Fails certificate and ends the scan at
    that seed, so the finer seeds are never built.  A seed that reaches no
    fixed point within the bound makes the verdict Unknown.

    The scan reuses what earlier seeds proved.  The closure step
    ``u -> u | phi(u & pos) | (phi^-1(u) & reg)`` is monotone and maps
    subsets of X into X, so X is its own fixed point.  If a seed s reached X
    after K steps, any ``u >= s`` reaches X in at most K steps.  When a
    recorded s lies inside the j-th set on the trail of a new seed, that
    seed reaches X within ``j + K`` steps, and the scan counts it as
    saturating only when ``j + K < 4*depth``: exactly then the bare loop
    would have found the fixed point X within the bound, so Unknown
    decisions do not change.  A seed decided this way is recorded with the
    bound ``j + K``, which is all the argument needs.  A seed whose closure
    is not X never meets the rule, so it is iterated as before and the
    Fails certificate is the one the bare loop finds.

    Each step first builds its image half ``img = phi(u & pos)`` and looks
    it up at ``j + 1``.  ``img`` lies inside the step's result, so a
    recorded s inside ``img`` with bound K makes the seed reach X within
    ``j + 1 + K`` steps, and the same rule counts it as saturating exactly
    when ``j + 1 + K < 4*depth``.  A set containing a recorded seed has
    closure X, so this lookup too never fires on a seed whose closure is
    not X, and the Fails certificate stays the one the bare loop finds.  On
    a miss the step is finished from the same ``img``, so the scan goes on
    as the bare loop does and Unknown decisions stay as they are.  For an
    expanding map a recorded seed mostly lies in ``img`` already, so a seed
    that saturates never builds its preimage half.

    Recorded seeds are searched newest first, because seeds come coarse to
    fine and a finer seed more often lies in a trail.  A float filter
    (``_SaturationMemo.lookup``) skips seeds that cannot lie in the set;
    the float conversion keeps order, so the filter never drops a match and
    the first exact match, with its bound, is the one a plain scan finds.
    """
    system.check_scan_depth(depth)
    max_iter = 4 * depth
    sys_, space, pos, reg = _regions(system, pot)
    hit_bound = False
    memo = _SaturationMemo()
    read = 0
    for read, seed in enumerate(sys_.open_seeds(space, depth), 1):
        u = seed
        for j in range(max_iter):
            steps = memo.lookup(u, j, max_iter)
            if steps is not None:
                break
            img = sys_.image_of(u.intersection(pos))
            steps = memo.lookup(img, j + 1, max_iter)
            if steps is not None:
                break
            nxt = _closure_step(sys_, pos, reg, u, img)
            if nxt == u:
                if u != space:
                    _replay_invariant(system, pot, u)
                    return Verdict("Minimal", "Fails", InvariantSet(u), depth)
                steps = j
                break
            u = nxt
        else:
            hit_bound = True
            continue
        memo.record(seed, steps)
    if hit_bound:
        return Verdict("Minimal", "Unknown", None, depth)
    return Verdict("Minimal", "Holds", MinimalScan(depth, read, max_iter), depth)


# -- contracting sets -------------------------------------------------------


def check_contracting_set(
    system: PartialSystem, pot: Potential, region, pieces
) -> ContractingReport:
    """Exactly verify a candidate contracting tuple for the open set ``region``.

    ``pieces`` is a sequence of (U_k, n_k).  The three conditions: the U_k are
    pairwise disjoint nonempty opens inside the n_k-step regular core and
    inside V; V escapes the closure of their union; the n_k-step images of
    the U_k cover the closure of V.  The n-step regular core is the set of
    points whose first n steps stay in the regular set.  Kept as the
    replayer of a saved ``ContractingCert`` scale (ROADMAP item 5).
    """
    return _contracting_set_report(system, _regions(system, pot), region, pieces)


def _contracting_set_report(system: PartialSystem, regions, region, pieces) -> ContractingReport:
    """``check_contracting_set`` on regions a verdict has already computed."""
    f, space, _, reg = regions
    v = _open_set(system, region)
    if v.is_empty or not v.is_open_in(space):
        return ContractingReport(False, "region_empty", "V must be nonempty and open")
    sets = [(_open_set(system, u), int(n)) for u, n in pieces]
    if not sets or any(u.is_empty for u, _ in sets):
        return ContractingReport(False, "piece_empty", "each U_k must be nonempty")
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i][0].intersects(sets[j][0]):
                return ContractingReport(False, "not_disjoint", f"pieces {i} and {j} meet")
    for i, (u, n) in enumerate(sets):
        if n < 1:
            return ContractingReport(False, "bad_exponent", f"n_{i} must be >= 1")
        core = reg
        for _ in range(n - 1):
            core = f.preimage_of(core).intersection(reg)
        if not u.issubset(core.intersection(v)):
            return ContractingReport(
                False, "piece_not_regular", f"U_{i} leaves the {n}-step regular core or V"
            )
    union, cover = sets[0][0], dyn.image_iter(f, *sets[0])
    for u, n in sets[1:]:
        union, cover = union.union(u), cover.union(dyn.image_iter(f, u, n))
    if v.issubset(union.closure()):
        return ContractingReport(False, "region_exhausted", "V lies in the closure of the U_k")
    if not v.closure().intersection(space).issubset(cover):
        return ContractingReport(
            False, "closure_not_covered", "the n_k-step images miss part of closure(V)"
        )
    return ContractingReport(True)


def _inverse_orbit_dense(
    system: PartialSystem, pot: Potential, regions, x0: Fraction, depth: int
) -> tuple[bool, int, Fraction]:
    """Truncated density of the regular inverse orbit of x0, exact gaps."""
    _, space, _, reg = regions
    res = Q(1, 2 ** min(depth, 8))
    pts = {x0}
    level = [x0]
    for _ in range(min(depth, 10)):
        nxt = []
        for y in level:
            for x, _w in dyn.preimages(system, pot, y, 1):
                if reg.contains(x) and x not in pts:
                    pts.add(x)
                    nxt.append(x)
        level = nxt
        if not level:
            break
    ordered = sorted(pts)
    lo, hi = space.min(), space.max()
    gaps = [ordered[0] - lo, hi - ordered[-1]]
    gaps.extend(b - a for a, b in zip(ordered, ordered[1:]))
    return max(gaps) <= 2 * res, len(ordered), res


def _search_contracting_scale(
    system: PartialSystem, regions, levels, x0: Fraction, radius: Fraction
) -> Optional[ContractingTuple]:
    """Find one (U, n) tuple for the ball V around x0, walking ``levels``, the
    composite branches of phi^1, phi^2, ..."""
    _, space, _, _ = regions
    v = IntervalSet.of(RationalInterval(x0 - radius, x0 + radius, False, False)).intersection(
        space
    )
    if v.is_empty or not v.is_open_in(space):
        return None
    vbar = v.closure().intersection(space)
    pad = radius / 4
    for n, level in enumerate(levels, 1):
        for comp in level:
            if abs(comp.slope) <= 1:
                continue
            if not IntervalSet.of(comp.domain).issubset(v):
                continue
            img = IntervalSet.of(comp.image())
            target = IntervalSet.of(
                RationalInterval(vbar.min() - pad, vbar.max() + pad, False, False)
            ).intersection(img.interior_in(space))
            if not vbar.issubset(target):
                continue
            cand = ContractingTuple(v, ((comp.preimage_of(target), n),))
            if _contracting_set_report(system, regions, v, cand.pieces).ok:
                return cand
    return None


def check_contracting(system: PartialSystem, pot: Potential, depth: int = 8) -> Verdict:
    """Search for a point whose neighbourhoods all contain contracting sets."""
    system.check_scan_depth(depth)
    if system.backend == "graph":
        gph = system.gph
        if all(len(gph.prependable(v)) <= 1 for v in gph.vertices):
            return Verdict(
                "Contracting",
                "Fails",
                Obstruction("deterministic_inverse_orbits", tuple(sorted(gph.vertices))),
                depth,
            )
        regions = _regions(system, pot)
        for cyc, ex in gph.cycles:
            if ex is None:
                continue
            # every short word must continue into the cycle
            reach = gph.reach({gph.edge_by_name[cyc[0]].rng})
            reach_depth = min(depth, 2 * len(gph.vertices) + 2)
            if any(w.end not in reach for w in gph.words(min(reach_depth // 2, 3))):
                continue
            scales = []
            max_m = max(1, min(depth // (2 * len(cyc)), 4))
            ok = True
            for m in range(1, max_m + 1):
                v = gph.path_point(cyc * m)
                u = gph.path_point(cyc * (2 * m))
                cand = ContractingTuple((v,), (((u,), m * len(cyc)),))
                if not _contracting_set_report(system, regions, (v,), cand.pieces).ok:
                    ok = False
                    break
                scales.append(cand)
            if ok and scales:
                x0 = gph.path_point(cyc * max(1, min(depth // len(cyc), 6)))
                cert = ContractingCert(x0, 0, Q(1, 2**depth), tuple(scales))
                return Verdict("Contracting", "Holds", cert, depth)
        return Verdict("Contracting", "Unknown", None, depth)

    regions = _regions(system, pot)
    sys_, space, pos, reg = regions
    if sys_.delta != pos:
        return Verdict(
            "Contracting",
            "Fails",
            Obstruction("domain_not_positive", sys_.delta.difference(pos)),
            depth,
        )
    if all(abs(b.slope) <= 1 for b in sys_.branches):
        slopes = tuple(b.slope for b in sys_.branches)
        return Verdict(
            "Contracting", "Fails", Obstruction("no_expanding_branch", slopes), depth
        )
    lo, hi = space.min(), space.max()
    width = hi - lo
    candidates = [lo + width * q for q in (Q(1, 3), Q(2, 3), Q(1, 5), Q(2, 5))]
    # one walk for every search: each copy of a tee iterator replays the
    # levels built so far and builds the next one only once
    levels = itertools.tee(dyn.composite_levels(sys_, depth), 1)[0]
    for x0 in candidates:
        if not reg.contains(x0):
            continue
        dense, count, res = _inverse_orbit_dense(system, pot, regions, x0, depth)
        if not dense:
            continue
        scales = []
        ok = True
        for j in range(2, min(depth, 6) + 1):
            cand = _search_contracting_scale(
                system, regions, copy.copy(levels), x0, width / 2**j
            )
            if cand is None:
                ok = False
                break
            scales.append(cand)
        if ok and scales:
            cert = ContractingCert(x0, count, res, tuple(scales))
            return Verdict("Contracting", "Holds", cert, depth)
    return Verdict("Contracting", "Unknown", None, depth)


# -- derived verdicts -------------------------------------------------------


def check_one_circuit(system: PartialSystem, pot: Potential, depth: int = 8) -> Verdict:
    """Whether the regular-restricted dynamics is a single circuit feeding itself."""
    system.check_scan_depth(depth)
    if system.backend == "interval":
        return Verdict(
            "OneCircuit", "Fails", Obstruction("not_discrete", system.ival.space), depth
        )
    gph = system.gph
    cycles = gph.cycles
    if len(cycles) != 1:
        detail = tuple(cyc for cyc, _ in cycles)
        return Verdict("OneCircuit", "Fails", Obstruction("cycle_count", detail), depth)
    cyc, ex = cycles[0]
    if ex is not None:
        return Verdict("OneCircuit", "Fails", Obstruction("cycle_has_exit", (cyc, ex)), depth)
    reach = gph.reach(gph.edge_by_name[n].rng for n in cyc)
    stranded = [v for v in gph.vertices if v not in reach]
    if stranded:
        return Verdict(
            "OneCircuit", "Fails", Obstruction("unreached_vertices", tuple(stranded)), depth
        )
    return Verdict("OneCircuit", "Holds", CycleNoExit(cyc), depth)


def _regular_set_infinite(system: PartialSystem, pot: Potential) -> bool:
    if system.backend == "interval":
        _, _, _, reg = _regions(system, pot)
        return not reg.nondegenerate().is_empty
    return any(ex is not None for _, ex in system.gph.cycles)


def _conjoin(prop: str, parts: Sequence[Verdict], depth: int, notes: tuple[str, ...]) -> Verdict:
    failing = [p for p in parts if p.fails]
    if failing:
        return Verdict(prop, "Fails", tuple(failing), depth, notes)
    if all(p.holds for p in parts):
        return Verdict(prop, "Holds", tuple(parts), depth, notes)
    return Verdict(prop, "Unknown", None, depth, notes)


def verdict_simple(system: PartialSystem, pot: Potential, depth: int = 8) -> Verdict:
    """Simplicity of the crossed product: minimal plus topologically free."""
    return simple_of(
        system,
        pot,
        depth,
        check_minimal(system, pot, depth),
        check_top_free(system, pot, depth),
        check_one_circuit(system, pot, depth),
    )


def simple_of(
    system: PartialSystem,
    pot: Potential,
    depth: int,
    minimal: Verdict,
    free: Verdict,
    one_circuit: Verdict,
) -> Verdict:
    """The Simple verdict from its parts, each computed at ``depth``."""
    notes = []
    if _regular_set_infinite(system, pot):
        notes.append("regular set is infinite: minimality alone decides simplicity")
    else:
        notes.append(
            "regular set is finite: the infinite-regular-set shortcut does not apply"
        )
    if one_circuit.holds:
        notes.append("the live graph is a single circuit without exits")
    return _conjoin("Simple", (minimal, free), depth, tuple(notes))


def verdict_purely_infinite(system: PartialSystem, pot: Potential, depth: int = 8) -> Verdict:
    """Pure infiniteness with simplicity: minimal plus contracting."""
    return purely_infinite_of(
        depth, check_minimal(system, pot, depth), check_contracting(system, pot, depth)
    )


def purely_infinite_of(depth: int, minimal: Verdict, contracting: Verdict) -> Verdict:
    """The PurelyInfiniteSimple verdict from its parts, each computed at ``depth``."""
    notes = []
    out = _conjoin("PurelyInfiniteSimple", (minimal, contracting), depth, ())
    if out.holds:
        notes.append("second-countable space: the crossed product is a Kirchberg algebra")
    return Verdict(out.property, out.status, out.certificate, out.depth, tuple(notes))


# -- matrix-level consistency -----------------------------------------------


def _collapsed_basis(system: PartialSystem, pot: Potential, cert, depth: int):
    """Points, weights, period, and T of the orbit representation at a periodic
    certificate, with periodic preimages folded back instead of unrolled."""
    if system.backend == "graph":
        cyc = cert.edges
        gph = system.gph
        p = len(cyc)
        pts = [gph.path_point(cyc[j:] + cyc[:j]) for j in range(p)]
        parents: list[list[tuple[int, Fraction]]] = [[] for _ in pts]

        def fold(child: PathPoint) -> Optional[int]:
            # a child refining a singleton cylinder is the same boundary path
            for k, pt in enumerate(pts):
                if pt == child or (pt.contains(child) and gph.is_singleton(pt)):
                    return k
            return None

        frontier = list(range(p))
        for _ in range(depth):
            nxt = []
            for i in frontier:
                for child in gph.fiber(pts[i]):
                    w = pot.value(child)
                    j = fold(child)
                    if j is None:
                        pts.append(child)
                        parents.append([])
                        j = len(pts) - 1
                        nxt.append(j)
                    parents[j].append((i, w))
            frontier = nxt
        return pts, parents, p

    window: RationalInterval = cert.window
    n = cert.n
    x0 = window.midpoint()
    cycle_pts = list(dict.fromkeys(dyn.orbit(system, x0, n - 1)))
    pts = list(cycle_pts)
    idx = {pt: i for i, pt in enumerate(pts)}
    parents = [[] for _ in pts]
    frontier = list(range(len(cycle_pts)))
    for _ in range(depth):
        nxt = []
        for i in frontier:
            for child, w in dyn.preimages(system, pot, pts[i], 1):
                j = idx.get(child)
                if j is None:
                    pts.append(child)
                    idx[child] = j = len(pts) - 1
                    parents.append([])
                    nxt.append(j)
                parents[j].append((i, w))
        frontier = nxt
    return pts, parents, n


def periodic_witness_norms(
    system: PartialSystem,
    pot: Potential,
    cert,
    depth: int = 6,
    width: int = 16,
) -> tuple[float, float]:
    """Norms of a t^n - a sqrt(rho_n) in the collapsed orbit representation and
    in the regular representation, for a the indicator of the periodic window
    or circuit of a Fails(TopFree) certificate.

    No command calls it yet: like ``verify_periodic_window`` it is kept as a
    certificate replayer, the operator-side witness that the orbit
    representation is not faithful where topological freeness fails.
    """
    pts, parents, n = _collapsed_basis(system, pot, cert, depth)
    dim = len(pts)
    t = np.zeros((dim, dim))
    for j, links in enumerate(parents):
        for i, w in links:
            t[j, i] = math.sqrt(float(w))

    a_vals = [1.0 if cert.covers(pt) else 0.0 for pt in pts]
    a = np.diag(np.array(a_vals))
    tn = np.linalg.matrix_power(t, n)
    rho_n = [float(dyn.cocycle_or_none(system, pot, n, pt) or 0) for pt in pts]
    asr = np.diag(np.array([av * math.sqrt(r) for av, r in zip(a_vals, rho_n)]))

    w_orbit = a @ tn - asr
    orbit_norm = float(np.linalg.norm(w_orbit, 2))

    s = np.eye(width, k=-1)
    w_reg = np.kron(np.linalg.matrix_power(s, n), a @ tn) - np.kron(np.eye(width), asr)
    reg_norm = float(np.linalg.norm(w_reg, 2))
    return orbit_norm, reg_norm


