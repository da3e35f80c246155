"""Spectra of the truncated core algebras.

The level-n core ideal has spectrum equal to the n-step image of the
positive-weight domain.  Stacking the levels yields a stratified space glued
along the regular region, and each point of it carries a finite-dimensional
fiber representation, whose dimension is the size of the point's
positive-weight fiber.  Everything here is exact interval or path
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import dynamics as dyn
from . import transfer as tr
from .dynamics import CylinderSet, PartialSystem, Potential
from .errors import (
    HypothesisViolated,
    NotValidated,
    OutOfSpectrum,
    ValidationError,
)
from .intervals import IntervalSet, Q, RationalInterval


@dataclass(frozen=True)
class SpectrumPoint:
    level: int
    base: object
    dimension: int
    stratum: str  # "interior" (level < n) or "top"

    def __post_init__(self):
        if self.level < 0:
            raise ValidationError("level must be nonnegative")
        if self.dimension < 1:
            raise ValidationError("spectrum points have dimension >= 1")
        if self.stratum not in ("interior", "top"):
            raise ValidationError(f"unknown stratum tag {self.stratum!r}")


@dataclass(frozen=True)
class TopologyTuple:
    """One open set of the glued space: a set per level, compatible pairs."""

    sets: tuple

    def __str__(self) -> str:
        return " | ".join(f"U_{k}={s}" for k, s in enumerate(self.sets))


@dataclass(frozen=True)
class SpectrumDescription:
    n: int
    strata: tuple  # per level k=0..n: IntervalSet or CylinderSet
    sampled_points: tuple[SpectrumPoint, ...]
    topology_generators: tuple[TopologyTuple, ...]
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class QuasiOrbitPartition:
    depth: int
    representatives: tuple
    classes: dict = field(hash=False)
    orbit_closures: dict = field(hash=False)


# ---------------------------------------------------------------------------
# level sets
# ---------------------------------------------------------------------------


def positive_iterate(system: PartialSystem, pot: Potential, n: int):
    """Exact n-step positive domain: points with n steps of positive weight."""
    system.check_depth(n)
    f = system.map
    out = f.space
    level = pot.positive_part(f.delta)
    for i in range(n):
        if i:
            level = f.preimage_of(level)
        out = out.intersection(level)
    # out is now the intersection of phi^{-i}(delta_pos) for i < n
    return out


def level_space(system: PartialSystem, pot: Potential, k: int):
    """phi^k of the k-step positive domain, as an exact set."""
    f = system.map
    out = positive_iterate(system, pot, k)
    for _ in range(k):
        out = f.image_of(out)
    return out.noted(f"tails reachable by {k} shifts")


# ---------------------------------------------------------------------------
# K_n spectrum
# ---------------------------------------------------------------------------


def spectrum_Kn(system: PartialSystem, pot: Potential, n: int, samples=()):
    """Top-level stratum and exact dimensions at sampled base points."""
    val = tr.validate(system, pot)
    if not val.valid:
        raise NotValidated("spectrum requires a validated transfer operator")
    stratum = level_space(system, pot, n)
    pts = list(samples) or list(stratum.sample_points())
    out = []
    for y in pts:
        fib = dyn.preimages(system, pot, y, n)
        if not fib:
            raise OutOfSpectrum(f"{y} has no positive-weight {n}-fiber")
        out.append(SpectrumPoint(n, system.point(y), len(fib), "top"))
    return stratum, tuple(out)


# ---------------------------------------------------------------------------
# A_n spectrum: strata + pushout gluing data
# ---------------------------------------------------------------------------


def _rho_discontinuity_warning(report: dyn.RegionReport):
    """The warning for the points where the report finds the weight
    discontinuous, or None; a graph report has no irregular points."""
    bad = [ip.point for ip in report.irregular_points if "rho_discontinuous" in ip.reasons]
    if bad:
        pts = ", ".join(str(x) for x in bad)
        return (
            "weight is discontinuous at " + pts + "; the emitted gluing data is a "
            "lower bound: open sets of the spectrum may be strictly finer"
        )
    return None


def _attach_preimage(sys_, target: IntervalSet, reg: IntervalSet, space_k: IntervalSet) -> IntervalSet:
    """Preimage of ``target`` under the gluing map (phi restricted to the
    regular part of the level space)."""
    return sys_.preimage_of(target).intersection(reg).intersection(space_k)


def check_generator(system: PartialSystem, pot: Potential, tup: TopologyTuple) -> bool:
    """Exact verification of one gluing tuple."""
    n = len(tup.sets) - 1
    if system.backend == "graph":
        # graph tuples are shift preimages level by level; re-derive and compare
        sets = tup.sets
        return all(sets[k] == system.gph.preimage_of(sets[k + 1]) for k in range(n))
    reg = dyn.regular_set(system, pot).delta_reg
    return _is_generator(system.ival, reg, _level_spaces(system, pot, n), tup)


def _level_spaces(system: PartialSystem, pot: Potential, n: int) -> list:
    return [level_space(system, pot, k) for k in range(n + 1)]


def _is_generator(sys_, reg: IntervalSet, spaces: list, tup: TopologyTuple) -> bool:
    """``check_generator`` on an interval system, given its level spaces."""
    space = sys_.space
    for u, sk in zip(tup.sets, spaces):
        if not u.issubset(sk):
            return False
        if not u.is_open_in(space):
            return False
    for k in range(len(tup.sets) - 1):
        lhs = tup.sets[k].intersection(reg)
        rhs = _attach_preimage(sys_, tup.sets[k + 1], reg, spaces[k])
        if lhs != rhs:
            return False
    return True


def _build_generator(sys_, reg, spaces, seed_level, seed_set, max_passes=32):
    """Grow a compatible tuple from an open seed at one level.

    ``spaces`` holds the level spaces 0..n.  Upward the seed must be
    saturated (the gluing map is not injective), so passes repeat until the
    tuple stops changing; below the seed a single restricted preimage per
    level is already exact.
    """
    n = len(spaces) - 1
    sets = [IntervalSet.empty() for _ in range(n + 1)]
    sets[seed_level] = seed_set.intersection(spaces[seed_level])
    for _ in range(max_passes):
        changed = False
        for k in range(seed_level, n):
            up = sys_.image_of(sets[k].intersection(reg)).intersection(spaces[k + 1])
            new_up = sets[k + 1].union(up)
            if new_up != sets[k + 1]:
                sets[k + 1] = new_up
                changed = True
            pulled = _attach_preimage(sys_, sets[k + 1], reg, spaces[k])
            new_k = sets[k].union(pulled)
            if new_k != sets[k]:
                sets[k] = new_k
                changed = True
        if not changed:
            break
    else:
        return None
    irr = sys_.space.difference(reg)
    for k in range(seed_level - 1, -1, -1):
        pulled = _attach_preimage(sys_, sets[k + 1], reg, spaces[k])
        # absorb isolated irregular points wherever the pulled set already
        # accumulates; the intersection with the regular part is unchanged
        for q in irr.intersection(spaces[k]).isolated_points():
            trial = pulled.union(IntervalSet.point(q))
            if trial.is_open_in(sys_.space):
                pulled = trial
        sets[k] = pulled
    tup = TopologyTuple(tuple(sets))
    return tup if _is_generator(sys_, reg, spaces, tup) else None


def spectrum_An(system: PartialSystem, pot: Potential, n: int, radius=Q(1, 8)):
    """Stratified spectrum description with pushout gluing generators."""
    val = tr.validate(system, pot)
    if not val.valid:
        raise NotValidated("spectrum requires a validated transfer operator")
    if n < 1:
        raise ValidationError("n must be >= 1")
    warnings = []
    sampled: list[SpectrumPoint] = []

    if system.backend == "graph":
        gph = system.gph
        strata = [CylinderSet(gph, (), "empty") for _ in range(n)]
        top = level_space(system, pot, n)
        strata.append(top)
        for cyl in top.cylinders:
            fib = dyn.preimages(system, pot, cyl, n)
            if fib:
                sampled.append(SpectrumPoint(n, cyl, len(fib), "top"))
        gens = []
        for cyl in top.cylinders[:2]:
            sets = [CylinderSet(gph, (cyl,))]
            for _ in range(n):
                sets.insert(0, gph.preimage_of(sets[0]))
            gens.append(TopologyTuple(tuple(sets)))
        gens = [g for g in gens if check_generator(system, pot, g)]
        return SpectrumDescription(n, tuple(strata), tuple(sampled), tuple(gens), ())

    sys_ = system.ival
    report = dyn.regular_set(system, pot)
    reg = report.delta_reg
    irr = sys_.space.difference(reg)
    spaces = _level_spaces(system, pot, n)
    strata = [sk.intersection(irr) for sk in spaces[:n]]
    strata.append(spaces[n])

    for k in range(n):
        seen = set()
        for y in strata[k].isolated_points() + strata[k].sample_points(per_component=2):
            if y in seen:
                continue
            seen.add(y)
            fib = dyn.preimages(system, pot, y, k)
            if fib:
                sampled.append(SpectrumPoint(k, y, len(fib), "interior"))
    for y in strata[n].sample_points(per_component=3):
        fib = dyn.preimages(system, pot, y, n)
        if fib:
            sampled.append(SpectrumPoint(n, y, len(fib), "top"))
    sampled.sort(key=lambda p: (p.level, p.base))

    gens: list[TopologyTuple] = []
    for k in range(n):
        seeds = list(strata[k].isolated_points())
        for iv in strata[k].nondegenerate().intervals:
            seeds.extend((iv.lo, iv.midpoint(), iv.hi))
        for p in dict.fromkeys(seeds):
            r = radius
            for _ in range(8):
                seed = IntervalSet.of(
                    RationalInterval(p - r, p + r, False, False)
                ).intersection(sys_.space)
                tup = _build_generator(sys_, reg, spaces, k, seed)
                if tup is not None and tup.sets[k].contains(p):
                    gens.append(tup)
                    break
                r = r / 2
    # one plain top-level generator for completeness
    for iv in strata[n].nondegenerate().intervals[:1]:
        m = iv.midpoint()
        r = min(radius, iv.length / 4)
        if r > 0:
            seed = IntervalSet.of(RationalInterval(m - r, m + r, False, False))
            tup = _build_generator(sys_, reg, spaces, n, seed)
            if tup is not None:
                gens.append(tup)

    w = _rho_discontinuity_warning(report)
    if w:
        warnings.append(w)
    return SpectrumDescription(
        n, tuple(strata), tuple(sampled), tuple(gens), tuple(warnings)
    )


# ---------------------------------------------------------------------------
# quasi-orbits
# ---------------------------------------------------------------------------


def _orbit_set(system, pot, x, depth):
    """Truncated two-sided orbit: positive-weight preimages of the forward
    orbit, all levels up to the given depth."""
    pts = set()
    fwd = dyn.forward_walk(system, x, depth)
    # cut the walk after its first point of zero weight
    for i, z in enumerate(fwd[:-1]):
        if pot.value(z) == 0:
            fwd = fwd[: i + 1]
            break
    for target in fwd:
        for level, _ in dyn.preimage_levels(system, pot, target, depth):
            pts.update(q for q, _ in level)
    return frozenset(pts)


def quasi_orbits(system: PartialSystem, pot: Potential, depth: int, samples) -> QuasiOrbitPartition:
    """Partition sampled points by equality of truncated orbit closures."""
    system.check_scan_depth(depth)
    if not tr.validate(system, pot).valid:
        raise NotValidated("quasi-orbits require a validated transfer operator")
    report = dyn.regular_set(system, pot)
    w = _rho_discontinuity_warning(report)
    if w:
        raise HypothesisViolated(w)
    if report.delta_reg != report.delta_pos:
        raise HypothesisViolated(
            "regular set differs from positive set; quasi-orbit description requires a local homeomorphism on the positive part"
        )
    closures = {}
    for x in samples:
        key = system.point(x)
        closures[key] = _orbit_set(system, pot, key, depth)

    # raw truncated sets differ near the depth boundary even for equivalent
    # points, so equality is certified by mutual membership instead: each
    # point lying in the other's truncated orbit forces equal closures
    pts = list(closures)

    def mutual(a, b):
        return a in closures[b] and b in closures[a]

    reps: dict = {}
    for x in pts:
        for r in reps:
            if mutual(r, x):
                reps[r].append(x)
                break
        else:
            reps[x] = [x]

    # brute-force pairwise cross-check: the certificate must be transitive
    # at this depth, otherwise the partition is not trustworthy
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            grouped = any(a in members and b in members for members in reps.values())
            if mutual(a, b) != grouped:
                raise ValidationError(
                    f"quasi-orbit certificate is not transitive at depth {depth}: ({a}, {b})"
                )

    classes = {}
    for r, members in reps.items():
        for m in members:
            classes[m] = r
    return QuasiOrbitPartition(
        depth=depth,
        representatives=tuple(reps.keys()),
        classes=classes,
        orbit_closures=closures,
    )
