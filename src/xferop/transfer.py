"""The weighted fiber-sum operator: validation, norm, application, measures.

``L(a)(y) = sum over phi(x) = y of rho(x) a(x)``.  Everything pointwise is
exact rational arithmetic.  Validation decides whether L maps functions
vanishing at infinity on the domain back into functions on the space, by
checking finitely many one-sided arrival conditions; the norm is the exact
supremum of the fiber sums.

Test functions are typed like the maps.  On the interval backend a test
function is a ``dynamics.PiecewiseAffine``, the weights' type, built by
``const_on``, ``affine_on`` or ``hat`` to read zero off its pieces;
``CylinderFunction`` is a combination of cylinder indicators on the graph
backend (``indicator``).  Both carry ``backend`` as a class attribute and
answer ``value(x)``, ``floats(points)`` (``float(value(x))`` at many points
as one array: integer arrays on the interval backend, a loop on graphs)
and ``pullback(map)`` (the exact a o phi).  ``Function`` names either.

Measures answer one protocol: ``total_mass()``; ``quadrature(pts)``, the
points and the float masses over which the sum of mass * f(x) integrates
a pointwise f, the points as one batch of the map's (``RationalPoints`` of
the midpoint rule, a list of atoms);
``integrates_grids`` and ``integrate_grid(g)``, the exact integral of a
piecewise-quadratic grid function where the measure has one;
``to_doc(system)``, ``residual_tol()`` and ``is_positive()``.  The two
measures are ``AtomicMeasure`` and ``UlamMeasure``, the two a candidate
file can hold.

The uniform bin grid on [lo, hi] is read by index arithmetic, never by
intersecting intervals: bin k is [lo + k w, lo + (k + 1) w), half-open and
the last one closed, and the bins an interval meets are an integer division
of its ends.  ``ulam_geometry`` builds the grid's cells under the map as one
batch (``UlamCells``): per branch, the source and target bin index ranges
and the exact cell ends as ``RationalPoints``, elementwise max/min of the
bin nodes, the domain ends and the pulled-back nodes, in the order (branch,
source bin j, target bin i).  The temperature solver in ``thermo`` cuts
that batch by the energy pieces; ``ulam_matrix`` reads the same batch into
an exact rational matrix, and no command calls it: it is kept as the exact
reference the solver's matrices are tested against.
``UlamMeasure.quadrature`` places its midpoint points by the same
arithmetic.  ``UlamMeasure`` keeps one integer view of its densities (a
common denominator, the numerators and three prefix sums), so
``total_mass`` is one quotient and ``integrate_grid`` a fixed number of
exact operations per grid cell: its two end bins, and a closed form over
the full bins between.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

import numpy as np

from . import dynamics as dyn
from .dynamics import PartialSystem, PathPoint, PiecewiseAffine, Potential
from .errors import NotValidated, SupportViolation, ValidationError
from .intervals import (
    IntervalSet,
    Q,
    RationalInterval,
    Rationalish,
    RationalPoints,
    accumulates_at,
    float_of,
    frac,
    frac_str,
)

# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CylinderFunction:
    """A finite combination of cylinder indicators on the graph backend."""

    backend = "graph"

    cylinders: tuple[tuple[PathPoint, Fraction], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "cylinders", tuple((p, frac(w)) for p, w in self.cylinders))

    @staticmethod
    def indicator(p: PathPoint, coeff: Rationalish = 1) -> "CylinderFunction":
        return CylinderFunction(((p, frac(coeff)),))

    def value(self, p: PathPoint) -> Fraction:
        out = Q(0)
        for cyl, w in self.cylinders:
            if cyl.contains(p):
                out += w
            elif len(p.word) < len(cyl.word) and p.contains(cyl):
                raise SupportViolation(
                    f"point {p} is coarser than cylinder {cyl}; cannot evaluate"
                )
        return out

    def floats(self, points) -> np.ndarray:
        """``float(value(p))`` at each point, one point at a time."""
        return np.array([float(self.value(p)) for p in points], dtype=float)

    def pullback(self, map_: dyn.GraphSystem) -> "CylinderFunction":
        """Exact a o phi: each cylinder Z(w) pulls back to the Z(ew)."""
        cyls = []
        for cyl, w in self.cylinders:
            for e in map_.prependable(cyl.rng):
                cyls.append((map_.path_point((e.name,) + cyl.word), w))
        return CylinderFunction(tuple(cyls))


Function = Union[PiecewiseAffine, CylinderFunction]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationDefect:
    """One failed arrival condition at (x0, y0, side).

    ``required`` is the one-sided fiber-sum limit; ``found`` is the weight the
    point actually contributes at y0.  ``fatal`` marks the cases where the
    mismatch breaks continuity of the operator output on the space.
    """

    x0: object
    y0: object
    side: int
    required: Fraction
    found: Fraction
    kind: str
    fatal: bool

    def __str__(self) -> str:
        sev = "defect" if self.fatal else "warning"
        sd = "below" if self.side < 0 else "above"
        return (
            f"{sev} [{self.kind}] at y0={frac_str(self.y0)} ({sd}), "
            f"x0={frac_str(self.x0)}: limit sum {frac_str(self.required)} "
            f"vs point value {frac_str(self.found)}"
        )


@dataclass(frozen=True)
class TransferValidation:
    valid: bool
    norm: Fraction
    defects: tuple[ValidationDefect, ...]
    warnings: tuple[str, ...] = ()


def validate(system: PartialSystem, pot: Potential) -> TransferValidation:
    """Exact validity scan: nonnegativity, norm, and arrival continuity.

    Only finitely many points can break continuity of the fiber sums: branch
    endpoints, weight breakpoints, and overrides.  At each such x0 in the
    domain, and for each side of each candidate image value y0, the one-sided
    limit of arriving weight must match the weight x0 actually contributes.
    A mismatch where x0 maps onto y0 is fatal; a mismatch at a value x0 does
    not map to is reported but survivable, because it only affects functions
    supported up against the seam.
    """
    if system.backend == "graph":
        gph = system.gph
        pot.check_edges(gph)
        wmap = pot.weight_map()
        for e in gph.edges:
            if wmap[e.name] <= 0:
                raise ValidationError(f"edge weight for {e.name} must be positive")
        norm = max(
            sum((wmap[e.name] for e in gph.prependable(v)), Q(0))
            for v in gph.vertices
        )
        return TransferValidation(valid=True, norm=norm, defects=())

    sys_ = system.ival
    delta = sys_.delta
    warnings: list[str] = []
    defects: list[ValidationDefect] = []

    cover = pot.coverage()
    if not delta.issubset(cover):
        missing = delta.difference(cover)
        return TransferValidation(
            valid=False,
            norm=Q(0),
            defects=(
                ValidationDefect(
                    missing.min(), missing.min(), 0, Q(0), Q(0), "uncovered", True
                ),
            ),
            warnings=(f"weight pieces do not cover the domain; missing {missing}",),
        )

    breaks = pot.breakpoints()
    for e in sorted(breaks):
        if delta.contains(e) and pot.value(e) < 0:
            defects.append(
                ValidationDefect(e, e, 0, Q(0), pot.value(e), "negative", True)
            )

    candidates = {x for x in breaks | set(sys_.critical_points()) if delta.contains(x)}

    space = sys_.space
    for x0 in sorted(candidates):
        germs = sys_.germs_at(x0)
        own = sys_.phi(x0)
        values = {g.limit for g in germs} | {own}
        for y0 in sorted(values):
            for t in (-1, +1):
                if not accumulates_at(space, y0, side=t):
                    continue
                arriving = []
                for g in germs:
                    if g.limit != y0:
                        continue
                    slope = sys_.branches[g.branch_index].slope
                    t_g = g.side * (1 if slope > 0 else -1)
                    if t_g == t:
                        arriving.append(g)
                s_sum = Q(0)
                bad_side = False
                for g in arriving:
                    lim = pot.one_sided_limit(x0, g.side)
                    if lim is None:
                        bad_side = True
                    else:
                        s_sum += lim
                if bad_side:
                    defects.append(
                        ValidationDefect(x0, y0, t, Q(0), Q(0), "uncovered", True)
                    )
                    continue
                v = pot.value(x0) if own == y0 else Q(0)
                if s_sum != v:
                    fatal = own == y0
                    kind = "collision_sum" if len(arriving) >= 2 else (
                        "one_sided_jump" if arriving else "missing_arrival"
                    )
                    defects.append(ValidationDefect(x0, y0, t, s_sum, v, kind, fatal))

    norm = _exact_norm(sys_, pot)
    fatal = any(d.fatal for d in defects)
    for d in defects:
        if not d.fatal:
            warnings.append(str(d))
    return TransferValidation(
        valid=not fatal, norm=norm, defects=tuple(defects), warnings=tuple(warnings)
    )


def _exact_norm(sys_: dyn.IntervalSystem, pot: Potential) -> Fraction:
    """sup over the space of the fiber sums, exact.

    Between consecutive critical values the sum is affine, so two interior
    samples extrapolate exactly to the one-sided limits at the cell ends.
    """
    breaks = pot.breakpoints()
    crit: set[Fraction] = set()
    for comp in sys_.space.intervals:
        crit.add(comp.lo)
        crit.add(comp.hi)
    for b in sys_.branches:
        img = b.image()
        crit.add(img.lo)
        crit.add(img.hi)
        for x in breaks:
            if b.domain.contains(x):
                crit.add(b.value(x))

    def fiber_sum(y: Fraction) -> Fraction:
        return sum((pot.value(x) for x in sys_.fiber(y)), Q(0))

    best = Q(0)
    pts = sorted(c for c in crit if sys_.space.contains(c))
    for y0 in pts:
        best = max(best, fiber_sum(y0))
    for y0, y1 in zip(pts, pts[1:]):
        if y0 == y1:
            continue
        cell = RationalInterval(y0, y1, False, False)
        if not IntervalSet.of(cell).issubset(sys_.space):
            continue
        p = y0 + (y1 - y0) / 3
        q = y0 + 2 * (y1 - y0) / 3
        sp, sq = fiber_sum(p), fiber_sum(q)
        best = max(best, 2 * sp - sq, 2 * sq - sp)
    return best


# ---------------------------------------------------------------------------
# the operator handle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferHandle:
    system: PartialSystem
    potential: Potential
    validation: TransferValidation

    @staticmethod
    def create(system: PartialSystem, pot: Potential) -> "TransferHandle":
        return TransferHandle(system, pot, validate(system, pot))

    def require_valid(self):
        if not self.validation.valid:
            raise NotValidated(
                "operator failed validation: "
                + "; ".join(str(d) for d in self.validation.defects if d.fatal)
            )


def weighted_fiber_sum(system: PartialSystem, pot: Potential, fn: Callable, y, n: int = 1) -> Fraction:
    """The exact n-fold fiber sum of rho_n * fn at y, behind ``apply`` and
    ``FnExpr.transfer`` off an orbit basis (on one it sums the basis children):
    nonzero weights only, added in ``dyn.preimages`` order."""
    return sum((w * fn(x) for x, w in dyn.preimages(system, pot, y, n)), Q(0))


def apply(handle: TransferHandle, a: Function, y, n: int = 1) -> Fraction:
    """Exact value of the n-fold weighted fiber sum of a at y."""
    if a.backend != handle.system.backend:
        raise ValidationError("function backend does not match the system")
    return weighted_fiber_sum(handle.system, handle.potential, a.value, y, n)


# ---------------------------------------------------------------------------
# dual side: measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite signed combination of point masses."""

    atoms: tuple[tuple[object, Fraction], ...]

    integrates_grids = False

    def __post_init__(self):
        atoms = tuple((x, frac(m)) for x, m in self.atoms)
        object.__setattr__(self, "atoms", atoms)

    def total_mass(self) -> Fraction:
        return sum((m for _, m in self.atoms), Q(0))

    def is_positive(self) -> bool:
        """No atom carries a negative mass."""
        return all(m >= 0 for _, m in self.atoms)

    def quadrature(self, pts: int) -> tuple[list, np.ndarray]:
        """The atoms' points and their float masses."""
        return [x for x, _ in self.atoms], np.array([float(m) for _, m in self.atoms], dtype=float)

    def to_doc(self, system: PartialSystem) -> dict:
        atoms = [{**system.map.point_doc(x), "mass": frac_str(m)} for x, m in self.atoms]
        return {"type": "atomic", "backend": system.backend, "atoms": atoms}

    def residual_tol(self) -> float:
        return 1e-8


def _bins_meeting(lo: Fraction, per_w: Fraction, bins: int, a: Fraction, b: Fraction) -> range:
    """The bins k of the grid lo + k / per_w, k < bins, that [a, b] meets in more than
    a point (a < b): floor((a - lo) per_w) up to ceil((b - lo) per_w), clipped."""
    return range(max(math.floor((a - lo) * per_w), 0), min(math.ceil((b - lo) * per_w), bins))


@dataclass(frozen=True)
class UlamMeasure:
    """Density vector on a uniform bin grid over one space component.

    The exact questions (``total_mass``, ``is_positive``, ``integrate_grid``)
    read one integer view of the densities, built on first use and kept:
    a common denominator D, the numerators n_k = d_k D, and the prefix sums
    of n_k, k n_k and k^2 n_k, all Python ints (``_sums``).
    """

    lo: Fraction
    hi: Fraction
    densities: tuple[Fraction, ...]

    integrates_grids = True

    def __post_init__(self):
        object.__setattr__(self, "lo", frac(self.lo))
        object.__setattr__(self, "hi", frac(self.hi))
        object.__setattr__(self, "densities", tuple(frac(d) for d in self.densities))
        if self.hi <= self.lo or not self.densities:
            raise ValidationError("bad bin grid")

    @property
    def bins(self) -> int:
        return len(self.densities)

    @functools.cached_property
    def _sums(self) -> tuple[int, list[int], list[int], list[int], list[int]]:
        """(D, n_k, and the prefix sums of n_k, k n_k and k^2 n_k): entry k of
        a prefix sum sums the bins before k."""
        den = math.lcm(*(d._denominator for d in self.densities))
        nums = [d._numerator * (den // d._denominator) for d in self.densities]
        s0 = [0, *itertools.accumulate(nums)]
        s1 = [0, *itertools.accumulate(k * n for k, n in enumerate(nums))]
        s2 = [0, *itertools.accumulate(k * k * n for k, n in enumerate(nums))]
        return den, nums, s0, s1, s2

    def total_mass(self) -> Fraction:
        den, _, s0, _, _ = self._sums
        return (self.hi - self.lo) / self.bins * s0[-1] / den

    def is_positive(self) -> bool:
        """No bin carries a negative density."""
        return all(n >= 0 for n in self._sums[1])

    def quadrature(self, pts: int) -> tuple[RationalPoints, np.ndarray]:
        """The pts-point midpoint rule in every bin of nonzero density: its
        points as one batch and their float masses.

        With h = w / (2 pts), point i of bin k is lo + (2 (k pts + i) + 1) h,
        one affine map of the odd integers, and every point of bin k carries
        the mass d_k w / pts, rounded once per bin.  Points come in bin
        order, then point order.
        """
        if pts < 1:
            raise ValidationError(f"the midpoint rule needs at least one point per bin, got pts={pts}")
        lo, w = self.lo, (self.hi - self.lo) / self.bins
        h, wp = w / (2 * pts), w / pts
        bins = [k for k, d in enumerate(self.densities) if d != 0]
        odd = 2 * (np.array(bins, dtype=np.int64)[:, None] * pts + np.arange(pts)) + 1
        masses = [float(self.densities[k] * wp) for k in bins]
        return RationalPoints.integers(odd.ravel()).affine(h, lo), np.repeat(masses, pts)

    def integrate_grid(self, g) -> float:
        """Exact integral of a piecewise-quadratic grid function, as a float.

        A grid cell, cut to [lo, hi] as [u, v], meets the bins k0..k1.  With
        the antiderivative F(x) = x (c0 + x (c1/2 + x c2/3)), each end bin
        adds d_k (F(b) - F(a)) over its part of the cell.  Over a full bin k
        the cell's integral is w (alpha + beta k + gamma k^2), so the bins
        strictly between add w (alpha S0 + beta S1 + gamma S2) / D, with S0,
        S1 and S2 the sums of n_k, k n_k and k^2 n_k over them read off the
        prefix sums.  That is a fixed number of exact operations per grid
        cell at any bin count.  The sum is exact, so its order does not
        change the float.
        """
        lo, hi, bins, dens = self.lo, self.hi, self.bins, self.densities
        den, _, s0, s1, s2 = self._sums
        w, per_w = (hi - lo) / bins, bins / (hi - lo)
        # with y = lo + k w, the integral of c0 + c1 x + c2 x^2 over bin k is
        # w (c0 + c1 (y + w/2) + c2 (y^2 + y w + w^2/3)), a quadratic in k
        mid, q0, q1, q2 = lo + w / 2, lo * lo + lo * w + w * w / 3, (2 * lo + w) * w, w * w
        total = Q(0)
        for (u, v), (c0, c1, c2) in zip(zip(g.nodes, g.nodes[1:]), g.cells):
            if c0 == 0 and c1 == 0 and c2 == 0:
                continue
            u = max(u, lo)
            v = min(v, hi)
            if v <= u:
                continue
            h1, h2 = c1 / 2, c2 / 3

            def anti(x):
                return x * (c0 + x * (h1 + x * h2))

            ks = _bins_meeting(lo, per_w, bins, u, v)
            k0, k1 = ks.start, ks.stop - 1
            if k0 == k1:
                total += dens[k0] * (anti(v) - anti(u))
                continue
            a, b = lo + (k0 + 1) * w, lo + k1 * w
            total += dens[k0] * (anti(a) - anti(u)) + dens[k1] * (anti(v) - anti(b))
            if k1 - k0 > 1:
                alpha, beta, gamma = c0 + c1 * mid + c2 * q0, c1 * w + c2 * q1, c2 * q2
                k = k0 + 1
                full = alpha * (s0[k1] - s0[k]) + beta * (s1[k1] - s1[k]) + gamma * (s2[k1] - s2[k])
                total += w * full / den
        return float_of(total)

    def to_doc(self, system: PartialSystem) -> dict:
        return {
            "type": "ulam",
            "lo": frac_str(self.lo),
            "hi": frac_str(self.hi),
            "densities": [frac_str(d) for d in self.densities],
        }

    def residual_tol(self) -> float:
        return 1e-5 + 10.0 / self.bins


def integrate_potential(pot: Potential, s: IntervalSet) -> Fraction:
    """Exact integral of the weight over an interval set (overrides are null)."""
    total = Q(0)
    for iv, m, c in pot.pieces:
        cut = s.intersection(IntervalSet.of(iv))
        for piece in cut.intervals:
            a, b = piece.lo, piece.hi
            total += m * (b * b - a * a) / 2 + c * (b - a)
    return total


@dataclass(frozen=True)
class UlamCells:
    """The exact geometry of a uniform bin grid under the map, as one batch.

    Cell n is the part of source bin ``j[n]`` inside the domain of branch
    ``branch[n]`` that the branch sends into target bin ``i[n]``: the
    interval from ``x_lo[n]`` to ``x_hi[n]``, never empty or one point.
    ``slopes[b]`` is |slope| of branch b.  Cells come in the order
    (branch, source bin j, target bin i).  No end flag is kept: every
    reader integrates over the cells, and an end carries no mass.
    """

    i: np.ndarray
    j: np.ndarray
    branch: np.ndarray
    slopes: tuple[Fraction, ...]
    x_lo: RationalPoints
    x_hi: RationalPoints


def _nodes(ks: np.ndarray, step: Fraction, start: Fraction) -> RationalPoints:
    """start + k step at each integer k."""
    return RationalPoints.integers(ks).affine(step, start)


def ulam_geometry(sys_: dyn.IntervalSystem, lo: Fraction, hi: Fraction, bins: int) -> UlamCells:
    """The cells of a uniform bin grid on [lo, hi] under the map, exact.

    Bins are half-open, the last one closed.  The geometry is index
    arithmetic on the grid nodes g_k = lo + k w, a few batch operations per
    branch and none per cell.  The source bins that meet a branch domain
    [a, b] are the index range floor((a - lo) / w) .. ceil((b - lo) / w) - 1,
    and the cell of bin j is [max(g_j, a), min(g_j+1, b)].  Its target bins
    are the same division of its image ends.  The x-cell ends are the
    elementwise max/min of the cell ends and the pulled-back nodes
    p_i = (g_i - intercept) / slope: [max(p_i, u), min(p_i+1, v)], with
    p_i and p_i+1 swapped for a negative slope.
    """
    w, per_w = (hi - lo) / bins, bins / (hi - lo)
    parts = []
    for b, br in enumerate(sys_.branches):
        dom, m, c = br.domain, br.slope, br.intercept
        sources = _bins_meeting(lo, per_w, bins, dom.lo, dom.hi)
        if dom.lo == dom.hi or not sources:
            continue
        js = np.arange(sources.start, sources.stop)
        u = _nodes(js, w, lo).maximum(RationalPoints.of([dom.lo]))
        v = _nodes(js + 1, w, lo).minimum(RationalPoints.of([dom.hi]))
        ya, yb = (u.affine(m, c), v.affine(m, c)) if m > 0 else (v.affine(m, c), u.affine(m, c))
        t0 = np.clip(ya.affine(per_w, -lo * per_w).floor(), 0, bins).astype(np.intp)
        t1 = np.clip(yb.affine(per_w, -lo * per_w).ceil(), 0, bins).astype(np.intp)
        counts = np.maximum(t1 - t0, 0)
        src = np.repeat(np.arange(len(js)), counts)
        i = t0[src] + np.arange(len(src)) - np.repeat(np.cumsum(counts) - counts, counts)
        p, p1 = _nodes(i, w / m, (lo - c) / m), _nodes(i + 1, w / m, (lo - c) / m)
        if m < 0:  # the pulled-back bin is (p_i+1, p_i]
            p, p1 = p1, p
        parts.append((i, js[src], np.full(len(i), b, np.intp), p.maximum(u[src]), p1.minimum(v[src])))
    empty = (np.zeros(0, np.intp),) * 3 + (RationalPoints.zeros(0),) * 2
    i, j, branch, x_lo, x_hi = zip(empty, *parts)
    return UlamCells(
        np.concatenate(i), np.concatenate(j), np.concatenate(branch),
        tuple(abs(br.slope) for br in sys_.branches),
        RationalPoints.concat(x_lo), RationalPoints.concat(x_hi),
    )


def ulam_matrix(
    handle: TransferHandle,
    bins: int,
    lo: Optional[Rationalish] = None,
    hi: Optional[Rationalish] = None,
) -> list[list[Fraction]]:
    """Exact bin-averaged matrix of the operator on a uniform grid.

    Entry [i][j] is the average over bin i of the operator applied to the
    indicator of bin j: integrate the weight over each cell of
    ``ulam_geometry``, with the branch substitution contributing the |slope|
    factor.  Kept as a test oracle: it is the exact rational reference for
    the float bin matrices of ``thermo``'s temperature solver, so a faster
    bin walk can be checked against it entry for entry.
    """
    sys_ = handle.system.ival
    if len(sys_.space.intervals) != 1:
        raise ValidationError("bin matrices need a single-component space")
    comp = sys_.space.intervals[0]
    lo = frac(lo) if lo is not None else comp.lo
    hi = frac(hi) if hi is not None else comp.hi
    if bins < 1 or hi <= lo:
        raise ValidationError("bad bin grid")
    w, cells = (hi - lo) / bins, ulam_geometry(sys_, lo, hi, bins)
    mat = [[Q(0)] * bins for _ in range(bins)]
    for i, j, b, u, v in zip(cells.i.tolist(), cells.j.tolist(), cells.branch.tolist(), cells.x_lo, cells.x_hi):
        cell = IntervalSet.of(RationalInterval(u, v))
        mat[i][j] += integrate_potential(handle.potential, cell) * cells.slopes[b] / w
    return mat
