"""The weighted fiber-sum operator: validation, norm, application, measures.

``L(a)(y) = sum over phi(x) = y of rho(x) a(x)``.  Everything pointwise is
exact rational arithmetic.  Validation decides whether L maps functions
vanishing at infinity on the domain back into functions on the space, by
checking finitely many one-sided arrival conditions; the norm is the exact
supremum of the fiber sums.

Test functions are typed like the maps.  ``TestFunction`` is piecewise
affine on the interval backend (``const_on``, ``affine_on``, ``hat``);
``CylinderFunction`` is a combination of cylinder indicators on the graph
backend (``indicator``).  Both carry ``backend`` as a class attribute and
answer ``value(x)``, ``sup_norm_bound()``, ``scaled(t)``, ``pullback(map)``
(the exact a o phi) and ``outside(region)`` (the part of the support that
an open set of the backend's type misses).

Measures answer one protocol, here and in ``thermo.CascadeMeasure``:
``total_mass()``; ``quadrature(pts)``, groups of ``(weight, rows of
(x, mass))`` whose weighted sums integrate a pointwise function;
``integrates_grids`` and ``integrate_grid(g)``, the exact integral of a
piecewise-quadratic grid function where the measure has one; and
``row_bound(a, cval)``, a residual tail bound or None.  The two measures
a candidate file can hold, ``AtomicMeasure`` and ``UlamMeasure``, also
answer ``to_doc(system)`` and ``residual_tol()``.

The temperature solver in ``thermo`` builds its bin matrices from the bin
geometry that ``ulam_cells`` walks.  ``ulam_matrix`` reads the same walk
into an exact rational matrix; no command calls it, and it is kept as the
exact reference the solver's matrices are tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import dynamics as dyn
from .dynamics import PartialSystem, PathPoint, Potential
from .errors import NotValidated, SupportViolation, ValidationError
from .intervals import (
    IntervalSet,
    Q,
    RationalInterval,
    Rationalish,
    accumulates_at,
    frac,
    frac_str,
)

# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """A piecewise affine function on the interval backend.

    Each piece is (interval, slope, intercept); the function is zero outside
    its pieces, and pieces that touch must agree where they touch.
    """

    backend = "interval"

    pieces: tuple[tuple[RationalInterval, Fraction, Fraction], ...] = ()

    def __post_init__(self):
        pieces = tuple((iv, frac(m), frac(c)) for iv, m, c in self.pieces)
        object.__setattr__(self, "pieces", pieces)
        for (iva, ma, ca), (ivb, mb, cb) in itertools.combinations(pieces, 2):
            inter = iva.intersection(ivb)
            if inter is None:
                continue
            if not inter.is_point:
                raise ValidationError(f"function pieces overlap on {inter}")
            x0 = inter.lo
            if ma * x0 + ca != mb * x0 + cb:
                raise ValidationError(f"function pieces disagree at {frac_str(x0)}")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def const_on(iv: RationalInterval, value: Rationalish) -> "TestFunction":
        return TestFunction(((iv, Q(0), frac(value)),))

    @staticmethod
    def affine_on(iv: RationalInterval, slope, intercept) -> "TestFunction":
        return TestFunction(((iv, frac(slope), frac(intercept)),))

    @staticmethod
    def hat(center: Rationalish, radius: Rationalish, height: Rationalish = 1) -> "TestFunction":
        """Continuous tent-shaped bump, zero outside (center-r, center+r)."""
        c, r, h = frac(center), frac(radius), frac(height)
        if r <= 0:
            raise ValidationError("hat radius must be positive")
        up = (RationalInterval(c - r, c), h / r, h - h * c / r)
        down = (RationalInterval(c, c + r), -h / r, h + h * c / r)
        return TestFunction((up, down))

    # -- evaluation ------------------------------------------------------------

    def value(self, x) -> Fraction:
        """The first piece holding x gives the value; pieces that touch agree."""
        x = frac(x)
        for iv, m, c in self.pieces:
            if iv.contains(x):
                return m * x + c
        return Q(0)

    def support(self) -> IntervalSet:
        """Closure of the nonvanishing set."""
        out = IntervalSet.empty()
        for iv, m, c in self.pieces:
            if m == 0 and c == 0:
                continue
            out = out.union(IntervalSet.of(iv.closure()))
        return out

    def outside(self, region: IntervalSet) -> IntervalSet:
        """The part of the support that the region misses."""
        return self.support().difference(region)

    def sup_norm_bound(self) -> Fraction:
        """Exact sup of |values| on the pieces."""
        best = Q(0)
        for iv, m, c in self.pieces:
            for e in (iv.lo, iv.hi):
                best = max(best, abs(m * e + c))
        return best

    def scaled(self, t: Rationalish) -> "TestFunction":
        t = frac(t)
        return TestFunction(tuple((iv, m * t, c * t) for iv, m, c in self.pieces))

    def pullback(self, map_: dyn.IntervalSystem) -> "TestFunction":
        """Exact a o phi, one piece per branch and piece it pulls back."""
        pieces = []
        for b in map_.branches:
            for iv, m, c in self.pieces:
                for piece in b.preimage_of(IntervalSet.of(iv)).intervals:
                    pieces.append((piece, m * b.slope, m * b.intercept + c))
        return TestFunction(tuple(pieces))


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

    def outside(self, region: dyn.CylinderSet) -> dyn.CylinderSet:
        """The cylinders of nonzero weight that no cylinder of the region holds."""
        stray = (
            cyl for cyl, w in self.cylinders
            if w != 0 and not any(rc.contains(cyl) for rc in region.cylinders)
        )
        return dyn.CylinderSet(region.graph, stray)

    def sup_norm_bound(self) -> Fraction:
        """The sum of |coefficients|."""
        return sum((abs(w) for _, w in self.cylinders), Q(0))

    def scaled(self, t: Rationalish) -> "CylinderFunction":
        t = frac(t)
        return CylinderFunction(tuple((p, w * t) for p, w in self.cylinders))

    def pullback(self, map_: dyn.GraphSystem) -> "CylinderFunction":
        """Exact a o phi: each cylinder Z(w) pulls back to the Z(ew)."""
        cyls = []
        for cyl, w in self.cylinders:
            for e in map_.prependable(cyl.rng):
                cyls.append((map_.path_point((e.name,) + cyl.word), w))
        return CylinderFunction(tuple(cyls))


Function = Union[TestFunction, CylinderFunction]


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

    @property
    def norm(self) -> Fraction:
        return self.validation.norm

    def require_valid(self):
        if not self.validation.valid:
            raise NotValidated(
                "operator failed validation: "
                + "; ".join(str(d) for d in self.validation.defects if d.fatal)
            )


def apply(handle: TransferHandle, a: Function, y, n: int = 1) -> Fraction:
    """Exact value of the n-fold weighted fiber sum of a at y."""
    if a.backend != handle.system.backend:
        raise ValidationError("function backend does not match the system")
    total = Q(0)
    for x, w in dyn.preimages(handle.system, handle.potential, y, n):
        if w == 0:
            continue
        total += w * a.value(x)
    return total


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

    def quadrature(self, pts: int) -> list:
        """The atoms, as one group of weight one."""
        return [(1.0, self.atoms)]

    def row_bound(self, a, cval) -> None:
        return None

    def to_doc(self, system: PartialSystem) -> dict:
        atoms = [{**system.map.point_doc(x), "mass": frac_str(m)} for x, m in self.atoms]
        return {"type": "atomic", "backend": system.backend, "atoms": atoms}

    def residual_tol(self) -> float:
        return 1e-8


@dataclass(frozen=True)
class UlamMeasure:
    """Density vector on a uniform bin grid over one space component."""

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

    def total_mass(self) -> Fraction:
        w = (self.hi - self.lo) / self.bins
        return sum((d * w for d in self.densities), Q(0))

    def quadrature(self, pts: int) -> list:
        """One group: the pts-point midpoint rule in every bin of nonzero density."""
        w = (self.hi - self.lo) / self.bins
        rows = (
            (self.lo + k * w + w * (2 * i + 1) / (2 * pts), d * w / pts)
            for k, d in enumerate(self.densities)
            if d != 0
            for i in range(pts)
        )
        return [(1.0, rows)]

    def integrate_grid(self, g) -> float:
        """Exact integral of a piecewise-quadratic grid function, as a float."""
        w = (self.hi - self.lo) / self.bins
        total = Q(0)
        for (u, v), (c0, c1, c2) in zip(zip(g.nodes, g.nodes[1:]), g.cells):
            if c0 == 0 and c1 == 0 and c2 == 0:
                continue
            u_ = max(u, self.lo)
            v_ = min(v, self.hi)
            if v_ <= u_:
                continue
            k0 = max(int((u_ - self.lo) // w), 0)
            k1 = min(int(-((self.lo - v_) // w)) - 1, self.bins - 1)

            def anti(x: Fraction) -> Fraction:
                return c0 * x + c1 * x * x / 2 + c2 * x * x * x / 3

            for k in range(k0, k1 + 1):
                a_ = max(u_, self.lo + k * w)
                b_ = min(v_, self.lo + (k + 1) * w)
                if b_ <= a_:
                    continue
                total += self.densities[k] * (anti(b_) - anti(a_))
        return float(total)

    def row_bound(self, a, cval) -> None:
        return None

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


def ulam_cells(sys_: dyn.IntervalSystem, lo: Fraction, hi: Fraction, bins: int):
    """The exact geometry of a uniform bin grid on [lo, hi] under the map.

    Yields ``(i, j, |slope|, xcell)`` for each branch, source bin j and
    target bin i, in that order, where xcell is the part of bin j that the
    branch sends into bin i; cells that are empty or a single point are
    skipped.  Bins are half-open, the last one closed.
    """
    w = (hi - lo) / bins
    for br in sys_.branches:
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
                xcell = br.inverse_image(ycell)
                yield i, j, abs(br.slope), xcell


def ulam_matrix(
    handle: TransferHandle,
    bins: int,
    lo: Optional[Rationalish] = None,
    hi: Optional[Rationalish] = None,
) -> list[list[Fraction]]:
    """Exact bin-averaged matrix of the operator on a uniform grid.

    Entry [i][j] is the average over bin i of the operator applied to the
    indicator of bin j: integrate the weight over each cell of
    ``ulam_cells``, with the branch substitution contributing the |slope|
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
    w = (hi - lo) / bins
    mat = [[Q(0)] * bins for _ in range(bins)]
    for i, j, absm, xcell in ulam_cells(sys_, lo, hi, bins):
        mat[i][j] += integrate_potential(handle.potential, IntervalSet.of(xcell)) * absm / w
    return mat
