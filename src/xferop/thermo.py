"""Time-evolution twists, eigen-measure residuals, and the temperature solver.

The one-parameter family fixes functions and multiplies the shift generator
by an exponential phase built from an energy function; on spanning monomials
it acts through explicit multipliers that stay evaluable at complex
parameters.  The dual side asks when a probability measure reproduces itself
under weighted fiber sums: the strong form tests every compactly supported
function with the weight included, the weak form only functions supported in
the regular region with the weight dropped.  A bisection solver recovers the
inverse temperature from the Perron root of the discretized fiber-sum
operator, and the state-level checks evaluate both sides of the exchange
identity through the diagonal expectation.

The discretized operator is built in two passes.  An exact pass, once per
solve, cuts the preimage cells of ``transfer.ulam_cells`` (the bin walk that
``transfer.ulam_matrix`` reads too) by the energy pieces in rational
arithmetic and keeps the float segments they cut, with the (row, col) bin
position of each cell; a float pass, once per inverse temperature,
integrates exp(-beta*energy) over all segments in one numpy expression and
sums them into the nonzero entries of the bin matrix at those positions.
A power step multiplies by the transpose straight from the positions (one
``np.bincount``), so no solve builds the bins x bins matrix, and each
bisection step starts from the previous step's Perron vector.  The graph
operator is one entry per vertex pair and stays dense and cold (see
``_RuelleGraph``).

The state-level checks and the eigen-measure residuals integrate against a
measure through one state table per call, dropped on return.  The table
gives every point it meets an int id and keeps each exact per-point
quantity (orbit ends, cocycles, fibres, energy sums, test-function values,
twisted coefficients, exp(beta*energy) and the weight) as a column indexed
by id, filled once per point by the same exact code as a direct
evaluation.  An integrand is a function from an id array to a float array:
a gather, an ``np.bincount`` over fibre rows, an elementwise product, each
in the float order of the per-point loop it replaces, so every number is
bit for bit the same.  Every measure hands the table its quadrature as
groups of (weight, rows of (x, mass)): an atomic measure is one group of
weight one, a bin-density measure one group of midpoint rows, an explicit
cascade one group per level.  An integral is a ``math.fsum`` of
mass * value per group and one over the weighted groups.

The eigen-measure residual rows follow one rule.  A measure that
integrates grid functions exactly (``integrates_grids``: bin densities and
dyadic cascades) takes the left side as the exact integral of the fiber-sum
grid, and the right side too when the energy is constant; otherwise both
sides come from the point table.  One builder makes the fiber-sum grid of
weight * a: the strong identity passes the weight, the weak one a unit
weight.  One builder makes the grid of a test function or a weight from its
affine pieces, and ``GridFunction.cell`` reads a grid's cell at a point.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import dynamics as dyn
from . import rep
from . import transfer as tr
from .dynamics import GraphPotential, IntervalPotential, PartialSystem, Potential
from .errors import (
    NoSolution,
    OutOfDomain,
    SupportViolation,
    UnsupportedPotential,
    ValidationError,
)
from .intervals import IntervalSet, Q, RationalInterval, accumulates_at, frac, frac_str
from .verdicts import Verdict

__all__ = [
    "PotentialFunction",
    "TwistedMonomial",
    "sigma_action",
    "EnergyWitness",
    "EnergyScan",
    "check_positive_energy",
    "GridFunction",
    "CascadeMeasure",
    "inverse_orbit_measure",
    "ResidualRow",
    "ResidualReport",
    "conformal_residual",
    "weakly_conformal_residual",
    "KMSCandidate",
    "solve_conformal",
    "kms_battery",
    "core_kms_check",
    "hat_battery",
]


# ---------------------------------------------------------------------------
# energy functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PotentialFunction:
    """A continuous real energy on the domain of the map.

    Wraps a signed :class:`IntervalPotential` (affine pieces) or
    :class:`GraphPotential` (one value per edge).  Construction checks
    that the pieces cover the domain and glue continuously; point overrides
    are rejected because they would be invisible to limits.
    """

    system: PartialSystem
    carrier: Potential

    def __post_init__(self):
        if self.carrier.backend != self.system.backend:
            raise ValidationError("energy backend does not match the system")
        if self.system.backend == "graph":
            self.carrier.check_edges(self.system.gph)
            return
        if self.carrier.overrides:
            raise ValidationError("energy functions take no point overrides")
        delta = self.system.ival.delta
        if not delta.issubset(self.carrier.coverage()):
            raise ValidationError("energy pieces must cover the domain")
        for iv, _, _ in self.carrier.pieces:
            for p in (iv.lo, iv.hi):
                if not delta.contains(p):
                    continue
                v = self.carrier.value(p)
                for side in (-1, +1):
                    if not accumulates_at(delta, p, side=side):
                        continue
                    lim = self.carrier.one_sided_limit(p, side)
                    if lim is not None and lim != v:
                        raise ValidationError(
                            f"energy jumps at {frac_str(p)}: {frac_str(lim)} vs {frac_str(v)}"
                        )

    # -- constructors --------------------------------------------------------

    @staticmethod
    def const(system: PartialSystem, value) -> "PotentialFunction":
        v = frac(value)
        if system.backend == "interval":
            pieces = tuple((iv, Q(0), v) for iv in system.ival.space.intervals)
            return PotentialFunction(system, IntervalPotential(pieces, allow_negative=True))
        weights = tuple((e.name, v) for e in system.gph.edges)
        return PotentialFunction(system, GraphPotential(weights, allow_negative=True))

    @staticmethod
    def of(system: PartialSystem, carrier: Potential) -> "PotentialFunction":
        return PotentialFunction(system, carrier)

    # -- evaluation ------------------------------------------------------------

    def value(self, x) -> Fraction:
        return self.carrier.value(x)

    def birkhoff(self, x, n: int) -> Fraction:
        """Sum of the energy along the first n forward steps."""
        if n < 0:
            raise ValidationError("n must be nonnegative")
        if n == 0:
            return Q(0)
        pts = dyn.orbit(self.system, x, n - 1)
        return sum((self.value(z) for z in pts), Q(0))

    def constant_value(self) -> Optional[Fraction]:
        """The single value when the energy is constant, else None."""
        return self.carrier.constant_value()


# ---------------------------------------------------------------------------
# the one-parameter twist on monomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwistedMonomial:
    """A spanning monomial with exponential multipliers attached.

    The left coefficient picks up exp(i lam * S_up) and the right one
    exp(-i lam * S_down), where S_k is the k-step energy sum.  Both sides
    stay pointwise evaluable for any complex parameter.
    """

    mon: rep.Monomial
    lam: complex
    psi: PotentialFunction

    def left_value(self, x) -> complex:
        """The left coefficient at x, evaluated directly.

        No command calls this or ``right_value``: the state integrals read
        the same numbers from the twisted columns of a ``_StateTable``
        (``_StateTable.twisted``).  They are kept as the pointwise oracle
        that tests hold the table against.
        """
        base = complex(self.mon.left.value(x)) if self.mon.left is not None else 1.0 + 0j
        try:
            s = self.psi.birkhoff(x, self.mon.up)
        except (OutOfDomain, ValidationError):
            return 0j  # the power's coefficient lives on the n-step domain
        return cmath.exp(1j * self.lam * float(s)) * base

    def right_value(self, x) -> complex:
        """The right coefficient at x, evaluated directly (an oracle, as ``left_value``)."""
        base = complex(self.mon.right.value(x)) if self.mon.right is not None else 1.0 + 0j
        try:
            s = self.psi.birkhoff(x, self.mon.down)
        except (OutOfDomain, ValidationError):
            return 0j
        return base * cmath.exp(-1j * self.lam * float(s))


def sigma_action(
    mon: Union[rep.Monomial, TwistedMonomial], lam, psi: PotentialFunction
) -> TwistedMonomial:
    """Apply the twist at parameter lam; twists at the same energy compose."""
    lam = complex(lam)
    if isinstance(mon, TwistedMonomial):
        if mon.psi.carrier != psi.carrier:
            raise ValidationError("cannot compose twists over different energies")
        return TwistedMonomial(mon.mon, mon.lam + lam, psi)
    return TwistedMonomial(mon, lam, psi)


# ---------------------------------------------------------------------------
# positive energy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyWitness:
    """A point (or window) where some n-step energy sum vanishes exactly."""

    n: int
    point: object
    window: Optional[RationalInterval] = None
    chain: tuple = ()


@dataclass(frozen=True)
class EnergyScan:
    depth: int
    windows: int


def _birkhoff_windows(psi: PotentialFunction, comp: dyn.CompositeBranch) -> list:
    """Affine pieces ``(window, A, B)`` of the n-step energy sum ``A x + B`` on
    one composite domain: each prefix map phi^k pulls the pieces of psi back
    and splits the windows along them."""
    windows = [(comp.domain, Q(0), Q(0))]
    for prefix in comp.prefix_maps():
        pulled = [
            (prefix.inverse_image(ivp), mp * prefix.slope, mp * prefix.intercept + cp)
            for ivp, mp, cp in psi.carrier.pieces
        ]
        windows = [
            (piece, A + dA, B + dB)
            for win, A, B in windows
            for iv, dA, dB in pulled
            if (piece := iv.intersection(win)) is not None
        ]
    return windows


def check_positive_energy(system: PartialSystem, psi: PotentialFunction, depth: int = 8) -> Verdict:
    """Decide whether every n-step energy sum avoids zero, up to the depth.

    Interval backend: one walk over the composite branches of phi^1, ...,
    phi^depth.  On each, the prefix maps phi^k cut the domain into windows
    where the sum is affine, so zeros are found by exact root isolation;
    ``EnergyScan.windows`` counts the windows.  Graph backend: the sum along
    a path depends only on its first n edges, so all n-words are scanned.

    Positive energy is the hypothesis under which the paper's KMS states
    live on the core; no command reports it yet, and this is its check.
    """
    if psi.system is not system:
        psi = PotentialFunction(system, psi.carrier)
    scanned = 0
    if system.backend == "graph":
        wmap = psi.carrier.weight_map()
        for n in range(1, depth + 1):
            for p in system.gph.words(n):
                scanned += 1
                s = sum((wmap[e] for e in p.word), Q(0))
                if s == 0:
                    return Verdict(
                        "PositiveEnergy",
                        "Fails",
                        EnergyWitness(n, p, chain=p.word),
                        depth=depth,
                    )
        return Verdict("PositiveEnergy", "Holds", EnergyScan(depth, scanned), depth=depth)

    for n, level in enumerate(dyn.composite_levels(system.ival, depth), 1):
        for comp in level:
            for win, A, B in _birkhoff_windows(psi, comp):
                scanned += 1
                if A == 0:
                    if B == 0:
                        pt = win.midpoint()
                        return Verdict(
                            "PositiveEnergy",
                            "Fails",
                            EnergyWitness(n, pt, window=win, chain=comp.chain),
                            depth=depth,
                        )
                    continue
                root = -B / A
                if win.contains(root):
                    return Verdict(
                        "PositiveEnergy",
                        "Fails",
                        EnergyWitness(n, root, window=win, chain=comp.chain),
                        depth=depth,
                    )
    return Verdict("PositiveEnergy", "Holds", EnergyScan(depth, scanned), depth=depth)


# ---------------------------------------------------------------------------
# piecewise-quadratic grid functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridFunction:
    """Piecewise quadratic with exact values pinned at the grid nodes.

    Open cells between consecutive nodes carry (c0, c1, c2); outside the
    node range the function is zero.  Node values live in their own table,
    so overrides, fiber collisions at shared branch endpoints, and jump
    points never leak into a cell.
    """

    nodes: tuple[Fraction, ...]
    cells: tuple[tuple[Fraction, Fraction, Fraction], ...]
    node_values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.nodes) < 2 or len(self.cells) != len(self.nodes) - 1:
            raise ValidationError("grid shape mismatch")
        if len(self.node_values) != len(self.nodes):
            raise ValidationError("one value per node required")
        if any(a >= b for a, b in zip(self.nodes, self.nodes[1:])):
            raise ValidationError("nodes must increase strictly")

    def value(self, x) -> Fraction:
        x = frac(x)
        for p, v in zip(self.nodes, self.node_values):
            if p == x:
                return v
        c0, c1, c2 = self.cell(x)
        return c0 + c1 * x + c2 * x * x

    def cell(self, x) -> tuple[Fraction, Fraction, Fraction]:
        """The coefficients of the open cell holding x; zeros at a node or outside."""
        for (u, v), c in zip(zip(self.nodes, self.nodes[1:]), self.cells):
            if u < x < v:
                return c
        return (Q(0),) * 3


def _piece_at(pieces, x: Fraction) -> Optional[tuple[Fraction, Fraction]]:
    """(slope, intercept) of the first affine piece holding x, or None."""
    for iv, m, c in pieces:
        if iv.contains(x):
            return (m, c)
    return None


def _piece_grid(pieces, cuts, value: Callable, carrier: RationalInterval) -> GridFunction:
    """Affine pieces as a grid function on the carrier.

    The nodes are the carrier ends and the cuts inside it; each cell takes
    the piece at its midpoint, and ``value`` pins the node values.
    """
    inside = (p for p in cuts if carrier.lo <= p <= carrier.hi)
    nodes = tuple(sorted({carrier.lo, carrier.hi, *inside}))
    cells = []
    for u, v in zip(nodes, nodes[1:]):
        hit = _piece_at(pieces, (u + v) / 2)
        cells.append((hit[1], hit[0], Q(0)) if hit else (Q(0),) * 3)
    return GridFunction(nodes, tuple(cells), tuple(value(p) for p in nodes))


def _fn_grid(a: tr.TestFunction, carrier: RationalInterval) -> GridFunction:
    ends = (p for iv, _, _ in a.pieces for p in (iv.lo, iv.hi))
    return _piece_grid(a.pieces, ends, a.value, carrier)


def _pot_grid(pot: IntervalPotential, carrier: RationalInterval) -> GridFunction:
    return _piece_grid(pot.pieces, pot.breakpoints(), pot.value_or_zero, carrier)


def _grid_product(f: GridFunction, g: GridFunction) -> GridFunction:
    nodes = tuple(sorted(set(f.nodes) | set(g.nodes)))
    cells = []
    for u, v in zip(nodes, nodes[1:]):
        mid = (u + v) / 2
        f0, f1, f2 = f.cell(mid)
        g0, g1, g2 = g.cell(mid)
        if (f2 != 0 and (g1 != 0 or g2 != 0)) or (g2 != 0 and f1 != 0):
            raise UnsupportedPotential("product leaves the quadratic class")
        cells.append(
            (f0 * g0, f0 * g1 + f1 * g0, f0 * g2 + f1 * g1 + f2 * g0)
        )
    vals = tuple(f.value(p) * g.value(p) for p in nodes)
    return GridFunction(nodes, tuple(cells), vals)


def _single_component(system: PartialSystem) -> RationalInterval:
    comps = system.ival.space.intervals
    if len(comps) != 1:
        raise UnsupportedPotential("closed-form grids need a single-component space")
    return comps[0]


def _fiber_grid(
    handle: tr.TransferHandle, a: tr.TestFunction, weight: IntervalPotential
) -> GridFunction:
    """The fiber sum of weight * a, as an exact grid function of the target."""
    sys_ = handle.system.ival
    carrier = _single_component(handle.system)
    xcuts = set(weight.breakpoints())
    for br in sys_.branches:
        xcuts.update((br.domain.lo, br.domain.hi))
    for iv, _, _ in a.pieces:
        xcuts.update((iv.lo, iv.hi))
    ycuts = {carrier.lo, carrier.hi}
    for br in sys_.branches:
        for x in xcuts:
            if br.domain.contains(x):
                ycuts.add(br.value(x))
    nodes = tuple(sorted(ycuts))
    cells = []
    for u, v in zip(nodes, nodes[1:]):
        ym = (u + v) / 2
        c0, c1, c2 = Q(0), Q(0), Q(0)
        for br in sys_.branches:
            xm = (ym - br.intercept) / br.slope
            if not br.domain.contains(xm):
                continue
            fa = _piece_at(a.pieces, xm)
            if fa is None:
                continue
            fr = _piece_at(weight.pieces, xm)
            if fr is None:
                continue
            ma, ca = fa
            mr, cr = fr
            u1 = 1 / br.slope
            u0 = -br.intercept / br.slope
            q2 = ma * mr
            q1 = ma * cr + ca * mr
            q0 = ca * cr
            c2 += q2 * u1 * u1
            c1 += 2 * q2 * u1 * u0 + q1 * u1
            c0 += q2 * u0 * u0 + q1 * u0 + q0
        cells.append((c0, c1, c2))
    fibres = (dyn.preimages(handle.system, weight, p, 1, drop_zero=True) for p in nodes)
    vals = tuple(sum((w * a.value(x) for x, w in fibre), Q(0)) for fibre in fibres)
    return GridFunction(nodes, tuple(cells), vals)


# ---------------------------------------------------------------------------
# cascade measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CascadeMeasure:
    """Inverse-orbit atom cascade with geometric level weights.

    Level n carries the n-step preimages of the center, each atom weighted
    base * exp(-beta * n); the truncation at the stored depth is
    renormalized to unit mass and the dropped relative tail is recorded.
    When the level sets coincide with the dyadic midpoint grids of the
    carrier interval (verified level by level, not assumed), level sums of
    grid functions run in closed form, so deep truncations stay cheap.
    """

    center: Fraction
    beta: float
    depth: int
    lo: Fraction
    hi: Fraction
    level_counts: tuple[int, ...]
    base: float
    dyadic: bool
    levels: Optional[tuple[tuple[Fraction, ...], ...]]
    tail_bound: Optional[float]
    growth: Optional[int]

    def level_weight(self, n: int) -> float:
        return self.base * math.exp(-self.beta * n)

    def total_mass(self) -> float:
        return math.fsum(
            self.level_counts[n] * self.level_weight(n) for n in range(self.depth + 1)
        )

    def level_sum(self, g: GridFunction, n: int) -> Fraction:
        if self.dyadic:
            return _dyadic_level_sum(g, self.lo, self.hi, n)
        return sum((g.value(x) for x in self.levels[n]), Q(0))

    def integrate_grid(self, g: GridFunction) -> float:
        return math.fsum(
            self.level_weight(n) * float(self.level_sum(g, n))
            for n in range(self.depth + 1)
        )

    @property
    def integrates_grids(self) -> bool:
        return self.dyadic

    def quadrature(self, pts: int) -> list:
        """One group per level: its atoms at mass one, weighted by the level weight."""
        if self.levels is None:
            raise UnsupportedPotential(
                "closed-form cascade holds no explicit atoms; only grid functions integrate"
            )
        return [
            (self.level_weight(n), ((x, 1) for x in level))
            for n, level in enumerate(self.levels)
        ]

    def row_bound(self, a: tr.Function, cval: Optional[Fraction]) -> Optional[float]:
        """Tail bound of a weak residual row, or None where it does not hold.

        The telescoping estimate holds when each level refines the last at
        the detected rate and one unit of energy is paid per step.
        """
        if self.growth is None or cval != 1:
            return None
        q = self.growth * math.exp(-self.beta)
        if q >= 1:
            return None
        return self.growth * q**self.depth * float(a.sup_norm_bound())


def _dyadic_level_sum(g: GridFunction, lo: Fraction, hi: Fraction, n: int) -> Fraction:
    # atoms x_j = lo + (2j+1) step, step = (hi-lo)/2^(n+1), j = 0..2^n-1
    step = (hi - lo) / (1 << (n + 1))
    jmax = (1 << n) - 1
    total = Q(0)
    for (u, v), (c0, c1, c2) in zip(zip(g.nodes, g.nodes[1:]), g.cells):
        if c0 == 0 and c1 == 0 and c2 == 0:
            continue
        tu = ((u - lo) / step - 1) / 2
        tv = ((v - lo) / step - 1) / 2
        j0 = max(math.floor(tu) + 1, 0)
        j1 = min(math.ceil(tv) - 1, jmax)
        if j1 < j0:
            continue
        count = j1 - j0 + 1
        s1 = Q((j0 + j1) * count, 2)
        s2 = Q(j1 * (j1 + 1) * (2 * j1 + 1) - (j0 - 1) * j0 * (2 * j0 - 1), 6)
        p = lo + step
        q = 2 * step
        sx = count * p + q * s1
        sxx = count * p * p + 2 * p * q * s1 + q * q * s2
        total += c0 * count + c1 * sx + c2 * sxx
    for p, val in zip(g.nodes, g.node_values):
        if val == 0:
            continue
        t = ((p - lo) / step - 1) / 2
        if t.denominator == 1 and 0 <= t <= jmax:
            total += val
    return total


def inverse_orbit_measure(
    handle: tr.TransferHandle,
    beta: float,
    depth: int,
    center=None,
    probe: int = 10,
    max_atoms: int = 200_000,
    force_explicit: bool = False,
) -> CascadeMeasure:
    """Build the renormalized geometric cascade over the preimages of a point.

    The center defaults to the unique irregular point of the system.  When
    the enumerated levels match the dyadic midpoint grids on every probed
    level, the measure switches to closed-form sums and the depth can be
    large; otherwise atoms are enumerated explicitly and capped.

    No command builds one yet: it is the measure that separates the weak
    eigen-measure identity (``weakly_conformal_residual``) from the strong one.
    """
    system, pot = handle.system, handle.potential
    if depth < 0:
        raise ValidationError("depth must be nonnegative")
    comp = _single_component(system)
    lo, hi = comp.lo, comp.hi
    if center is None:
        irr = dyn.regular_set(system, pot).irregular_points
        if len(irr) != 1:
            raise ValidationError(
                f"need a unique irregular point to anchor the cascade, found {len(irr)}"
            )
        center = irr[0].point
    center = frac(center)

    sys_ = system.ival
    levels: list[tuple[Fraction, ...]] = [(center,)]
    dyadic_ok = (not force_explicit) and center == (lo + hi) / 2
    probe_n = min(depth, probe)
    seen = 1
    for n in range(1, probe_n + 1):
        nxt = sorted({x for y in levels[-1] for x in sys_.fiber(y)})
        levels.append(tuple(nxt))
        seen += len(nxt)
        if seen > max_atoms:
            raise UnsupportedPotential(
                "level growth exceeds the explicit atom budget and no grid structure was found"
            )
        if dyadic_ok:
            step = (hi - lo) / (1 << (n + 1))
            expected = [lo + (2 * j + 1) * step for j in range(1 << n)]
            if nxt != expected:
                dyadic_ok = False

    if dyadic_ok:
        counts = tuple(1 << n for n in range(depth + 1))
        stored = None
        growth = 2
    else:
        total = seen
        for n in range(probe_n + 1, depth + 1):
            nxt = sorted({x for y in levels[-1] for x in sys_.fiber(y)})
            levels.append(tuple(nxt))
            total += len(nxt)
            if total > max_atoms:
                raise UnsupportedPotential(
                    "level growth exceeds the explicit atom budget and no grid structure was found"
                )
        counts = tuple(len(lv) for lv in levels)
        stored = tuple(levels)
        # a dead branch (some count hits zero) never has uniform growth
        growth = None
        if depth and all(counts):
            g = counts[1] // counts[0]
            if all(counts[n + 1] == counts[n] * g for n in range(depth)):
                growth = g

    raw = math.fsum(counts[n] * math.exp(-beta * n) for n in range(depth + 1))
    if raw <= 0:
        raise ValidationError("cascade has no mass")
    base = 1.0 / raw
    tail = None
    if growth is not None:
        q = growth * math.exp(-beta)
        if q < 1:
            tail = q ** (depth + 1) / (1 - q)
    return CascadeMeasure(
        center, float(beta), depth, lo, hi, counts, base, dyadic_ok, stored, tail, growth
    )


# ---------------------------------------------------------------------------
# residual reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualRow:
    label: str
    lhs: float
    rhs: float
    residual: float
    bound: Optional[float] = None


@dataclass(frozen=True)
class ResidualReport:
    kind: str
    rows: tuple[ResidualRow, ...]
    notes: tuple[str, ...] = ()

    @property
    def max_residual(self) -> float:
        """The largest residual; NaN when any row is NaN, so no gate passes it."""
        residuals = [r.residual for r in self.rows]
        if any(math.isnan(v) for v in residuals):
            return math.nan
        return max(residuals, default=0.0)

    def __float__(self) -> float:
        return self.max_residual


def _psi_exp(psi: PotentialFunction, beta: float, x) -> float:
    return math.exp(beta * float(psi.value(x)))


Measure = Union[tr.AtomicMeasure, tr.UlamMeasure, CascadeMeasure]


# ---------------------------------------------------------------------------
# per-call state tables
# ---------------------------------------------------------------------------

IdFunction = Callable[[np.ndarray], np.ndarray]


class _StateTable:
    """Exact per-point quantities of the state integrals of one call, as columns.

    ``kms_battery``, ``core_kms_check`` and the two eigen-measure
    residuals each build one and drop it when they return.  Every point the
    call meets is interned once and gets an int id.  Each quantity is a
    column indexed by id: orbit ends (the end's id, -1 where the orbit
    leaves the domain first), cocycles (NaN there), fibres (one run of
    (point id, weight) per id in the flat arrays of its depth, fibre order,
    nonzero weights only), energy sums (NaN where the sum raised),
    test-function values, the twisted coefficients, exp(beta*energy) and
    the weight.  A column is filled by the same exact code as a direct
    evaluation, once per id and only for the ids a row asks for.  The
    quadrature is one id array and one float mass array, cut into groups.

    Integrands are functions from an id array to a float array: gathers,
    ``np.bincount`` sums and elementwise products, so a row costs a few
    numpy calls, not a Python call per point.  Numbers are kept as float
    operands, never as products, and each integrand multiplies and adds
    them in the order of a direct evaluation, so every sum is bit for bit
    the same.
    """

    def __init__(self, handle, mu: Measure, psi: PotentialFunction, beta: float):
        self.handle, self.mu, self.psi, self.beta = handle, mu, psi, beta
        self.system, self.pot = handle.system, handle.potential
        self._ids: dict = {}
        self.points: list = []
        self._quad: dict = {}
        self._cols: dict = {}
        self._flat: dict = {}  # depth -> (point ids, weights) of the fibre runs
        self._held: dict = {}  # objects whose id keys a column, kept alive so ids stay unique

    def _id(self, x) -> int:
        i = self._ids.get(x)
        if i is None:
            i = self._ids[x] = len(self.points)
            self.points.append(x)
        return i

    def quad(self, pts: int) -> tuple[np.ndarray, np.ndarray, list]:
        """The quadrature of mu: ids, float masses, and (weight, start, stop) per group."""
        q = self._quad.get(pts)
        if q is None:
            ids, masses, groups = [], [], []
            for w, rows in self.mu.quadrature(pts):
                lo = len(ids)
                for x, m in rows:
                    ids.append(self._id(x))
                    masses.append(float(m))
                groups.append((w, lo, len(ids)))
            ids, masses = np.array(ids, dtype=np.intp), np.array(masses, dtype=float)
            ids.flags.writeable = masses.flags.writeable = False
            q = self._quad[pts] = (ids, masses, groups)
        return q

    def _read(self, key, ids: np.ndarray, compute: Callable, dtype=float, width=()) -> np.ndarray:
        """Column ``key`` at the ids; compute(todo) fills the ids it has no value for yet."""
        col = self._cols.get(key)
        n = len(self.points)
        if col is None:
            col = self._cols[key] = (np.empty((n, *width), dtype), np.zeros(n, bool))
            missing = ids
        else:
            if len(col[1]) < n:
                more = n - len(col[1])
                col = self._cols[key] = (
                    np.concatenate((col[0], np.empty((more, *width), dtype))),
                    np.concatenate((col[1], np.zeros(more, bool))),
                )
            have = col[1][ids]
            missing = None if have.all() else ids[~have]
        vals, done = col
        if missing is not None and len(missing):
            todo = np.bincount(missing).nonzero()[0]  # each missing id once, ascending
            vals[todo] = compute(todo.tolist())
            done[todo] = True
        return vals[ids]

    def once(self, fn: Callable[[list], list]) -> IdFunction:
        """An integrand that a call reads once: float(v) for v in fn(points), kept nowhere.

        A residual row has its own test function, so its values and fiber
        sums go through this; the energy and weight factors are columns.
        """
        pts = self.points
        return lambda ids: np.array([float(v) for v in fn([pts[i] for i in ids.tolist()])])

    def psi_exp_rho(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """exp(beta*energy) and the weight at the ids, kept as one column of pairs."""
        pts, psi, beta, pot = self.points, self.psi, self.beta, self.pot

        def fill(todo):
            return [(_psi_exp(psi, beta, pts[i]), float(pot.value_or_zero(pts[i]))) for i in todo]

        pairs = self._read("psi_exp_rho", ids, fill, width=(2,))
        return pairs[:, 0], pairs[:, 1]

    def values(self, f: Optional[tr.Function], ids: np.ndarray) -> np.ndarray:
        """float(f(x)) at the ids; 1.0 everywhere for an absent function."""
        if f is None:
            return np.ones(len(ids))
        self._held[id(f)] = f
        pts = self.points

        def fill(todo):
            return [float(f.value(pts[i])) for i in todo]

        return self._read(("value", id(f)), ids, fill)

    def orbit_ends(self, n: int, ids: np.ndarray) -> np.ndarray:
        """The id of phi^n at the ids; -1 where the orbit leaves the domain first."""
        pts, system = self.points, self.system

        def fill(todo):
            ends = (dyn.orbit_end(system, pts[i], n) for i in todo)
            return [-1 if z is None else self._id(z) for z in ends]

        return self._read(("orbit", n), ids, fill, dtype=np.intp)

    def cocycles(self, n: int, ids: np.ndarray) -> np.ndarray:
        """float(rho_n) at the ids; NaN where the orbit leaves the domain first."""
        pts, system, pot = self.points, self.system, self.pot

        def fill(todo):
            ws = (dyn.cocycle_or_none(system, pot, n, pts[i]) for i in todo)
            return [math.nan if w is None else float(w) for w in ws]

        return self._read(("cocycle", n), ids, fill)

    def fibres(self, n: int, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The n-step fibres of the ids, flat: (row in ids, point id, float weight).

        Rows come in the order of ids, each fibre in fibre order, and only
        preimages of nonzero weight are kept.
        """
        pts, system, pot = self.points, self.system, self.pot

        def fill(todo):
            old_x, old_w = self._flat.get(n, (np.empty(0, np.intp), np.empty(0)))
            xs, ws, spans = [], [], []
            for i in todo:
                pre = [(x, w) for x, w in dyn.preimages(system, pot, pts[i], n) if w != 0]
                spans.append((len(old_x) + len(xs), len(pre)))
                xs.extend(self._id(x) for x, _ in pre)
                ws.extend(float(w) for _, w in pre)
            self._flat[n] = (
                np.concatenate((old_x, np.array(xs, dtype=np.intp))),
                np.concatenate((old_w, np.array(ws, dtype=float))),
            )
            return spans

        span = self._read(("fibre", n), ids, fill, dtype=np.intp, width=(2,))
        start, count = span[:, 0], span[:, 1]
        rows = np.repeat(np.arange(len(ids)), count)
        first = np.cumsum(count) - count  # where each row's run starts in the output
        pos = np.arange(len(rows)) + np.repeat(start - first, count)
        flat_x, flat_w = self._flat[n]
        return rows, flat_x[pos], flat_w[pos]

    def energy_sums(self, psi: PotentialFunction, n: int, ids: np.ndarray) -> np.ndarray:
        """float(psi.birkhoff(x, n)) at the ids; NaN where it raised."""
        self._held[id(psi)] = psi
        pts = self.points

        def energy(x) -> float:
            try:
                return float(psi.birkhoff(x, n))
            except (OutOfDomain, ValidationError):
                return math.nan

        return self._read(("energy", id(psi), n), ids, lambda todo: [energy(pts[i]) for i in todo])

    def twisted(self, f, psi: PotentialFunction, n: int, lam: complex, side: int,
                ids: np.ndarray) -> np.ndarray:
        """Real part of a twisted coefficient at the ids, 0.0 off the n-step domain.

        Side +1 is ``TwistedMonomial.left_value`` (exp(i lam S_n) * f), side
        -1 is ``right_value`` (f * exp(-i lam S_n)), with the same per-point
        ``cmath.exp`` and the same operand order.
        """

        def fill(todo):
            todo = np.array(todo, dtype=np.intp)
            out = []
            for b, s in zip(self.values(f, todo).tolist(), self.energy_sums(psi, n, todo).tolist()):
                if s != s:
                    out.append(0.0)  # the power's coefficient lives on the n-step domain
                elif side > 0:
                    out.append((cmath.exp(1j * lam * s) * complex(b)).real)
                else:
                    out.append((complex(b) * cmath.exp(-1j * lam * s)).real)
            return out

        self._held[id(f)] = f
        return self._read(("twist", side, id(f), id(psi), n, lam), ids, fill)


def _integrate_state(tab: _StateTable, f: IdFunction, pts: int) -> float:
    """Integral of f, a function of an id array, against the table's measure.

    One ``math.fsum`` of mass * value per quadrature group, and one over the
    weighted groups.
    """
    ids, masses, groups = tab.quad(pts)
    terms = (masses * f(ids)).tolist()
    return math.fsum(w * math.fsum(terms[lo:hi]) for w, lo, hi in groups)


# ---------------------------------------------------------------------------
# eigen-measure residuals
# ---------------------------------------------------------------------------


def _strong_pair(tab: _StateTable, a: tr.Function) -> tuple[float, float]:
    handle, psi, beta, mu = tab.handle, tab.psi, tab.beta, tab.mu
    cval = psi.constant_value()
    if mu.integrates_grids:
        lhs = mu.integrate_grid(_fiber_grid(handle, a, handle.potential))
        if cval is not None:
            carrier = _single_component(handle.system)
            prod = _grid_product(_fn_grid(a, carrier), _pot_grid(handle.potential, carrier))
            return lhs, math.exp(beta * float(cval)) * mu.integrate_grid(prod)
    else:
        fibre_sums = tab.once(lambda xs: [tr.apply(handle, a, x) for x in xs])
        lhs = _integrate_state(tab, fibre_sums, pts=4)
    av = tab.once(lambda xs: [a.value(x) for x in xs])

    def rhs_fn(ids: np.ndarray) -> np.ndarray:
        pe, rho = tab.psi_exp_rho(ids)
        return av(ids) * pe * rho

    return lhs, _integrate_state(tab, rhs_fn, pts=4)


def conformal_residual(
    handle: tr.TransferHandle,
    psi: PotentialFunction,
    beta: float,
    mu: Measure,
    fns: Sequence[tr.Function],
) -> ResidualReport:
    """Max residual of the weighted eigen-measure identity over a family.

    Row k compares the measure of the weighted fiber sum of fns[k] with the
    measure of fns[k] * exp(beta * energy) * weight.  The rows share one
    point table, so exp(beta * energy) and the weight are evaluated once per
    quadrature point.
    """
    tab = _StateTable(handle, mu, psi, beta)
    rows = []
    for i, a in enumerate(fns):
        lhs, rhs = _strong_pair(tab, a)
        rows.append(ResidualRow(f"f{i}", lhs, rhs, abs(lhs - rhs)))
    return ResidualReport("conformal", tuple(rows))


def _check_weak_support(handle, a: tr.Function):
    stray = a.outside(dyn.regular_set(handle.system, handle.potential).delta_reg)
    if not stray.is_empty:
        raise SupportViolation(f"support leaves the regular region on {stray}")


def _bare_sum(handle, a: tr.Function, y) -> Fraction:
    return sum((a.value(x) for x in handle.system.map.fiber(y)), Q(0))


def _weak_pair(tab: _StateTable, a: tr.Function) -> tuple[float, float, Optional[float]]:
    handle, psi, beta, mu = tab.handle, tab.psi, tab.beta, tab.mu
    cval = psi.constant_value()
    bound = mu.row_bound(a, cval)
    if mu.integrates_grids:
        carrier = _single_component(handle.system)
        unit = IntervalPotential(((carrier, Q(0), Q(1)),))
        lhs = mu.integrate_grid(_fiber_grid(handle, a, unit))
        if cval is not None:
            rhs = math.exp(beta * float(cval)) * mu.integrate_grid(_fn_grid(a, carrier))
            return lhs, rhs, bound
    else:
        bare_sums = tab.once(lambda xs: [_bare_sum(handle, a, x) for x in xs])
        lhs = _integrate_state(tab, bare_sums, pts=4)
    av = tab.once(lambda xs: [a.value(x) for x in xs])
    rhs = _integrate_state(tab, lambda ids: av(ids) * tab.psi_exp_rho(ids)[0], pts=4)
    return lhs, rhs, bound


def weakly_conformal_residual(
    handle: tr.TransferHandle,
    psi: PotentialFunction,
    beta: float,
    mu: Measure,
    fns: Sequence[tr.Function],
) -> ResidualReport:
    """Residuals of the unweighted eigen-measure identity on regular supports.

    Every test function must be compactly supported inside the regular
    region; SupportViolation names the first offender.  For truncated
    cascades each row reports the geometric tail bound next to its residual.
    No command reports it yet; it is the check of the paper's weakly
    conformal measures, which see only the regular region.
    """
    tab = _StateTable(handle, mu, psi, beta)
    rows = []
    for i, a in enumerate(fns):
        _check_weak_support(handle, a)
        lhs, rhs, bound = _weak_pair(tab, a)
        rows.append(ResidualRow(f"f{i}", lhs, rhs, abs(lhs - rhs), bound))
    return ResidualReport("weakly_conformal", tuple(rows))


# ---------------------------------------------------------------------------
# the temperature solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KMSCandidate:
    """An inverse temperature with its candidate eigen-measure."""

    beta: float
    mu: Measure
    kind: str
    note: str = ""

    def __post_init__(self):
        if self.kind not in ("conformal", "weakly_conformal"):
            raise ValidationError(f"unknown candidate kind {self.kind!r}")
        mass = float(self.mu.total_mass())
        if abs(mass - 1.0) > 1e-9:
            raise ValidationError(f"candidate measure has mass {mass!r}, not 1")


def _overflow(beta: float) -> ValidationError:
    return ValidationError(
        f"exp(-beta*energy) overflows at beta={beta!r}; the fiber-sum matrix is not finite"
    )


class _RuelleUlam:
    """Bin operators of the bare fiber-sum operator with weight exp(-beta*energy).

    The exact pass walks branches, bins, preimage cells and energy pieces once
    and keeps one float segment (u, v, m, c) per piece cut of each cell, where
    the energy is m*x + c on [u, v], and the (row, col) position of each cell
    in the bin matrix k.  ``values(beta)`` integrates exp(-beta*energy) over
    every segment in one numpy pass, then sums segments into cells and cells
    into the distinct positions in the order they were walked: those are the
    nonzero entries of k.  A power step reads them straight from the
    positions, so no solve builds the bins x bins matrix; ``dense`` does, for
    tests.  Each ``perron`` call starts from the previous call's vector.
    """

    def __init__(self, handle, psi: PotentialFunction, bins: int):
        comp = _single_component(handle.system)
        segs, seg_cell, cell_at, cell_slope = [], [], [], []
        for i, j, absm, xcell in tr.ulam_cells(handle.system.ival, comp.lo, comp.hi, bins):
            for piv, m, c in psi.carrier.pieces:
                seg = xcell.intersection(piv)
                if seg is not None and not seg.is_point:
                    segs.append((float(seg.lo), float(seg.hi), float(m), float(c)))
                    seg_cell.append(len(cell_at))
            cell_at.append(i * bins + j)
            cell_slope.append(float(absm))
        self.segs = np.array(segs, dtype=float).reshape(-1, 4).T
        self.seg_cell = np.array(seg_cell, dtype=np.intp)
        self.pos, self.cell_pos = np.unique(np.array(cell_at, dtype=np.intp), return_inverse=True)
        self.rows, self.cols = np.divmod(self.pos, bins)
        self.cell_slope = np.array(cell_slope, dtype=float)
        self.fw = float((comp.hi - comp.lo) / bins)
        self.bins = bins
        self._warm = np.full(bins, 1.0 / bins)

    def values(self, beta: float) -> np.ndarray:
        """The entries of k at ``pos`` (flat indices row*bins + col)."""
        u, v, m, c = self.segs
        flat = (m == 0) | (beta == 0.0)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            integrals = np.where(
                flat,
                (v - u) * np.exp(-beta * c),
                (np.exp(-beta * (m * u + c)) - np.exp(-beta * (m * v + c))) / (beta * m),
            )
            cells = np.bincount(self.seg_cell, weights=integrals, minlength=len(self.cell_pos))
            vals = np.bincount(
                self.cell_pos, weights=self.cell_slope * cells / self.fw, minlength=len(self.pos)
            )
        if not np.isfinite(vals).all():
            raise _overflow(beta)
        return vals

    def step(self, beta: float) -> Callable[[np.ndarray], np.ndarray]:
        """One shifted power step u -> k^T u + u at this beta."""
        vals, rows, cols, bins = self.values(beta), self.rows, self.cols, self.bins

        def step(u: np.ndarray) -> np.ndarray:
            return np.bincount(cols, weights=vals * u[rows], minlength=bins) + u

        return step

    def dense(self, beta: float) -> np.ndarray:
        k = np.zeros(self.bins * self.bins)
        k[self.pos] = self.values(beta)
        return k.reshape(self.bins, self.bins)

    def perron(self, beta: float) -> tuple[float, np.ndarray]:
        r, self._warm = _perron(self.step(beta), self._warm)
        return r, self._warm


class _RuelleGraph:
    """Vertex matrices of the fiber-sum operator, one exp(-beta*energy) per edge.

    ``perron`` iterates on the dense shifted matrix from the uniform vector on
    every call.  The atom masses of a graph candidate are exact rationals of
    the vector's floats, so a sparse or warm-started step would change them
    in their last bits, and with them the pinned reports; a graph matrix is
    only vertices x vertices, so there is nothing to save.
    """

    def __init__(self, system: PartialSystem, psi: PotentialFunction):
        self.verts = system.gph.vertices
        idx = {v: i for i, v in enumerate(self.verts)}
        wmap = psi.carrier.weight_map()
        self.edges = [(idx[e.src], idx[e.rng], float(wmap[e.name])) for e in system.gph.edges]

    def dense(self, beta: float) -> np.ndarray:
        k = np.zeros((len(self.verts), len(self.verts)))
        try:
            for i, j, energy in self.edges:
                k[i, j] += math.exp(-beta * energy)
        except OverflowError:
            raise _overflow(beta) from None
        if not np.isfinite(k).all():
            raise _overflow(beta)
        return k

    def perron(self, beta: float) -> tuple[float, np.ndarray]:
        n = len(self.verts)
        kt = self.dense(beta).T + np.eye(n)  # shift keeps oscillating spectra convergent
        return _perron(kt.__matmul__, np.full(n, 1.0 / n))


def _perron(
    step: Callable[[np.ndarray], np.ndarray],
    u: np.ndarray,
    tol: float = 1e-13,
    iters: int = 20_000,
) -> tuple[float, np.ndarray]:
    """Perron root and left eigenvector by shifted power iteration from u.

    ``step(u)`` is k^T u + u; the shift keeps oscillating spectra convergent.
    Raises NoSolution when the iteration leaves the finite range or has not
    converged after ``iters`` steps, rather than returning an unconverged root.
    """
    r = 1.0
    for _ in range(iters):
        w = step(u)
        s = float(w.sum())
        if not math.isfinite(s):
            raise NoSolution(f"power iteration left the finite range (sum {s!r})", {})
        w /= s
        if float(np.abs(w - u).max()) <= tol and abs(s - r) <= tol * max(1.0, s):
            return s - 1.0, w
        u, r = w, s
    raise NoSolution(
        f"power iteration did not converge in {iters} steps", {"iters": iters, "r": r - 1.0}
    )


def solve_conformal(
    handle: tr.TransferHandle,
    psi: PotentialFunction,
    bins: int = 256,
    bracket: tuple[float, float] = (0.1, 3.0),
    root_tol: float = 1e-10,
    max_iter: int = 200,
) -> KMSCandidate:
    """Find the inverse temperature where the Perron root crosses one.

    The discretized operator sends a to the fiber sum of exp(-beta*energy)*a,
    so an eigen-measure of the identity is a left Perron vector at eigenvalue
    one.  The exact bin geometry (bin overlaps, preimage cells, slopes and
    energy pieces) is built once per solve; each bisection step only runs the
    float pass that integrates exp(-beta*energy) over it, then iterates the
    sparse power step from the previous step's Perron vector.  Graph steps
    iterate the dense matrix from the uniform vector every time, because
    the atom masses of a graph candidate are exact rationals of that
    vector's floats.  A constant energy scales one Perron root at
    beta = 0 instead.  Bisection runs on the
    bracket; a flat root pegged at one returns a degenerate candidate, any
    other one-sided bracket raises NoSolution with the endpoint data, and a
    bracket where exp(-beta*energy) overflows raises ValidationError.
    """
    b_lo, b_hi = float(bracket[0]), float(bracket[1])
    if not b_lo < b_hi:  # also refuses NaN ends
        raise ValidationError("bracket must be increasing")
    if bins < 1:
        raise ValidationError(f"the bin grid needs at least one bin, got bins={bins}")
    if max_iter < 1:
        raise ValidationError("max_iter must be at least 1")
    system = handle.system
    if system.backend == "graph":
        ops, cval = _RuelleGraph(system, psi), None
    else:
        ops, cval = _RuelleUlam(handle, psi, bins), psi.constant_value()
    if cval is None:
        spectral = ops.perron
    else:
        r0, v0 = ops.perron(0.0)
        c = float(cval)

        def spectral(beta: float):
            try:
                r = r0 * math.exp(-beta * c)
            except OverflowError:
                raise _overflow(beta) from None
            if not math.isfinite(r):
                raise _overflow(beta)
            return r, v0

    r_lo, _ = spectral(b_lo)
    r_hi, _ = spectral(b_hi)
    flat = abs(r_lo - r_hi) <= 1e-10 * max(1.0, abs(r_lo))
    data = {"beta_lo": b_lo, "beta_hi": b_hi, "r_lo": r_lo, "r_hi": r_hi, "flat": flat}
    if flat:
        if abs(r_lo - 1.0) <= 1e-8:
            beta = 0.5 * (b_lo + b_hi)
            _, vec = spectral(beta)
            mu = _vector_measure(handle, vec, bins, psi, beta)
            return KMSCandidate(
                beta, mu, "conformal",
                note="degenerate: Perron root is one across the whole bracket",
            )
        raise NoSolution(
            f"Perron root is flat at {r_lo:.6g} across [{b_lo}, {b_hi}]", data
        )
    if (r_lo - 1.0) * (r_hi - 1.0) > 0:
        raise NoSolution(
            f"Perron root stays on one side of one: r({b_lo})={r_lo:.6g}, r({b_hi})={r_hi:.6g}",
            data,
        )
    lo_, hi_ = b_lo, b_hi
    f_lo = r_lo - 1.0
    for _ in range(max_iter):
        beta = 0.5 * (lo_ + hi_)
        r_mid, vec = spectral(beta)
        f_mid = r_mid - 1.0
        if abs(f_mid) <= root_tol or (hi_ - lo_) <= 5e-15 * max(1.0, abs(beta)):
            break
        if f_lo * f_mid <= 0:
            hi_ = beta
        else:
            lo_, f_lo = beta, f_mid
    mu = _vector_measure(handle, vec, bins, psi, beta)
    return KMSCandidate(beta, mu, "conformal")


def _vector_measure(handle, vec: np.ndarray, bins: int, psi=None, beta: float = 0.0) -> Measure:
    """Exactly renormalized measure out of a nonnegative eigenvector.

    Graph vectors live on vertices; the atoms are pushed onto the length-one
    cylinders Z(e), whose masses the eigen-measure identity itself dictates:
    mass(Z(e)) is proportional to exp(-beta * energy(e)) times the weight of
    the source vertex.  That keeps every atom inside the shift domain.
    """
    system = handle.system
    if system.backend == "graph":
        gph = system.gph
        idx = {v: i for i, v in enumerate(gph.vertices)}
        wmap = psi.carrier.weight_map()
        raw = []
        for e in sorted(gph.edges, key=lambda e: e.name):
            m = Q(abs(float(vec[idx[e.src]]))) * Q(
                math.exp(-beta * float(wmap[e.name]))
            )
            raw.append((gph.path_point((e.name,)), m))
        total = sum((m for _, m in raw), Q(0))
        if total == 0:
            raise NoSolution("eigenvector collapsed to zero", {})
        return tr.AtomicMeasure(tuple((p, m / total) for p, m in raw))
    weights = [Q(abs(float(x))) for x in vec]
    total = sum(weights, Q(0))
    if total == 0:
        raise NoSolution("eigenvector collapsed to zero", {})
    weights = [x / total for x in weights]
    comp = _single_component(system)
    w = (comp.hi - comp.lo) / bins
    return tr.UlamMeasure(comp.lo, comp.hi, tuple(m / w for m in weights))


# ---------------------------------------------------------------------------
# state-level checks through the diagonal expectation
# ---------------------------------------------------------------------------


def _lk(tab: _StateTable, g: IdFunction, k: int) -> IdFunction:
    """The k-fold weighted fiber sum of g: per fibre, 0.0 plus w * g(x) in fibre order."""
    if k == 0:
        return g

    def val(ids: np.ndarray) -> np.ndarray:
        rows, xs, ws = tab.fibres(k, ids)
        return np.bincount(rows, weights=ws * g(xs), minlength=len(ids))

    return val


def _alphak(tab: _StateTable, g: IdFunction, l: int) -> IdFunction:
    """g after l steps of the map, 0.0 where the orbit leaves the domain first."""
    if l == 0:
        return g

    def val(ids: np.ndarray) -> np.ndarray:
        ends = tab.orbit_ends(l, ids)
        live = ends >= 0
        out = np.zeros(len(ids))
        out[live] = g(ends[live])
        return out

    return val


def _as_parts(tab: _StateTable, m) -> tuple[IdFunction, int, int, IdFunction]:
    if not isinstance(m, TwistedMonomial):
        return partial(tab.values, m.left), m.up, m.down, partial(tab.values, m.right)
    mon = m.mon
    left = partial(tab.twisted, mon.left, m.psi, mon.up, m.lam, +1)
    right = partial(tab.twisted, mon.right, m.psi, mon.down, m.lam, -1)
    return left, mon.up, mon.down, right


def _g_diag_product(tab: _StateTable, p1, p2) -> Optional[IdFunction]:
    """Diagonal-expectation values of a monomial product, or None off balance.

    At each point, w * a * mid * d in that order, where w is the cocycle;
    +0.0 where the cocycle is missing or zero, and nothing else is read there.
    """
    a, n, m, b = p1
    c, k, l, d = p2

    def bc(ids: np.ndarray) -> np.ndarray:
        return b(ids) * c(ids)

    up, down, steps, pull, _ = rep.product_shape(n, m, k, l)
    mid = _alphak(tab, _lk(tab, bc, steps), pull)
    if up != down:
        return None

    def g(ids: np.ndarray) -> np.ndarray:
        w = tab.cocycles(up, ids)
        live = (w != 0) & ~np.isnan(w)
        out = np.zeros(len(ids))
        x = ids[live]
        out[live] = w[live] * a(x) * mid(x) * d(x)
        return out

    return g


def _phi_pair(tab: _StateTable, m1, m2, pts: int) -> float:
    g = _g_diag_product(tab, _as_parts(tab, m1), _as_parts(tab, m2))
    if g is None:
        return 0.0
    return _integrate_state(tab, g, pts)


def _kms_pair(tab: _StateTable, m1, m2, pts: int) -> tuple[float, float]:
    twisted = sigma_action(m2, complex(0.0, tab.beta), tab.psi)
    lhs = _phi_pair(tab, m1, twisted, pts)
    rhs = _phi_pair(tab, m2, m1, pts)
    return lhs, rhs


def _battery_functions(handle, rng: random.Random, size: int) -> list[tr.TestFunction]:
    # wide supports on purpose: narrow bumps make almost every monomial
    # product vanish and the battery stops checking anything
    comp = _single_component(handle.system)
    lo, hi = comp.lo, comp.hi
    width = hi - lo
    out = [
        tr.TestFunction.const_on(comp, 1),
        tr.TestFunction.hat(comp.midpoint(), width / 2, 1),
        tr.TestFunction.affine_on(comp, 1 / width, -lo / width),
        tr.TestFunction.hat(lo + width / 4, width / 4, 1),
        tr.TestFunction.hat(lo + 3 * width / 4, width / 4, 1),
    ]
    while len(out) < size:
        r = width * Q(1, rng.choice((3, 4, 6)))
        c = lo + width * Q(rng.randrange(2, 15), 16)
        c = min(max(c, lo + r), hi - r)
        out.append(tr.TestFunction.hat(c, r, 1))
    return out


def kms_battery(
    handle: tr.TransferHandle,
    mu: Measure,
    beta: float,
    psi: PotentialFunction,
    count: int = 20,
    seed: int = 7,
    pts: int = 1,
) -> ResidualReport:
    """Exchange-identity residuals over a deterministic monomial battery.

    Roughly a third of the pairs are unbalanced so the report also witnesses
    that states kill off-diagonal terms; their rows carry both sides, which
    should individually vanish under a positive energy.
    """
    if count < 1:
        raise ValidationError(f"the battery needs at least one pair, got count={count}")
    tab = _StateTable(handle, mu, psi, beta)
    rng = random.Random(seed)
    fns = _battery_functions(handle, rng, max(6, count // 2))
    maybe = fns + [None, None]
    powers_diag = ((1, 1), (2, 2), (0, 0), (1, 1))
    powers_off = ((1, 0), (0, 1), (2, 1))
    rows = []
    for i in range(count):
        mode = i % 4
        if mode == 2:
            # unbalanced product: the state must kill both sides outright
            up1, dn1 = powers_off[(i // 4) % 3]
            up2, dn2 = up1, dn1
        elif mode == 3:
            # transposed powers: balanced product with nontrivial sides
            up1, dn1 = powers_off[(i // 4) % 3]
            up2, dn2 = dn1, up1
        else:
            up1, dn1 = powers_diag[i % 4]
            up2, dn2 = powers_diag[(i + 1) % 4]
        m1 = rep.Monomial(rng.choice(fns), up1, dn1, rng.choice(maybe))
        m2 = rep.Monomial(rng.choice(fns), up2, dn2, rng.choice(maybe))
        lhs, rhs = _kms_pair(tab, m1, m2, pts)
        tag = "off" if (up1 + up2) != (dn1 + dn2) else "diag"
        rows.append(ResidualRow(f"pair{i}:{tag}", lhs, rhs, abs(lhs - rhs)))
    notes = ()
    if beta == 0 and psi.constant_value() == 0:
        notes = (
            "trivial twist at beta zero: the identity holds for any trace and certifies nothing",
        )
    return ResidualReport("kms", tuple(rows), notes)


def core_kms_check(
    handle: tr.TransferHandle,
    mu: Measure,
    beta: float,
    psi: PotentialFunction,
    a: tr.TestFunction,
    b: tr.TestFunction,
    n: int,
    pts: int = 1,
) -> float:
    """Residual of the balanced-monomial state formula at one level.

    Left side: the diagonal expectation of a T^n T*^n b integrated against
    mu.  Right side: mu of the n-fold fiber sum with the energy-damped
    weight exp(-beta * S_n) folded in.  No command reports it yet; it is
    the check of the paper's KMS condition on the core, level by level.
    """
    tab = _StateTable(handle, mu, psi, beta)

    def lhs_fn(ids: np.ndarray) -> np.ndarray:
        w = tab.cocycles(n, ids)
        live = ~np.isnan(w)
        out = np.zeros(len(ids))
        x = ids[live]
        out[live] = w[live] * tab.values(a, x) * tab.values(b, x)
        return out

    def rhs_fn(ids: np.ndarray) -> np.ndarray:
        rows, xs, ws = tab.fibres(n, ids)
        sums = tab.energy_sums(psi, n, xs)
        bad = xs[np.isnan(sums)]
        if bad.size:
            psi.birkhoff(tab.points[bad[0]], n)  # raises what the sum raised there
        damp = np.array([math.exp(-beta * s) for s in sums.tolist()])
        terms = ws * damp * tab.values(a, xs) * tab.values(b, xs)
        return np.bincount(rows, weights=terms, minlength=len(ids))

    lhs = _integrate_state(tab, lhs_fn, pts)
    rhs = _integrate_state(tab, rhs_fn, pts)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# designed test functions
# ---------------------------------------------------------------------------


def hat_battery(region: IntervalSet, count: int) -> list[tr.TestFunction]:
    """Hats compactly supported inside a region, spread over its components."""
    out: list[tr.TestFunction] = []
    comps = [iv for iv in region.intervals if not iv.is_point]
    if not comps:
        return out
    i = 0
    while len(out) < count:
        iv = comps[i % len(comps)]
        k = i // len(comps) + 2
        width = iv.hi - iv.lo
        c = iv.lo + width * Q(2 * (i % (k + 1)) + 1, 2 * (k + 1))
        r = width / (2 * (k + 1))
        c, r = frac(c), frac(r)
        # keep the closed support strictly inside the open component
        if iv.lo < c - r and c + r < iv.hi:
            out.append(tr.TestFunction.hat(c, r, 1))
        elif iv.lo_closed and iv.hi_closed:
            out.append(tr.TestFunction.hat(iv.midpoint(), width / 4, 1))
        i += 1
        if i > 20 * count:
            break
    return out
