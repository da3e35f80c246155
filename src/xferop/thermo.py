"""Time-evolution twists, eigen-measure residuals, and the temperature solver.

The one-parameter family fixes functions and multiplies the shift generator
by an exponential phase built from an energy function; on spanning monomials
it acts through explicit multipliers that stay evaluable at complex
parameters.  The dual side asks when a probability measure reproduces itself
under weighted fiber sums, tested on compactly supported functions with the
weight included.  A bisection solver recovers the inverse temperature from
the Perron root of the discretized fiber-sum operator, and the state-level
checks evaluate both sides of the exchange identity through the diagonal
expectation.

The discretized operator is built in two passes.  An exact pass, once per
solve, cuts the cell batch of ``transfer.ulam_geometry`` (the bin geometry
that ``transfer.ulam_matrix`` reads too) by the energy pieces on integer
arrays and keeps the float segments they cut, with the (row, col) bin
position of each cell; a float pass, once per inverse temperature,
integrates exp(-beta*energy) over all segments in one numpy expression and
sums them into the nonzero entries of the bin matrix at those positions.
A power step multiplies by the transpose straight from the positions (one
``np.bincount``), so no solve builds the bins x bins matrix, and each
bisection step starts from the previous step's Perron vector and stops
once the Collatz-Wielandt bounds prove the sign of r - 1.  The graph
operator is one entry per vertex pair and stays dense and cold (see
``_RuelleGraph``).  Each operator turns its own Perron vector into the
candidate measure (``eigenmeasure``): a bin density on the interval, atoms
on the length-one cylinders of a graph, both renormalised exactly.

The state-level checks and the eigen-measure residuals integrate against a
measure through one state table per call, dropped on return.  The table
gives every point it meets an int id and keeps each exact per-point
quantity (orbit ends, cocycles, fibres, energy sums, test-function values,
twisted coefficients, exp(beta*energy) and the weight) as a column indexed
by id, filled once per point with the same floats as a direct evaluation.
On the interval backend each fill is one batch of exact integer arrays:
test functions, energies and weights through ``floats``, orbit ends,
cocycles and energy sums through the map's forward kernels, fibres
through its backward step.  An integrand is a function from an id array
to a float array: a gather, an ``np.bincount`` over fibre rows, an
elementwise product, each in the float order of the per-point loop it
replaces, so every number is bit for bit the same.  Every measure hands
the table its quadrature as one batch of points and one float mass array:
the atoms of an atomic measure, the midpoint rule of a bin-density
measure.  An integral is one ``math.fsum`` of mass * value.

The eigen-measure residual rows follow one rule.  A measure that
integrates grid functions exactly (``integrates_grids``: bin densities)
takes the left side as the exact integral of the fiber-sum grid, and the
right side too when the energy is constant; otherwise both sides come from
the point table.  One builder makes the fiber-sum grid of weight * a from
the handle's weight.  One builder makes the grid of a test function or a
weight from its affine pieces, and ``GridFunction.cell`` reads a grid's
cell at a point.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import dynamics as dyn
from . import rep
from . import transfer as tr
from .dynamics import PartialSystem, PiecewiseAffine, Potential
from .errors import NoSolution, OutOfDomain, UnsupportedPotential, ValidationError
from .intervals import IntervalSet, Q, RationalInterval, RationalPoints, float_of, frac
from .verdicts import Verdict

__all__ = [
    "PotentialFunction",
    "TwistedMonomial",
    "sigma_action",
    "EnergyWitness",
    "EnergyScan",
    "check_positive_energy",
    "GridFunction",
    "ResidualRow",
    "ResidualReport",
    "conformal_residual",
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
    """A continuous real energy on the domain of the map, and its sums along orbits.

    Wraps a signed carrier: a :class:`PiecewiseAffine` (affine pieces) or a
    :class:`GraphPotential` (one value per edge).  The carrier checks that
    it can be an energy on the map (``check_energy``) and answers values,
    floats and constancy itself.
    """

    system: PartialSystem
    carrier: Potential

    def __post_init__(self):
        if self.carrier.backend != self.system.backend:
            raise ValidationError("energy backend does not match the system")
        self.carrier.check_energy(self.system.map)

    @staticmethod
    def const(system: PartialSystem, value) -> "PotentialFunction":
        return PotentialFunction(system, system.map.constant_energy(value))

    def birkhoff(self, x, n: int) -> Fraction:
        """Sum of the energy along the first n forward steps."""
        if n < 0:
            raise ValidationError("n must be nonnegative")
        if n == 0:
            return Q(0)
        pts = dyn.orbit(self.system, x, n - 1)
        return sum((self.carrier.value(z) for z in pts), Q(0))

    def birkhoff_floats(self, points, n: int) -> np.ndarray:
        """float(birkhoff_or_none(x, n)) at each point of a batch, NaN where it
        is None: the map's ``birkhoff_sums``."""
        return self.system.map.birkhoff_sums(self.carrier, points, n)

    def birkhoff_or_none(self, x, n: int) -> Optional[Fraction]:
        """``birkhoff(x, n)``, or None where the orbit leaves the domain or the
        energy is undefined along it: the n-step sum lives on the n-step domain."""
        try:
            return self.birkhoff(x, n)
        except (OutOfDomain, ValidationError):
            return None


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
        s = self.psi.birkhoff_or_none(x, self.mon.up)
        if s is None:
            return 0j  # the power's coefficient lives on the n-step domain
        return cmath.exp(1j * self.lam * float(s)) * base

    def right_value(self, x) -> complex:
        """The right coefficient at x, evaluated directly (an oracle, as ``left_value``)."""
        base = complex(self.mon.right.value(x)) if self.mon.right is not None else 1.0 + 0j
        s = self.psi.birkhoff_or_none(x, self.mon.down)
        if s is None:
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
    system.check_scan_depth(depth)
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
    """Piecewise quadratic on the open cells between grid nodes.

    Open cells between consecutive nodes carry (c0, c1, c2); at a node and
    outside the node range the function is zero.  Only bin densities
    integrate a grid, and they give the nodes no mass.  Each cell takes its
    coefficients from its interior, so overrides, fiber collisions at shared
    branch endpoints, and jump points never leak into a cell.
    """

    nodes: tuple[Fraction, ...]
    cells: tuple[tuple[Fraction, Fraction, Fraction], ...]

    def __post_init__(self):
        if len(self.nodes) < 2 or len(self.cells) != len(self.nodes) - 1:
            raise ValidationError("grid shape mismatch")
        if any(a >= b for a, b in zip(self.nodes, self.nodes[1:])):
            raise ValidationError("nodes must increase strictly")

    def cell(self, x) -> tuple[Fraction, Fraction, Fraction]:
        """The coefficients of the open cell holding x; zeros at a node or outside."""
        for (u, v), c in zip(zip(self.nodes, self.nodes[1:]), self.cells):
            if u < x < v:
                return c
        return (Q(0),) * 3


def _grid(f: PiecewiseAffine, carrier: RationalInterval) -> GridFunction:
    """A function's affine pieces as a grid function on the carrier.

    The nodes are the carrier ends and the breakpoints inside it; each cell
    takes the piece at its midpoint.
    """
    inside = (p for p in f.breakpoints() if carrier.lo <= p <= carrier.hi)
    nodes = tuple(sorted({carrier.lo, carrier.hi, *inside}))
    cells = []
    for u, v in zip(nodes, nodes[1:]):
        hit = f.piece_at((u + v) / 2)
        cells.append((hit[2], hit[1], Q(0)) if hit else (Q(0),) * 3)
    return GridFunction(nodes, tuple(cells))


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
    return GridFunction(nodes, tuple(cells))


def _single_component(system: PartialSystem) -> RationalInterval:
    comps = system.ival.space.intervals
    if len(comps) != 1:
        raise UnsupportedPotential("closed-form grids need a single-component space")
    return comps[0]


def _fiber_grid(handle: tr.TransferHandle, a: PiecewiseAffine) -> GridFunction:
    """The fiber sum of weight * a, as an exact grid function of the target."""
    sys_, weight = handle.system.ival, handle.potential
    carrier = _single_component(handle.system)
    xcuts = weight.breakpoints() | a.breakpoints()
    for br in sys_.branches:
        xcuts.update((br.domain.lo, br.domain.hi))
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
            fa = a.piece_at(xm)
            if fa is None:
                continue
            fr = weight.piece_at(xm)
            if fr is None:
                continue
            _, ma, ca = fa
            _, mr, cr = fr
            u1 = 1 / br.slope
            u0 = -br.intercept / br.slope
            q2 = ma * mr
            q1 = ma * cr + ca * mr
            q0 = ca * cr
            c2 += q2 * u1 * u1
            c1 += 2 * q2 * u1 * u0 + q1 * u1
            c0 += q2 * u0 * u0 + q1 * u0 + q0
        cells.append((c0, c1, c2))
    return GridFunction(nodes, tuple(cells))


# ---------------------------------------------------------------------------
# residual reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualRow:
    label: str
    lhs: float
    rhs: float
    residual: float


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


Measure = Union[tr.AtomicMeasure, tr.UlamMeasure]


# ---------------------------------------------------------------------------
# per-call state tables
# ---------------------------------------------------------------------------

IdFunction = Callable[[np.ndarray], np.ndarray]
_NO_FIBRES = (np.empty(0, np.intp), np.empty(0))  # the flat fibres of a depth never filled


class _StateTable:
    """Exact per-point quantities of the state integrals of one call, as columns.

    ``kms_battery``, ``core_kms_check`` and ``conformal_residual`` each
    build one and drop it when they return.  Every point the call meets is
    interned once and gets an int id, by the map's ``point_ids()`` table:
    an interval point by its reduced (numerator, denominator) pair, so no
    ``Q`` is built or hashed for it, a path point by itself.  Each quantity
    is a column indexed by id: orbit ends (the end's id, -1 where the orbit
    leaves the domain first), cocycles (NaN there), fibres (one run of
    (point id, weight) per id in the flat arrays of its depth, fibre
    order), energy sums (NaN where ``birkhoff_or_none`` is None),
    test-function values, the twisted coefficients, exp(beta*energy) and
    the weight.  A column is filled once per id, only for the ids a row
    asks for, by one batch call per fill; the quadrature is one id array
    and one float mass array, from the measure's ``quadrature``.

    On the interval backend a batch is a ``RationalPoints``: numerator and
    denominator arrays, int64 while their entries are at most 2^53 and
    Python ints past it.  Values, energies and weights are ``floats``.  The
    forward kernels of ``IntervalSystem`` (``orbit_ends``, ``cocycles``,
    ``birkhoff_sums``) step a batch through the branches and carry rho_n
    and S_n exactly, rounding each once.  The backward kernel
    (``fibre_step``) builds depth n from the depth n - 1 runs, one inverse
    step per branch, each run sorted by exact value and deduplicated as
    ``preimages`` returns it; the weights are the cocycle column at the new
    points, the same exact rho_n(x) as the backward product, so the same
    float.  A fill cuts the points whose cocycle is exactly zero, as the
    backward walk does.  The graph backend answers the
    same method names with per-point loops.  What stays per point: ``once``
    (the residual rows' own fibre sums and values; fn gets the batch, which
    iterates as ``Q``), exp(beta*energy) and the twisted coefficients
    (``math.exp`` and ``cmath.exp`` of each float, as a direct evaluation
    takes them; an overflow raises the solver's overflow error).

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
        self.points = self.system.map.point_ids()
        self._quad: dict = {}
        self._cols: dict = {}
        self._flat: dict = {}  # depth -> (point ids, weights) of the fibre runs
        self._held: dict = {}  # objects whose id keys a column, kept alive so ids stay unique

    def quad(self, pts: int) -> tuple[np.ndarray, np.ndarray]:
        """The quadrature of mu: ids and float masses."""
        q = self._quad.get(pts)
        if q is None:
            points, masses = self.mu.quadrature(pts)
            ids, masses = self.points.intern(points), np.asarray(masses, dtype=float)
            ids.flags.writeable = masses.flags.writeable = False
            q = self._quad[pts] = (ids, masses)
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
            vals[todo] = compute(todo)
            done[todo] = True
        return vals[ids]

    def once(self, fn: Callable[[Sequence], Sequence[float]]) -> IdFunction:
        """An integrand that a call reads once: the floats fn(points), kept nowhere.

        A residual row has its own test function, so its values and fiber
        sums go through this; the energy and weight factors are columns.
        fn gets the batch, which iterates as the points themselves.
        """
        batch = self.points.batch
        return lambda ids: np.asarray(fn(batch(ids)), dtype=float)

    def psi_exp_rho(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """exp(beta*energy) and the weight at the ids, kept as one column of pairs.

        Both come from ``floats``; the exponential is ``math.exp`` of each
        float, as a direct evaluation takes it (``np.exp`` differs from it
        in the last bit on some arguments).
        """
        psi, beta, pot = self.psi, self.beta, self.pot

        def fill(todo):
            xs = self.points.batch(todo)
            try:
                exps = [math.exp(beta * v) for v in psi.carrier.floats(xs).tolist()]
            except OverflowError:
                raise _overflow(beta, _STATES) from None
            return np.column_stack((exps, pot.floats(xs, or_zero=True)))

        pairs = self._read("psi_exp_rho", ids, fill, width=(2,))
        return pairs[:, 0], pairs[:, 1]

    def values(self, f: Optional[tr.Function], ids: np.ndarray) -> np.ndarray:
        """float(f(x)) at the ids, from ``f.floats``; 1.0 everywhere for an absent function."""
        if f is None:
            return np.ones(len(ids))
        self._held[id(f)] = f
        return self._read(("value", id(f)), ids, lambda todo: f.floats(self.points.batch(todo)))

    def orbit_ends(self, n: int, ids: np.ndarray) -> np.ndarray:
        """The id of phi^n at the ids; -1 where the orbit leaves the domain first."""

        def fill(todo):
            ends, alive = self.system.map.orbit_ends(self.points.batch(todo), n)
            out = np.full(len(todo), -1, dtype=np.intp)
            out[alive] = self.points.intern(ends)
            return out

        return self._read(("orbit", n), ids, fill, dtype=np.intp)

    def _cocycle_pairs(self, n: int, ids: np.ndarray) -> np.ndarray:
        """(float(rho_n), 1.0 where rho_n is exactly zero) at the ids; the
        first is NaN where the orbit leaves the domain first."""

        def fill(todo):
            self.system.check_depth(n)
            w, zero = self.system.map.cocycles(self.pot, self.points.batch(todo), n)
            return np.column_stack((w, zero))

        return self._read(("cocycle", n), ids, fill, width=(2,))

    def cocycles(self, n: int, ids: np.ndarray) -> np.ndarray:
        """float(rho_n) at the ids; NaN where the orbit leaves the domain first."""
        return self._cocycle_pairs(n, ids)[:, 0]

    def fibres(self, n: int, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The n-step fibres of the ids, flat: (row in ids, point id, float weight).

        Rows come in the order of ids, each fibre in fibre order, and only
        preimages of nonzero weight are kept.
        """
        if n == 0:
            return np.arange(len(ids)), ids, np.ones(len(ids))

        def fill(todo):
            self.system.check_depth(n)
            rows, parents, _ = self.fibres(n - 1, todo)
            rows, pre = self.system.map.fibre_step(self.points.batch(parents), rows)
            xs = self.points.intern(pre)
            pairs = self._cocycle_pairs(n, xs)
            live = pairs[:, 1] == 0  # not exactly zero; a float weight can round to zero
            rows, xs = rows[live], xs[live]
            old_x, old_w = self._flat.get(n, _NO_FIBRES)
            self._flat[n] = (np.concatenate((old_x, xs)), np.concatenate((old_w, pairs[live, 0])))
            count = np.bincount(rows, minlength=len(todo))
            return np.column_stack((len(old_x) + np.cumsum(count) - count, count))

        span = self._read(("fibre", n), ids, fill, dtype=np.intp, width=(2,))
        start, count = span[:, 0], span[:, 1]
        rows = np.repeat(np.arange(len(ids)), count)
        first = np.cumsum(count) - count  # where each row's run starts in the output
        pos = np.arange(len(rows)) + np.repeat(start - first, count)
        flat_x, flat_w = self._flat.get(n, _NO_FIBRES)  # a read of no ids runs no fill
        return rows, flat_x[pos], flat_w[pos]

    def energy_sums(self, psi: PotentialFunction, n: int, ids: np.ndarray) -> np.ndarray:
        """float(psi.birkhoff_or_none(x, n)) at the ids; NaN where it is None."""
        self._held[id(psi)] = psi

        def fill(todo):
            return psi.birkhoff_floats(self.points.batch(todo), n)

        return self._read(("energy", id(psi), n), ids, fill)

    def twisted(self, f, psi: PotentialFunction, n: int, lam: complex, side: int,
                ids: np.ndarray) -> np.ndarray:
        """Real part of a twisted coefficient at the ids, 0.0 off the n-step domain.

        Side +1 is ``TwistedMonomial.left_value`` (exp(i lam S_n) * f), side
        -1 is ``right_value`` (f * exp(-i lam S_n)), with the same per-point
        ``cmath.exp`` and the same operand order.
        """

        def fill(todo):
            out = []
            vals = self.values(f, todo).tolist()
            try:
                for b, s in zip(vals, self.energy_sums(psi, n, todo).tolist()):
                    if s != s:
                        out.append(0.0)  # the power's coefficient lives on the n-step domain
                    elif side > 0:
                        out.append((cmath.exp(1j * lam * s) * complex(b)).real)
                    else:
                        out.append((complex(b) * cmath.exp(-1j * lam * s)).real)
            except OverflowError:
                raise _overflow(self.beta, _STATES) from None
            return out

        self._held[id(f)] = f
        return self._read(("twist", side, id(f), id(psi), n, lam), ids, fill)


def _integrate_state(tab: _StateTable, f: IdFunction, pts: int) -> float:
    """Integral of f, a function of an id array, against the table's measure:
    one ``math.fsum`` of mass * value over the quadrature rows."""
    ids, masses = tab.quad(pts)
    return math.fsum((masses * f(ids)).tolist())


# ---------------------------------------------------------------------------
# eigen-measure residuals
# ---------------------------------------------------------------------------


def _strong_pair(tab: _StateTable, a: tr.Function) -> tuple[float, float]:
    handle, psi, beta, mu = tab.handle, tab.psi, tab.beta, tab.mu
    cval = psi.carrier.constant_value()
    if mu.integrates_grids:
        lhs = mu.integrate_grid(_fiber_grid(handle, a))
        if cval is not None:
            carrier = _single_component(handle.system)
            prod = _grid_product(_grid(a, carrier), _grid(handle.potential, carrier))
            return lhs, math.exp(beta * float_of(cval)) * mu.integrate_grid(prod)
    else:
        fibre_sums = tab.once(lambda xs: [float(tr.apply(handle, a, x)) for x in xs])
        lhs = _integrate_state(tab, fibre_sums, pts=4)
    av = tab.once(a.floats)

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


# ---------------------------------------------------------------------------
# the temperature solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KMSCandidate:
    """An inverse temperature with its candidate eigen-measure.

    The measure must be a probability measure: no negative mass, and total
    mass 1 to within 1e-9; a mass past the float range is refused as not 1.

    A solved candidate also carries what the solve proved and what it cost.
    ``beta_lo < beta_hi`` is the narrowest pair of bisection points whose
    signs of rho(k(beta)) - 1 the Collatz-Wielandt bounds proved opposite,
    so the root of the discrete problem lies between them (rho(k(beta)) is
    continuous in beta).  The bounds are float quotients, so the enclosure
    holds up to their rounding.  Both are None where a side was never
    proved, and on a candidate read from a file.  ``perron_calls`` and
    ``power_steps`` count the solve's Perron iterations and their steps;
    None on a candidate read from a file.
    """

    beta: float
    mu: Measure
    note: str = ""
    beta_lo: Optional[float] = None
    beta_hi: Optional[float] = None
    perron_calls: Optional[int] = None
    power_steps: Optional[int] = None

    def __post_init__(self):
        if not self.mu.is_positive():
            raise ValidationError("candidate measure takes a negative mass")
        try:
            mass = float(self.mu.total_mass())
        except OverflowError:
            raise ValidationError("candidate measure has a mass past the float range, not 1") from None
        if abs(mass - 1.0) > 1e-9:
            raise ValidationError(f"candidate measure has mass {mass!r}, not 1")


def _overflow(beta: float, what: str = "the fiber-sum matrix is not finite") -> ValidationError:
    return ValidationError(f"exp(-beta*energy) overflows at beta={beta!r}; {what}")


_STATES = "the state integrals are not finite"


class _RuelleUlam:
    """Bin operators of the bare fiber-sum operator with weight exp(-beta*energy).

    The exact pass takes the cell batch of ``transfer.ulam_geometry`` (index
    arithmetic on the grid; order branch, source bin j, target bin i;
    half-open bins, the last one closed; exact cell ends) and cuts it by the
    energy pieces as one cells x pieces mask: the cut of a cell by a piece is
    [max(x_lo, a), min(x_hi, b)], kept where it is more than a point.  It
    keeps one float segment (u, v, m, c) per kept cut, in (cell, piece)
    order, where the energy is m*x + c on [u, v], and the (row, col)
    position (i, j) of each cell in the bin matrix k.  ``values(beta)``
    integrates exp(-beta*energy) over every segment in one numpy pass, then
    sums segments into cells and cells into the distinct positions in the
    walk order, which pins every float sum: those are the nonzero entries of
    k.  A power step reads them straight from the positions, so no solve
    builds the bins x bins matrix; ``dense`` does, for tests.  Each
    ``perron`` call starts from the previous call's vector and passes
    ``decide`` to ``_perron``: a call asked only for the sign of r - 1 may
    stop before its vector converges, and the next call starts from that
    vector.  ``eigenmeasure`` reads a Perron vector as a density on the bins.
    """

    def __init__(self, handle, psi: PotentialFunction, bins: int):
        comp = _single_component(handle.system)
        cells = tr.ulam_geometry(handle.system.ival, comp.lo, comp.hi, bins)
        pieces = psi.carrier.pieces
        shape = (len(cells.i), len(pieces))  # cells x pieces, raveled in (cell, piece) order
        u, v, keep = np.empty(shape), np.empty(shape), np.empty(shape, bool)
        for k, (piv, _, _) in enumerate(pieces):
            a = cells.x_lo.maximum(RationalPoints.of([piv.lo]))
            b = cells.x_hi.minimum(RationalPoints.of([piv.hi]))
            u[:, k], v[:, k], keep[:, k] = a.floats(), b.floats(), a.less(b)
        m = np.array([float_of(m) for _, m, _ in pieces], dtype=float)
        c = np.array([float_of(c) for _, _, c in pieces], dtype=float)
        self.seg_cell, piece = np.nonzero(keep)
        self.segs = np.array([u[keep], v[keep], m[piece], c[piece]])
        self.pos, self.cell_pos = np.unique(cells.i * bins + cells.j, return_inverse=True)
        self.rows, self.cols = np.divmod(self.pos, bins)
        self.cell_slope = np.array([float_of(s) for s in cells.slopes])[cells.branch]
        self.fw = float_of((comp.hi - comp.lo) / bins)
        self.comp = comp
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

    def perron(self, beta: float, decide: bool = False) -> _Root:
        root = _perron(self.step(beta), self._warm, decide=decide)
        self._warm = root.vec
        return root

    def eigenmeasure(self, vec: np.ndarray, beta: float) -> tr.UlamMeasure:
        """The bin density of a Perron vector, renormalised exactly.

        Each |x_k| is a dyadic rational a_k / 2^e_k, so over the largest
        2^e the entries are integers A_k with sum T, and the density of bin
        k is A_k / (T w): with w = p / (q bins), A_k q bins / (T p), reduced
        once per bin: exactly |x_k| / (w sum_i |x_i|).
        """
        ratios = [abs(x).as_integer_ratio() for x in vec.tolist()]
        scale = max(d for _, d in ratios)
        ints = [n * (scale // d) for n, d in ratios]
        total = sum(ints)
        if total == 0:
            raise NoSolution("eigenvector collapsed to zero", {})
        lo, hi = self.comp.lo, self.comp.hi
        p, q = (hi - lo)._numerator, (hi - lo)._denominator
        dens = tuple(Q(a * q * self.bins, total * p) for a in ints)
        return tr.UlamMeasure(lo, hi, dens)


class _RuelleGraph:
    """Vertex matrices of the fiber-sum operator, one exp(-beta*energy) per edge.

    ``perron`` iterates on the dense shifted matrix from the uniform vector on
    every call.  The atom masses of a graph candidate are exact rationals of
    the vector's floats, so a sparse or warm-started step would change them
    in their last bits, and with them the pinned reports; a graph matrix is
    only vertices x vertices, so there is nothing to save.  It passes
    ``decide`` to ``_perron`` as the bin operator does; with the cold start,
    a call that stops early changes no later call, so the candidate is a
    function of the last, fully converged call alone.  ``eigenmeasure``
    pushes a Perron vector onto atoms on the edges.
    """

    def __init__(self, system: PartialSystem, psi: PotentialFunction):
        gph = system.gph
        self.verts = gph.vertices
        idx = {v: i for i, v in enumerate(self.verts)}
        wmap = psi.carrier.weight_map()
        self.edges = [(idx[e.src], idx[e.rng], float_of(wmap[e.name])) for e in gph.edges]
        self.atoms = [
            (gph.path_point((e.name,)), idx[e.src], float_of(wmap[e.name]))
            for e in sorted(gph.edges, key=lambda e: e.name)
        ]

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

    def perron(self, beta: float, decide: bool = False) -> _Root:
        n = len(self.verts)
        kt = self.dense(beta).T + np.eye(n)  # shift keeps oscillating spectra convergent
        return _perron(kt.__matmul__, np.full(n, 1.0 / n), decide=decide)

    def eigenmeasure(self, vec: np.ndarray, beta: float) -> tr.AtomicMeasure:
        """Atoms on the length-one cylinders Z(e), renormalised exactly.

        The vector lives on vertices; the eigen-measure identity itself
        dictates mass(Z(e)), proportional to exp(-beta * energy(e)) times the
        weight of the source vertex.  That keeps every atom inside the shift
        domain.
        """
        masses = [
            Q(abs(float(vec[i]))) * Q(math.exp(-beta * energy)) for _, i, energy in self.atoms
        ]
        return tr.AtomicMeasure(tuple(zip((p for p, _, _ in self.atoms), _normalised(masses))))


class _Root(NamedTuple):
    """One Perron call: the root estimate, its vector, the bounds on rho(k) and
    the power steps it took.

    ``lower`` and ``upper`` are the Collatz-Wielandt bounds on rho(k) at the
    last step (``_cw_bounds``); ``upper`` is inf where they prove nothing.
    """

    r: float
    vec: np.ndarray
    lower: float
    upper: float
    steps: int

    def sign(self) -> int:
        """The sign of rho(k) - 1 that the bounds prove: +1, -1, or 0 if neither."""
        return 1 if self.lower > 1.0 else -1 if self.upper < 1.0 else 0


# a mid-bisection call stops once the bounds put rho - 1 beyond this band:
# twice the solver's |r - 1| <= 1e-10 stop rule, so the root it returns is
# past that rule on the side the converged root is
_SIGN_BAND = 2e-10


def _cw_bounds(w: np.ndarray, u: np.ndarray) -> tuple[float, float]:
    """Collatz-Wielandt bounds on rho(k) from one shifted step w = k^T u + u.

    For a nonnegative k, k^T u + u >= l u with u >= 0, u != 0 gives
    rho(k) + 1 >= l, so the least ratio w_i / u_i over the support of u is a
    lower bound.  k^T u + u <= m u gives rho(k) + 1 <= m only when u > 0 on
    every bin, so the upper bound is inf where some entry of u is 0 (its
    ratio reads inf or NaN).  The ratios are float quotients: the bounds
    hold up to their rounding.
    """
    ratios = w / u  # the caller ignores the divide warnings of a zero entry
    upper = float(ratios.max()) - 1.0
    if math.isfinite(upper):
        return float(ratios.min()) - 1.0, upper
    return float(ratios[u > 0].min()) - 1.0, math.inf


def _cut_lower(
    step: Callable[[np.ndarray], np.ndarray], u: np.ndarray, w: np.ndarray, lower: float
) -> tuple[float, int]:
    """The lower bound again on u with its unmoved entries cut, and the steps it took.

    Entries that the step leaves unchanged (k^T u is 0 there, as on bins
    outside the domain of a partial map) read a ratio of one, which pins
    the lower bound at rho(k) >= 0 while they decay.  The lower bound holds
    for any u >= 0, so each round cuts them and takes one more step; the
    bins whose mass only came from cut bins are cut next.  It stops when a
    step moves every entry left, or when a cut would leave none.
    """
    steps = 0
    while True:
        live = u > 0
        still = live & (w == u)
        rest = live & ~still
        if not still.any() or not rest.any():
            return lower, steps
        u = np.where(rest, u, 0.0)
        w, steps = step(u), steps + 1
        lower = max(lower, _cw_bounds(w, u)[0])


def _perron(
    step: Callable[[np.ndarray], np.ndarray],
    u: np.ndarray,
    tol: float = 1e-13,
    iters: int = 20_000,
    decide: bool = False,
) -> _Root:
    """Perron root and left eigenvector by shifted power iteration from u.

    ``step(u)`` is k^T u + u; the shift keeps oscillating spectra convergent.
    Raises NoSolution when the iteration leaves the finite range or has not
    converged after ``iters`` steps, rather than returning an unconverged root.

    A call converges to ``tol`` on the vector and the root.  With ``decide``
    it may stop sooner: once u > 0 on every bin and the Collatz-Wielandt
    bounds of a step put rho(k) - 1 beyond +-``_SIGN_BAND``, it returns
    (s - 1, w / s).  With sum(u) = 1, s is the u-weighted mean of the ratios
    w_i / u_i, so s - 1 has the sign the bounds proved and is more than
    1e-10 from one: every use of the root past the sign is left to the
    caller.  A vector with a zero entry never stops early, because there
    the upper bound proves nothing and the iteration may converge to the
    root of a block, not rho(k).

    A converged call returns the bounds at its last step, the lower one
    sharpened by ``_cut_lower``, whose steps count in ``steps``.
    """
    r = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):  # for _cw_bounds
        for n in range(1, iters + 1):
            w = step(u)
            s = float(w.sum())
            if not math.isfinite(s):
                raise NoSolution(f"power iteration left the finite range (sum {s!r})", {})
            v = w / s
            if decide:
                lower, upper = _cw_bounds(w, u)
                if math.isfinite(upper) and (lower > 1.0 + _SIGN_BAND or upper < 1.0 - _SIGN_BAND):
                    return _Root(s - 1.0, v, lower, upper, n)
            if float(np.abs(v - u).max()) <= tol and abs(s - r) <= tol * max(1.0, s):
                lower, upper = _cw_bounds(w, u)
                lower, more = _cut_lower(step, u, w, lower)
                return _Root(s - 1.0, v, lower, upper, n + more)
            u, r = v, s
    raise NoSolution(
        f"power iteration did not converge in {iters} steps", {"iters": iters, "r": r - 1.0}
    )


def solve_conformal(
    handle: tr.TransferHandle,
    psi: PotentialFunction,
    bins: int = 256,
    bracket: tuple[float, float] = (0.1, 3.0),
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
    beta = 0 instead.  Bisection runs on the bracket for at most 200 steps,
    until |r - 1| <= 1e-10 or the bracket shrinks to rounding width; a flat
    root pegged at one returns a degenerate candidate, any other one-sided
    bracket raises NoSolution with the endpoint data, and a bracket where
    exp(-beta*energy) overflows raises ValidationError.

    A bisection step reads only the sign of r - 1, so its Perron call stops
    as soon as the Collatz-Wielandt bounds prove that sign past
    +-``_SIGN_BAND`` (``_perron`` with ``decide``); the branch it takes is
    the one the converged root would take.  Three kinds of call converge
    fully: the two bracket ends, whose roots the refusals print; any call
    whose vector has a zero entry; and the last call, which the
    bracket-width test and the step cap pick before it runs, so the vector
    the measure is read from is always a converged one.  Every call's
    bounds that prove a sign move that side of the candidate's enclosure
    ``beta_lo < beta_hi``, and the candidate counts the calls and their
    power steps.
    """
    b_lo, b_hi = float(bracket[0]), float(bracket[1])
    # the bisection would take an infinite end for the root: (0.5, inf) gave beta = inf
    if not (math.isfinite(b_lo) and math.isfinite(b_hi)):
        raise ValidationError(f"bracket ({b_lo}, {b_hi}) needs finite ends")
    if not b_lo < b_hi:
        raise ValidationError("bracket must be increasing")
    if bins < 1:
        raise ValidationError(f"the bin grid needs at least one bin, got bins={bins}")
    system = handle.system
    if system.backend == "graph":
        ops, cval = _RuelleGraph(system, psi), None
    else:
        ops, cval = _RuelleUlam(handle, psi, bins), psi.carrier.constant_value()
    calls = steps = 0

    def perron(beta: float, decide: bool = False) -> _Root:
        nonlocal calls, steps
        root = ops.perron(beta, decide)
        calls, steps = calls + 1, steps + root.steps
        return root

    if cval is None:
        spectral = perron
    else:
        root0 = perron(0.0)
        c = float_of(cval)

        def spectral(beta: float, decide: bool = False) -> _Root:
            try:
                scale = math.exp(-beta * c)
            except OverflowError:
                raise _overflow(beta) from None
            r = root0.r * scale
            if not math.isfinite(r):
                raise _overflow(beta)
            return root0._replace(r=r, lower=root0.lower * scale, upper=root0.upper * scale)

    proved: dict = {}  # a sign of r - 1 -> the latest point whose bounds proved it

    def solve(beta: float, decide: bool = False) -> _Root:
        root = spectral(beta, decide)
        if root.sign():
            proved[root.sign()] = beta
        return root

    def candidate(beta: float, vec: np.ndarray, note: str = "", ends=(None, None)) -> KMSCandidate:
        lo, hi = ends if None not in ends else (None, None)
        return KMSCandidate(beta, ops.eigenmeasure(vec, beta), note, lo, hi, calls, steps)

    r_lo, r_hi = solve(b_lo).r, solve(b_hi).r
    flat = abs(r_lo - r_hi) <= 1e-10 * max(1.0, abs(r_lo))
    data = {"beta_lo": b_lo, "beta_hi": b_hi, "r_lo": r_lo, "r_hi": r_hi, "flat": flat}
    if flat:
        if abs(r_lo - 1.0) <= 1e-8:
            beta = 0.5 * (b_lo + b_hi)
            note = "degenerate: Perron root is one across the whole bracket"
            return candidate(beta, spectral(beta).vec, note)
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
    for n in range(200):
        beta = 0.5 * (lo_ + hi_)
        # the last call converges fully: its vector becomes the measure
        last = n == 199 or (hi_ - lo_) <= 5e-15 * max(1.0, abs(beta))
        root = solve(beta, decide=not last)
        f_mid = root.r - 1.0
        if abs(f_mid) <= 1e-10 or last:
            break
        if f_lo * f_mid <= 0:
            hi_ = beta
        else:
            lo_, f_lo = beta, f_mid
    up = 1 if r_lo > 1.0 else -1  # the sign of r - 1 at the low end of the bracket
    return candidate(beta, root.vec, ends=(proved.get(up), proved.get(-up)))


def _normalised(masses: list[Fraction]) -> list[Fraction]:
    """The masses over their sum; refuses an eigenvector that summed to zero."""
    total = sum(masses, Q(0))
    if total == 0:
        raise NoSolution("eigenvector collapsed to zero", {})
    return [m / total for m in masses]


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


def _battery_functions(handle, rng: random.Random, size: int) -> list[PiecewiseAffine]:
    # wide supports on purpose: narrow bumps make almost every monomial
    # product vanish and the battery stops checking anything
    comp = _single_component(handle.system)
    lo, hi = comp.lo, comp.hi
    width = hi - lo
    out = [
        PiecewiseAffine.const_on(comp, 1),
        PiecewiseAffine.hat(comp.midpoint(), width / 2, 1),
        PiecewiseAffine.affine_on(comp, 1 / width, -lo / width),
        PiecewiseAffine.hat(lo + width / 4, width / 4, 1),
        PiecewiseAffine.hat(lo + 3 * width / 4, width / 4, 1),
    ]
    while len(out) < size:
        r = width * Q(1, rng.choice((3, 4, 6)))
        c = lo + width * Q(rng.randrange(2, 15), 16)
        c = min(max(c, lo + r), hi - r)
        out.append(PiecewiseAffine.hat(c, r, 1))
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
    if pts < 1:
        raise ValidationError(f"the quadrature needs at least one point per bin, got pts={pts}")
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
    if beta == 0 and psi.carrier.constant_value() == 0:
        notes = (
            "trivial twist at beta zero: the identity holds for any trace and certifies nothing",
        )
    return ResidualReport("kms", tuple(rows), notes)


def core_kms_check(
    handle: tr.TransferHandle,
    mu: Measure,
    beta: float,
    psi: PotentialFunction,
    a: PiecewiseAffine,
    b: PiecewiseAffine,
    n: int,
    pts: int = 1,
) -> float:
    """Residual of the balanced-monomial state formula at one level.

    Left side: the diagonal expectation of a T^n T*^n b integrated against
    mu.  Right side: mu of the n-fold fiber sum with the energy-damped
    weight exp(-beta * S_n) folded in.  No command reports it yet; it is
    the check of the paper's KMS condition on the core, level by level.
    """
    if pts < 1:
        raise ValidationError(f"the quadrature needs at least one point per bin, got pts={pts}")
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
        if np.isnan(sums).any():  # the energy covers the orbits of the n-step domain
            raise ValidationError(f"internal: S_{n} undefined on the {n}-step fibre")
        try:
            damp = np.array([math.exp(-beta * s) for s in sums.tolist()])
        except OverflowError:
            raise _overflow(beta, _STATES) from None
        terms = ws * damp * tab.values(a, xs) * tab.values(b, xs)
        return np.bincount(rows, weights=terms, minlength=len(ids))

    lhs = _integrate_state(tab, lhs_fn, pts)
    rhs = _integrate_state(tab, rhs_fn, pts)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# designed test functions
# ---------------------------------------------------------------------------


def hat_battery(region: IntervalSet, count: int) -> list[PiecewiseAffine]:
    """Hats compactly supported inside a region, spread over its components."""
    out: list[PiecewiseAffine] = []
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
            out.append(PiecewiseAffine.hat(c, r, 1))
        elif iv.lo_closed and iv.hi_closed:
            out.append(PiecewiseAffine.hat(iv.midpoint(), width / 4, 1))
        i += 1
        if i > 20 * count:
            break
    return out
