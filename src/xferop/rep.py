"""Truncated matrix models of the covariance algebra.

The orbit basis spans the preimage tree of an anchor point up to a fixed
depth.  Functions act diagonally, the generator T sends a node to its
weighted fiber children, and every algebraic relation that survives
truncation is checked on the interior band where no truncated edge can
leak in.  Nodes are keyed by their index in walk order: a function
expression is read as one exact vector over them, its fiber sums and
pullbacks off the children and ancestors the tree holds.  Matrices are
numpy arrays; the diagonal data behind them stays exact until the final
cast.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import dynamics as dyn
from . import transfer as tr
from .dynamics import PartialSystem, Potential
from .errors import EmptyBasis, ValidationError
from .intervals import Q, frac

# ---------------------------------------------------------------------------
# pointwise function expressions
# ---------------------------------------------------------------------------


class FnExpr:
    """A pointwise-exact function expression over one system.

    Wraps evaluation closures so products, pullbacks along the map, and
    fiber-sum images stay exactly computable at rational points even when
    they leave the piecewise-affine class.  ``on`` reads the values at the
    nodes of an orbit basis off its tree; the closure is read off it only.
    """

    def __init__(self, fn: Callable[[object], Fraction], on=None):
        self._fn, self._on = fn, on

    def value(self, x) -> Fraction:
        return self._fn(x)

    def on(self, basis: "OrbitBasis", levels: int) -> list:
        """The exact values at the tree nodes of depth below ``levels``, in node order."""
        return self._on(basis, levels) if self._on else [self._fn(x) for x, _, _ in basis.tree(levels)]

    @staticmethod
    def of(f: tr.Function) -> "FnExpr":
        return FnExpr(f.value)

    @staticmethod
    def const(v) -> "FnExpr":
        v = frac(v)
        return FnExpr(lambda x: v)

    def __mul__(self, other: "FnExpr") -> "FnExpr":
        return FnExpr(
            lambda x: self._fn(x) * other._fn(x),
            lambda b, lv: [p * q for p, q in zip(self.on(b, lv), other.on(b, lv))],
        )

    def alpha(self, system: PartialSystem, n: int = 1) -> "FnExpr":
        """Pullback along n forward steps; zero off the n-step domain.  On a
        basis of the system a node n or more deep reads its ancestor."""

        def val(x):
            z = dyn.orbit_end(system, x, n)
            return Q(0) if z is None else self._fn(z)

        def on(b, lv):
            if b.system is not system:
                return [val(x) for x, _, _ in b.tree(lv)]
            inner = self.on(b, max(lv - n, 0))  # the ancestors are this shallow
            return [inner[a] if a >= 0 else val(x) for a, (x, _, _) in zip(b.ancestors(n, lv), b.tree(lv))]

        return FnExpr(val, on)

    def transfer(self, system: PartialSystem, pot: Potential, n: int = 1) -> "FnExpr":
        """The n-fold weighted fiber sum; on a basis of the system and weight,
        each step sums the basis children."""

        def val(y):
            return tr.weighted_fiber_sum(system, pot, self._fn, y, n)

        def on(b, lv):
            if b.system is not system or b.potential is not pot:
                return [val(y) for y, _, _ in b.tree(lv)]
            system.check_depth(n)  # refuses as ``dyn.preimages`` does
            vals = self.on(b, lv + n)
            for top in range(lv + n - 1, lv - 1, -1):
                vals = b.push(vals, top)
            return vals

        return FnExpr(val, on)


# ---------------------------------------------------------------------------
# orbit basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasisNode:
    depth: int
    point: object


class OrbitBasis:
    """Preimage tree of an anchor point, truncated at a depth."""

    def __init__(self, handle: tr.TransferHandle, anchor, depth: int):
        handle.require_valid()
        if depth < 1:
            raise ValidationError("depth must be >= 1")
        handle.system.check_depth(depth)
        system, pot = handle.system, handle.potential
        anchor = system.point(anchor)
        if not system.map.space.contains(anchor):
            raise ValidationError("anchor lies outside the space")
        self.handle = handle
        self.system = system
        self.potential = pot
        self.anchor = anchor
        self.depth = depth

        # level k spans _starts[k]:_starts[k + 1] of the tree (``tree``)
        self._walk = dyn.preimage_levels(system, pot, anchor, sys.maxsize)
        [(root, one)], _ = next(self._walk)
        self._tree, self._starts, self._steps = [(root, -1, one)], [0, 1], [Q(0)]
        tree = self.tree(depth + 1)
        self.nodes = tuple(
            BasisNode(k, x) for k in range(depth + 1) for x, _, _ in tree[self._starts[k] : self._starts[k + 1]]
        )
        self.parents = tuple(p for _, p, _ in tree)
        self._t: Optional[np.ndarray] = None
        self._cocycles: dict[int, tuple[Optional[Fraction], ...]] = {}
        self._values: dict[int, tuple[tr.Function, list[Optional[float]]]] = {}

    def tree(self, levels: int) -> list[tuple]:
        """The nodes of depth below ``levels`` as (point, parent, cocycle), in node
        order.  A level past the depth is read from the walk when first asked for,
        so a basis that never transfers walks no further."""
        tree, starts = self._tree, self._starts
        while len(starts) <= levels:
            level, up = next(self._walk)
            tree += [(x, p + starts[-2], w) for (x, w), p in zip(level, up)]
            starts.append(len(tree))
        return tree[: starts[levels]]

    def weights(self, levels: int) -> list:
        """pot.value at the nodes of depth below ``levels`` (0 at the root), read
        off the walk once: each cocycle over its parent's."""
        tree, steps = self.tree(levels), self._steps
        steps += [w / tree[p][2] for _, p, w in tree[len(steps) :]]
        return steps[: len(tree)]

    @property
    def _weights(self) -> tuple:
        return tuple(self.weights(self.depth + 1))

    def ancestors(self, n: int, levels: int) -> list[int]:
        """The node n levels up from each node of depth below ``levels``, -1 above the root."""
        tree = self.tree(levels)
        out = list(range(len(tree)))
        for _ in range(n):
            out = [tree[a][1] if a >= 0 else -1 for a in out]
        return out

    def push(self, vals: list, levels: int) -> list:
        """One fiber-sum step: each node of depth below ``levels`` sums weight
        times value in ``vals`` over its children."""
        out = [Q(0)] * self._starts[levels]
        for (_, p, _), w, v in zip(self.tree(levels + 1)[1:], self.weights(levels + 1)[1:], vals[1:]):
            out[p] += w * v
        return out

    @property
    def dim(self) -> int:
        return len(self.nodes)

    def depths(self) -> np.ndarray:
        return np.array([nd.depth for nd in self.nodes], dtype=int)

    def band(self, lo: int, hi: int) -> np.ndarray:
        """Boolean mask of nodes with lo <= depth <= hi."""
        d = self.depths()
        return (d >= lo) & (d <= hi)

    # -- matrices ------------------------------------------------------------

    def pi(self, f) -> np.ndarray:
        """Diagonal action of a function: a FnExpr read off the tree, any other through ``values``."""
        if isinstance(f, FnExpr):
            vals = [float(v) for v in f.on(self, self.depth + 1)]
        else:
            vals = self.values(f, range(self.dim))
        return np.diag(np.array(vals, dtype=float))

    def T(self) -> np.ndarray:
        """The weighted shift onto the children, built once per basis and read-only."""
        if self._t is None:
            self._t = np.zeros((self.dim, self.dim))
            for i, w in enumerate(self._weights[1:], 1):
                self._t[i, self.parents[i]] = math.sqrt(float(w))
            self._t.flags.writeable = False
        return self._t

    def T_pow(self, k: int) -> np.ndarray:
        out = np.eye(self.dim)
        t = self.T()
        for _ in range(k):
            out = t @ out
        return out

    def cocycles(self, k: int) -> tuple[Optional[Fraction], ...]:
        """The exact k-step cocycle at every node, None where the orbit
        leaves the domain; each degree is computed once per basis."""
        col = self._cocycles.get(k)
        if col is None:
            col = self._cocycles[k] = tuple(
                dyn.cocycle_or_none(self.system, self.potential, k, nd.point) for nd in self.nodes
            )
        return col

    def values(self, f: tr.Function, idx: Sequence[int]) -> list[float]:
        """float(f(x)) at the nodes idx; each node is evaluated once per function.

        Only asked-for nodes are evaluated, so a function that cannot be read
        at some node (a graph cylinder finer than a vertex point) raises only
        where a caller needs it.  The memo holds f itself, so its ``id``
        cannot pass to another function while the basis lives.
        """
        held = self._values.get(id(f))
        if held is None:
            held = self._values[id(f)] = (f, [None] * self.dim)
        col = held[1]
        for i in idx:
            if col[i] is None:
                col[i] = float(f.value(self.nodes[i].point))
        return [col[i] for i in idx]

    def gauge(self, z: complex) -> np.ndarray:
        return np.diag(np.array([z ** nd.depth for nd in self.nodes], dtype=complex))


# ---------------------------------------------------------------------------
# relation batteries
# ---------------------------------------------------------------------------


def check_transfer_relation(basis: OrbitBasis, a) -> float:
    """Residual of T* pi(a) T = pi(L a) away from the truncation edge."""
    t = basis.T()
    lhs = t.T @ basis.pi(a) @ t
    la = a if isinstance(a, FnExpr) else FnExpr.of(a)
    rhs = basis.pi(la.transfer(basis.system, basis.potential))
    mask = basis.band(0, basis.depth - 1)
    diff = (lhs - rhs)[:, mask]
    return float(np.abs(diff).max()) if diff.size else 0.0


def covariance_residual(basis: OrbitBasis, a, b) -> float:
    """Residual of T pi(a) = pi(b) T; zero exactly when b = a o phi."""
    t = basis.T()
    diff = t @ basis.pi(a) - basis.pi(b) @ t
    return float(np.abs(diff).max())


def check_covariance(basis: OrbitBasis, a: tr.Function) -> float:
    return covariance_residual(basis, a, a.pullback(basis.system.map))


def check_commutation(basis: OrbitBasis, a, b) -> float:
    pa, pb = basis.pi(a), basis.pi(b)
    return float(np.abs(pa @ pb - pb @ pa).max())


@dataclass(frozen=True)
class Monomial:
    """a T^up T*^down b, any factor optional."""

    left: Optional[tr.Function]
    up: int
    down: int
    right: Optional[tr.Function]

    def __post_init__(self):
        if self.up < 0 or self.down < 0:
            raise ValidationError("powers must be nonnegative")


def monomial_matrix(basis: OrbitBasis, mon: Monomial) -> np.ndarray:
    m = basis.T_pow(mon.up) @ basis.T_pow(mon.down).T
    if mon.left is not None:
        m = basis.pi(mon.left) @ m
    if mon.right is not None:
        m = m @ basis.pi(mon.right)
    return m


def _fn_or_one(f: Optional[tr.Function]) -> FnExpr:
    return FnExpr.of(f) if f is not None else FnExpr.const(1)


def product_shape(n: int, m: int, k: int, l: int) -> tuple[int, int, int, int, str]:
    """The shape of (a T^n T*^m b)(c T^k T*^l d) as one monomial.

    Returns ``(up, down, steps, pull, side)``: the product is a' T^up T*^down d'
    with middle function alpha^pull(L^steps(b c)).  On the ``"right"`` side
    (m >= k) it joins d, so d' = mid * d and a' = a; on the ``"left"`` side
    it joins a, so a' = a * mid and d' = d.
    """
    if m >= k:
        return n, m - k + l, k, l, "right"
    return n + k - m, l, m, n, "left"


def product_check(basis: OrbitBasis, m1: Monomial, m2: Monomial) -> float:
    """Residual between the matrix product and the closed product form.

    The product of two monomials is again a monomial whose middle function
    is a fiber-sum image pushed back along the map (``product_shape``); the
    two sides are compared on the band of columns where truncation cannot
    reach.
    """
    sys_, pot = basis.system, basis.potential
    lhs = monomial_matrix(basis, m1) @ monomial_matrix(basis, m2)

    up, down, steps, pull, side = product_shape(m1.up, m1.down, m2.up, m2.down)
    mid = (_fn_or_one(m1.right) * _fn_or_one(m2.left)).transfer(sys_, pot, steps)
    if pull:
        mid = mid.alpha(sys_, pull)
    if side == "right":
        rhs = basis.T_pow(up) @ basis.T_pow(down).T @ basis.pi(mid * _fn_or_one(m2.right))
        if m1.left is not None:
            rhs = basis.pi(m1.left) @ rhs
    else:
        rhs = basis.pi(_fn_or_one(m1.left) * mid) @ basis.T_pow(up) @ basis.T_pow(down).T
        if m2.right is not None:
            rhs = rhs @ basis.pi(m2.right)

    lo = m1.down + m2.down
    hi = basis.depth - m1.up - m2.up
    mask = basis.band(lo, hi)
    if not mask.any():
        raise EmptyBasis(
            f"no columns in the safe band [{lo}, {hi}]; increase the depth"
        )
    diff = (lhs - rhs)[:, mask]
    return float(np.abs(diff).max())


# ---------------------------------------------------------------------------
# expectations and gauge
# ---------------------------------------------------------------------------


def gauge_residuals(basis: OrbitBasis, a: tr.Function) -> tuple[float, float]:
    """Max residual of (fix pi(a), scale T by z) over 7 sampled circle points."""
    t = basis.T().astype(complex)
    pa = basis.pi(a).astype(complex)
    worst_a, worst_t = 0.0, 0.0
    for j in range(7):
        z = complex(math.cos(2 * math.pi * j / 7), math.sin(2 * math.pi * j / 7))
        u = basis.gauge(z)
        ui = basis.gauge(z.conjugate())
        worst_a = max(worst_a, float(np.abs(u @ pa @ ui - pa).max()))
        worst_t = max(worst_t, float(np.abs(u @ t @ ui - z * t).max()))
    return worst_a, worst_t


def gauge_average(basis: OrbitBasis, m: np.ndarray) -> np.ndarray:
    """Average of gauge conjugates over 2 * depth + 1 circle points; kills
    every unbalanced component the basis can hold."""
    n = 2 * basis.depth + 1
    acc = np.zeros_like(m, dtype=complex)
    for j in range(n):
        z = complex(math.cos(2 * math.pi * j / n), math.sin(2 * math.pi * j / n))
        acc += basis.gauge(z) @ m.astype(complex) @ basis.gauge(z.conjugate())
    return acc / n


def expectation_E(basis: OrbitBasis, mon: Monomial) -> np.ndarray:
    """Structural conditional expectation onto the balanced part."""
    if mon.up == mon.down:
        return monomial_matrix(basis, mon)
    return np.zeros((basis.dim, basis.dim))


def e_check(basis: OrbitBasis, mon: Monomial) -> float:
    """Gauge averaging must reproduce the structural expectation."""
    avg = gauge_average(basis, monomial_matrix(basis, mon))
    structural = expectation_E(basis, mon).astype(complex)
    return float(np.abs(avg - structural).max())


def g_values(basis: OrbitBasis, mon: Monomial):
    """Exact diagonal of the structural expectation of a monomial.

    For balanced powers k the value at a node is left * right * (k-step
    cocycle); unbalanced monomials have zero expectation.
    """
    if mon.up != mon.down:
        return (Q(0),) * basis.dim
    out = []
    for nd, w in zip(basis.nodes, basis.cocycles(mon.up)):
        v = Q(0) if w is None else w
        if mon.left is not None:
            v *= mon.left.value(nd.point)
        if mon.right is not None:
            v *= mon.right.value(nd.point)
        out.append(v)
    return tuple(out)


def g_check(basis: OrbitBasis, mon: Monomial) -> float:
    """Diagonal of the matrix vs the exact cocycle values, on the safe band."""
    diag = np.diag(monomial_matrix(basis, mon))
    vals = np.array([float(v) for v in g_values(basis, mon)])
    mask = basis.band(mon.down, basis.depth)
    diff = (diag - vals)[mask]
    return float(np.abs(diff).max()) if diff.size else 0.0
