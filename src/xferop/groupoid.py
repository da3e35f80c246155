"""Truncated etale-groupoid models over the preimage tree.

An element is a triple (x, k, y) of basis points whose forward orbits
merge: phi^n(x) = phi^m(y) for some witness pair (n, m) with k = n - m.
Truncation keeps witnesses below a depth bound, which makes membership
decidable and every table exact.  Tables are keyed by the triple (x, k, y)
of interned point ids, which makes the groupoid laws hold by construction
(see ``TruncatedGroupoid``).
The module also provides the equal-image relations R_n, the dictionary
between groupoid convolution and the truncated matrix model (a
weighted-shift conjugation that cancels the cocycle square roots entry by
entry), and the Cuntz-Krieger generator checks for finite-graph shifts.

Only systems whose weight is strictly positive and continuous on the
whole domain are accepted; anything with an irregular point is refused
up front rather than silently restricted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import dynamics as dyn
from . import rep
from . import transfer as tr
from .dynamics import GraphPotential, PartialSystem, Potential
from .errors import NotLocalHomeo, ValidationError


# ---------------------------------------------------------------------------
# elements and relations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupoidElement:
    """One arrow (x, k, y) with a verified witness pair.

    The witness (n, m) records exponents with phi^n(x) = phi^m(y); the
    stored pair is the smallest one the enumeration found, so membership
    stays decidable after truncation.
    """

    x: object
    k: int
    y: object
    witness: tuple[int, int]

    def __post_init__(self):
        n, m = self.witness
        if n < 0 or m < 0:
            raise ValidationError("witness exponents must be nonnegative")
        if n - m != self.k:
            raise ValidationError(f"witness {self.witness} does not realize k={self.k}")

    def inverse(self) -> "GroupoidElement":
        n, m = self.witness
        return GroupoidElement(self.y, -self.k, self.x, (m, n))

    def __str__(self) -> str:
        return f"({self.x}, {self.k:+d}, {self.y})"


@dataclass(frozen=True)
class GapPair:
    """Points with equal n-step images; the level-n equal-image relation."""

    n: int
    x: object
    y: object


class TruncatedGroupoid:
    """Finite element table over a point set, keyed by interned ids.

    ``points[i]`` has id i, ``keys[i]`` is the id triple (x, k, y) of
    element i, and ``index`` maps a triple to its element.  The product gh
    is the element at (g.x, g.k + h.k, h.y), if any.  So (gh)f and g(hf)
    are one lookup, and g.g^-1 is the lookup of (g.x, 0, g.x), a unit:
    associativity and inverses need no check.
    """

    def __init__(self, depth: int, points: tuple, elements: tuple):
        self.depth = depth
        self.points = points
        self.elements = elements
        ids = {p: i for i, p in enumerate(points)}
        self.keys = tuple((ids[g.x], g.k, ids[g.y]) for g in elements)
        self.index = {key: i for i, key in enumerate(self.keys)}
        if len(self.index) != len(elements):
            raise ValidationError("duplicate elements in groupoid table")
        self._by_left: list[list[int]] = [[] for _ in points]
        for i, (x, _, _) in enumerate(self.keys):
            self._by_left[x].append(i)
        self._on: dict = {}  # per basis, what ``_on_basis`` reads

    def __len__(self) -> int:
        return len(self.elements)

    def axiom_violations(self, system: PartialSystem) -> int:
        """Count of elements failing what the keys leave open, each once.

        An element (x, k, y) with witness (n, m) passes when the units at x
        and y are in the table, its inverse is in it exactly as ``inverse()``
        writes it, and the witness replays: phi^n(x) = phi^m(y), both defined.
        """
        end = functools.cache(lambda i, n: dyn.orbit_end(system, self.points[i], n))
        bad = 0
        for g, (x, k, y) in zip(self.elements, self.keys):
            i = self.index.get((y, -k, x))
            image = end(x, g.witness[0])
            units = (x, 0, x) in self.index and (y, 0, y) in self.index
            inverse = i is not None and self.elements[i] == g.inverse()
            replays = image is not None and image == end(y, g.witness[1])
            bad += not (units and inverse and replays)
        return bad


def _local_homeo_gate(system: PartialSystem, pot: Potential) -> None:
    report = dyn.regular_set(system, pot)
    if report.irregular_points:
        pts = ", ".join(str(ip.point) for ip in report.irregular_points)
        raise NotLocalHomeo(f"irregular points present: {pts}")
    # on a graph all three sets are one: its edge weights are positive
    if report.delta_pos != report.delta:
        raise NotLocalHomeo(f"weight vanishes on {report.delta.difference(report.delta_pos)}")
    if report.delta_reg != report.delta:
        gaps = report.delta.difference(report.delta_reg)
        raise NotLocalHomeo(f"domain is not fully regular: missing {gaps}")


def build_deaconu(
    system: PartialSystem,
    pot: Potential,
    seeds: Sequence,
    depth: int,
    max_elements: int = 500_000,
) -> TruncatedGroupoid:
    """Element table over the union of preimage trees of the seeds.

    Witness exponents are capped at depth on both sides.  For every pair
    of basis points and every realizable k the table holds one element
    carrying the minimal witness.
    """
    _local_homeo_gate(system, pot)
    handle = tr.TransferHandle.create(system, pot)
    points: dict = {}
    for seed in seeds:
        basis = rep.OrbitBasis(handle, seed, depth)
        for nd in basis.nodes:
            points.setdefault(nd.point, None)
    pts = tuple(sorted(points))

    orbits = [dyn.forward_walk(system, p, depth) for p in pts]
    groups: dict = {}
    for i, orb in enumerate(orbits):
        for t, v in enumerate(orb):
            groups.setdefault(v, []).append((i, t))

    found: dict = {}
    for members in groups.values():
        for i, n in members:
            for j, m in members:
                key = (i, j, n - m)
                cur = found.get(key)
                if cur is None or (n, m) < cur:
                    found[key] = (n, m)
        if len(found) > max_elements:
            raise ValidationError(
                f"element table exceeds {max_elements}; lower the depth"
            )

    elements = tuple(
        GroupoidElement(pts[i], k, pts[j], w)
        for (i, j, k), w in sorted(
            found.items(), key=lambda kv: (kv[0][0], kv[0][2], kv[0][1])
        )
    )
    return TruncatedGroupoid(depth, pts, elements)


def gap_relation(system: PartialSystem, n: int, samples: Sequence) -> tuple[GapPair, ...]:
    """All sampled pairs (x, y) with phi^n(x) = phi^n(y), exactly.

    Pairs are reported once, in sample order with x no later than y;
    reflexive pairs are included whenever the n-step image exists.
    """
    if n < 0:
        raise ValidationError("level must be nonnegative")
    pts = list(samples)
    images = [dyn.orbit_end(system, p, n) for p in pts]
    out = []
    for i, u in enumerate(images):
        if u is None:
            continue
        for j in range(i, len(pts)):
            if images[j] == u:
                out.append(GapPair(n, pts[i], pts[j]))
    return tuple(out)


def gap_tower(
    system: PartialSystem, samples: Sequence, depth: int
) -> tuple[tuple[GapPair, ...], ...]:
    """Levels R_0..R_depth on the samples, with the inclusion R_n into
    R_{n+1} verified wherever the next image exists."""
    levels = tuple(gap_relation(system, n, samples) for n in range(depth + 1))
    for n in range(depth):
        nxt = {(g.x, g.y) for g in levels[n + 1]}
        for g in levels[n]:
            if None in (dyn.orbit_end(system, g.x, n + 1), dyn.orbit_end(system, g.y, n + 1)):
                continue
            if (g.x, g.y) not in nxt:
                raise ValidationError(
                    f"equal-image pair {g.x},{g.y} lost between levels {n} and {n + 1}"
                )
    return levels


# ---------------------------------------------------------------------------
# the convolution / matrix dictionary
# ---------------------------------------------------------------------------


def _slot_diag(basis: rep.OrbitBasis, f: Optional[tr.Function], k: int) -> np.ndarray:
    """Diagonal a(x) * rho_k(x)^{-1/2} as floats; zero where the orbit or
    the cocycle is missing (those rows die against the shift anyway)."""
    out = np.zeros(basis.dim)
    weights = basis.cocycles(k)
    live = [i for i, w in enumerate(weights) if w is not None and w > 0]
    vals = [1.0] * len(live) if f is None else basis.values(f, live)
    for i, v in zip(live, vals):
        out[i] = v / math.sqrt(float(weights[i]))
    return out


def phi_matrix(
    basis: rep.OrbitBasis,
    a: Optional[tr.Function],
    n: int,
    m: int,
    b: Optional[tr.Function],
) -> np.ndarray:
    """Matrix of a rho_n^{-1/2} T^n T*^m rho_m^{-1/2} b on the tree basis.

    The square roots cancel against the shift weights, so the entry at
    (i, j) is a(x_i) b(x_j) whenever the tree witnesses the images
    phi^n(x_i) = phi^m(x_j) through a common ancestor, and zero otherwise.
    """
    if n < 0 or m < 0 or n > basis.depth or m > basis.depth:
        raise ValidationError("tensor degrees must sit within the basis depth")
    lft = _slot_diag(basis, a, n)
    rgt = _slot_diag(basis, b, m)
    core = basis.T_pow(n) @ basis.T_pow(m).T
    return (lft[:, None] * core) * rgt[None, :]


def _on_basis(gpd: TruncatedGroupoid, basis: rep.OrbitBasis, n: int) -> tuple[list[int], list[int]]:
    """Each table point's node on the basis (-1 off it), and its phi^n as an
    interned id (-1 where the orbit leaves the domain), once per basis and
    degree.  A node's id is its index; a node n or more deep reads its ancestor."""
    held = gpd._on.get(id(basis))
    if held is None:
        ids = {nd.point: i for i, nd in enumerate(basis.nodes)}
        if len(ids) != basis.dim:
            raise ValidationError(
                "anchor revisits its own preimage tree; pick a nonperiodic anchor"
            )
        held = gpd._on[id(basis)] = (basis, [ids.get(p, -1) for p in gpd.points], ids, {})
    _, rows, ids, col = held
    if n not in col:
        up, col[n] = basis.ancestors(n, basis.depth + 1), []
        for p, r in zip(gpd.points, rows):
            z = up[r] if r >= 0 else -1
            if z < 0:
                end = dyn.orbit_end(basis.system, p, n)
                z = -1 if end is None else ids.setdefault(end, len(ids))
            col[n].append(z)
    return rows, col[n]


def _convolution_matrix(
    gpd: TruncatedGroupoid,
    basis: rep.OrbitBasis,
    a, b, n: int, m: int,
    c, d, n2: int, m2: int,
) -> np.ndarray:
    rows, e1 = _on_basis(gpd, basis, n)
    e2, f1, f2 = (_on_basis(gpd, basis, k)[1] for k in (m, n2, m2))

    def value(f, p: int) -> float:
        if f is None:
            return 1.0
        return basis.values(f, (rows[p],))[0] if rows[p] >= 0 else float(f.value(gpd.points[p]))

    def tensor(f, g, ends_f, ends_g, x: int, y: int) -> float:
        """f(x) g(y) when phi^n(x) = phi^m(y), both defined, for the factor's degrees."""
        if ends_f[x] < 0 or ends_f[x] != ends_g[y]:
            return 0.0
        return value(f, x) * value(g, y)

    k1, k2 = n - m, n2 - m2
    keys = gpd.keys
    out = np.zeros((basis.dim, basis.dim))
    # a second factor recurs under every first factor ending where it starts
    second: dict[int, float] = {}
    for x, k, y in keys:
        if k != k1 or rows[x] < 0:
            continue
        v1 = tensor(a, b, e1, e2, x, y)
        if v1 == 0.0:
            continue
        for j in gpd._by_left[y]:
            _, kj, yj = keys[j]
            if kj != k2 or rows[yj] < 0:
                continue
            if j not in second:
                second[j] = tensor(c, d, f1, f2, y, yj)
            if second[j] != 0.0:
                out[rows[x], rows[yj]] += v1 * second[j]
    return out


def iso_phi_check(
    basis: rep.OrbitBasis,
    a: Optional[tr.Function],
    b: Optional[tr.Function],
    n: int,
    m: int,
    c: Optional[tr.Function] = None,
    d: Optional[tr.Function] = None,
    n2: Optional[int] = None,
    m2: Optional[int] = None,
    gpd: Optional[TruncatedGroupoid] = None,
) -> float:
    """Residual between the two product routes for a pair of tensors.

    Route one multiplies the weighted-shift images; route two convolves
    the tensors over the truncated element table and lays the result out
    as a matrix.  The comparison runs on interior indices: rows deep
    enough to carry the left degree, columns deep enough for the right
    degree of the second factor.  Both slots must vanish off the
    corresponding iterate domains for the tensor to be meaningful.
    """
    if n2 is None or m2 is None:
        if (n2 is None) != (m2 is None):
            raise ValidationError("give both degrees of the second factor or neither")
        c, d, n2, m2 = a, b, n, m
    if gpd is None:
        gpd = build_deaconu(
            basis.system, basis.potential, [basis.anchor], basis.depth
        )
    m_route = phi_matrix(basis, a, n, m, b) @ phi_matrix(basis, c, n2, m2, d)
    c_route = _convolution_matrix(gpd, basis, a, b, n, m, c, d, n2, m2)
    depths = basis.depths()
    block = np.ix_(depths >= n, depths >= m2)
    diff = np.abs(m_route[block] - c_route[block])
    return float(diff.max()) if diff.size else 0.0


# ---------------------------------------------------------------------------
# graph generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorFamily:
    """Edge partial isometries on a truncated path tree, with residuals.

    isometries maps edge names to matrices, projections maps vertex names
    to the diagonal range projections.  interior masks the rows where the
    truncation is silent: the tree boundary (the root has no parent, the
    deepest layer has no children).
    """

    basis: rep.OrbitBasis
    isometries: dict = field(default_factory=dict)
    projections: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    interior: np.ndarray = None

    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0


def _prepend_matrix(basis: rep.OrbitBasis, edge_name: str) -> np.ndarray:
    """The 0/1 matrix sending a node to its prepend-by-edge child."""
    out = np.zeros((basis.dim, basis.dim))
    for i, nd in enumerate(basis.nodes):
        if nd.depth == 0:
            continue
        if nd.point.word[0] == edge_name:
            out[i, basis.parents[i]] = 1.0
    return out


def graph_generators(
    system: PartialSystem,
    lam: dict,
    depth: int,
    anchor=None,
) -> GeneratorFamily:
    """Edge generators s_e = pi(1_Z(e)) lambda_e^{-1/2} T and their relations.

    Checks, on interior indices: s_e* s_e equals the source projection,
    s_e s_e* stays under the range projection, every vertex projection is
    the sum of the range parts of its incoming edges, distinct edges have
    orthogonal ranges, and the rep-built s_e equals the plain prepend
    shift exactly.  ``lam`` is read as a ``GraphPotential``: one positive
    rational weight for every edge of the graph and no other name.
    """
    gph = system.gph
    pot = GraphPotential(tuple(lam.items()))
    pot.check_edges(gph)
    handle = tr.TransferHandle.create(system, pot)
    if anchor is None:
        name = sorted(e.name for e in gph.edges)[0]
        anchor = gph.path_point((name,))
    basis = rep.OrbitBasis(handle, anchor, depth)

    t = basis.T()
    fam: dict = {}
    residuals: dict = {}
    depths = basis.depths()
    inner = (depths >= 1) & (depths <= depth - 1)
    for e in gph.edges:
        proj = basis.pi(tr.CylinderFunction.indicator(gph.path_point((e.name,))))
        s = proj @ (float(pot.edge_weight(e.name)) ** -0.5 * t)
        fam[e.name] = s
        plain = _prepend_matrix(basis, e.name)
        residuals[f"shift:{e.name}"] = float(np.abs(s - plain).max())

    projs = {
        v: basis.pi(tr.CylinderFunction.indicator(gph.vertex_point(v)))
        for v in gph.vertices
    }

    block = np.ix_(inner, inner)
    for e in gph.edges:
        s = fam[e.name]
        src = projs[e.src]
        residuals[f"source:{e.name}"] = float(
            np.abs((s.T @ s - src)[block]).max()
        )
        under = s @ s.T - projs[e.rng]
        residuals[f"range:{e.name}"] = float(np.maximum(under[block], 0.0).max())
    for v in gph.vertices:
        acc = np.zeros((basis.dim, basis.dim))
        for e in gph.edges:
            if e.rng == v:
                acc += fam[e.name] @ fam[e.name].T
        residuals[f"vertex:{v}"] = float(np.abs((acc - projs[v])[block]).max())
    names = sorted(e.name for e in gph.edges)
    for i, e1 in enumerate(names):
        for e2 in names[i + 1 :]:
            residuals[f"orthogonal:{e1},{e2}"] = float(
                np.abs(fam[e1].T @ fam[e2]).max()
            )
    return GeneratorFamily(basis, fam, projs, residuals, inner)
