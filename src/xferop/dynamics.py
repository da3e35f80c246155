"""Exact dynamics of piecewise-affine interval maps and boundary-path shifts.

Two backends share one operation set.  The interval backend models a partial
map ``phi`` given by finitely many affine branches on a compact union of
rational intervals; the graph backend models the left shift on the boundary
path space of a finite directed graph, truncated to cylinders of a bounded
word length.  Everything here is computed in exact rational arithmetic.

The backend is the type of the map.  ``PartialSystem.map`` holds an
``IntervalSystem`` or a ``GraphSystem``, and both answer one protocol:

- points: ``phi(x)`` steps forward (raising ``OutOfDomain`` off the
  domain), ``fiber(y)`` lists the exact preimages of ``y`` in order and
  ``point(x)`` coerces an argument to a point (``frac`` on intervals, the
  identity on graphs).  ``point_doc(x)`` writes a point as a JSON object
  (``{"point": "1/3"}``, ``{"word": ["e", "f"]}`` or ``{"vertex": "v"}``) and
  ``point_from_doc(doc)`` reads it back.  Points of one backend are
  totally ordered: rationals by value, path points by
  ``PathPoint.sort_key``, so ``sorted`` works on either.
- the point protocol of the command line: ``parse_point(text)`` reads a
  point (``1/3``; ``@v`` or ``e.f``) and ``point_text(x)`` writes it back;
  an interval point outside the space is refused, on the command line and
  in a candidate file alike.  ``default_samples()`` and
  ``default_anchor(reg)`` pick points when none are given (``reg`` is the
  regular region), ``restricted(reg)`` cuts the map to the regular region
  and returns it with a note on the cut, and ``summary()`` is the one-line
  shape of the map.
- open sets: ``IntervalSet`` and ``CylinderSet`` share ``union``,
  ``intersection``, ``intersects``, ``issubset``, ``closure``,
  ``is_open_in``, ``==``, ``is_empty`` and ``sample_points()``;
  ``noted(text)`` gives a set that prints ``text`` after it (a graph set
  only: interval sets print exact endpoints).  The maps carry sets with
  ``image_of`` and ``preimage_of`` and hold the whole space as ``space``
  and the domain of the map as ``delta``.

The weight is typed like the map, and ``value(x)`` is the weight of a point
on either; ``value_or_zero(x)`` extends it by zero off the domain.  An
``IntervalPotential`` holds affine pieces plus point overrides, and
``breakpoints()`` gives the piece ends and override points where it can
jump; a ``GraphPotential`` holds one positive weight per edge.  Both carry
``backend`` and answer ``constant_value()`` and ``positive_part(within)``;
``Potential`` names either.

So the set-valued operations (``iterate_domain``, ``essential_domain``,
``spectra.positive_iterate``, ``spectra.level_space``) run one code path
for both backends.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import (
    DepthExceeded,
    OutOfDomain,
    ParseError,
    ValidationError,
)
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
# interval backend
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineBranch:
    """One injective affine branch ``x -> slope*x + intercept`` on ``domain``."""

    domain: RationalInterval
    slope: Fraction
    intercept: Fraction

    def __post_init__(self):
        object.__setattr__(self, "slope", frac(self.slope))
        object.__setattr__(self, "intercept", frac(self.intercept))
        if self.slope == 0:
            raise ValidationError("branch slope must be nonzero")

    def value(self, x: Rationalish) -> Fraction:
        return self.slope * frac(x) + self.intercept

    def inverse_value(self, y: Rationalish) -> Fraction:
        return (frac(y) - self.intercept) / self.slope

    def image(self) -> RationalInterval:
        return self.domain.affine_image(self.slope, self.intercept)

    def image_of(self, s: IntervalSet) -> IntervalSet:
        pieces = []
        for iv in s.intersection(IntervalSet.of(self.domain)).intervals:
            pieces.append(iv.affine_image(self.slope, self.intercept))
        return IntervalSet(pieces)

    def inverse_image(self, iv: RationalInterval) -> RationalInterval:
        """The interval the affine map carries onto ``iv``, domain ignored."""
        return iv.affine_image(1 / self.slope, -self.intercept / self.slope)

    def preimage_of(self, s: IntervalSet) -> IntervalSet:
        inv = IntervalSet(self.inverse_image(iv) for iv in s.intervals)
        return inv.intersection(IntervalSet.of(self.domain))


@dataclass(frozen=True)
class Germ:
    """A one-sided branch germ accumulating at ``point`` from ``side``."""

    branch_index: int
    point: Fraction
    side: int  # -1: domain points just below, +1: just above
    limit: Fraction  # extended branch value at the point


class IntervalSystem:
    """A partial map on a compact union of rational intervals.

    Construction enforces the structural invariants: branch domains sit in
    the space with pairwise disjoint interiors, overlapping endpoints agree,
    and every branch image lands back in the space.  Openness of the domain
    union is computed and reported, not assumed.
    """

    backend = "interval"

    def __init__(self, space: IntervalSet, branches: Sequence[AffineBranch]):
        if space.is_empty:
            raise ValidationError("space must be nonempty")
        for iv in space.intervals:
            if not (iv.lo_closed and iv.hi_closed):
                raise ValidationError(f"space must be compact, got component {iv}")
        branches = tuple(branches)
        if not branches:
            raise ValidationError("at least one branch is required")
        for i, b in enumerate(branches):
            if not IntervalSet.of(b.domain).issubset(space):
                raise ValidationError(f"branch {i} domain {b.domain} leaves the space")
            if not IntervalSet.of(b.image()).issubset(space):
                raise ValidationError(f"branch {i} image {b.image()} leaves the space")
        for i, j in itertools.combinations(range(len(branches)), 2):
            bi, bj = branches[i], branches[j]
            inter = bi.domain.intersection(bj.domain)
            if inter is None:
                continue
            if not inter.is_point:
                raise ValidationError(f"branches {i} and {j} overlap on {inter}")
            x0 = inter.lo
            if bi.value(x0) != bj.value(x0):
                raise ValidationError(
                    f"branches {i} and {j} disagree at shared point {frac_str(x0)}"
                )
        self.space = space
        self.branches = branches
        self.delta = IntervalSet(b.domain for b in branches)
        self.delta_open = self.delta.is_open_in(space)

    # -- pointwise map -----------------------------------------------------

    def phi(self, x: Rationalish) -> Fraction:
        x = frac(x)
        for b in self.branches:
            if b.domain.contains(x):
                return b.value(x)
        raise OutOfDomain(x, 0)

    def fiber(self, y: Rationalish) -> tuple[Fraction, ...]:
        """All exact solutions of phi(x) = y, deduplicated and sorted."""
        y = frac(y)
        out = set()
        for b in self.branches:
            x = b.inverse_value(y)
            if b.domain.contains(x):
                out.add(x)
        return tuple(sorted(out))

    def point(self, x: Rationalish) -> Fraction:
        return frac(x)

    def point_doc(self, x: Fraction) -> dict:
        return {"point": frac_str(x)}

    def point_from_doc(self, doc: dict) -> Fraction:
        return self._in_space(frac(doc["point"]))

    def parse_point(self, text: str) -> Fraction:
        """A rational of the space, written ``p/q``, an integer or a decimal."""
        try:
            x = frac(text)
        except ValidationError:
            raise ParseError(f"bad rational point {text!r}") from None
        return self._in_space(x)

    def point_text(self, x: Fraction) -> str:
        return frac_str(x)

    def _in_space(self, x: Fraction) -> Fraction:
        if not self.space.contains(x):
            raise ParseError(f"point {frac_str(x)} lies outside the space {self.space}")
        return x

    def default_samples(self) -> list[Fraction]:
        """The ends and midpoint of every component of the space."""
        return sorted({x for iv in self.space.intervals for x in (iv.lo, iv.midpoint(), iv.hi)})

    def default_anchor(self, reg: IntervalSet) -> Fraction:
        """The midpoint of the first component of ``reg`` with an interior."""
        for iv in reg.intervals:
            if not iv.is_point:
                return iv.midpoint()
        raise ValidationError("regular region has no interior; pass --anchor explicitly")

    def restricted(self, reg: IntervalSet) -> tuple["IntervalSystem", str]:
        """The map with every branch domain cut to ``reg``, and a note on the cut."""
        branches = [
            AffineBranch(iv, b.slope, b.intercept)
            for b in self.branches
            for iv in reg.intersection(IntervalSet.of(b.domain)).intervals
            if not iv.is_point
        ]
        return IntervalSystem(self.space, branches), f"branch domains cut to {reg}"

    def summary(self) -> str:
        return f"branches: {len(self.branches)}"

    # -- set dynamics --------------------------------------------------------

    def image_of(self, s: IntervalSet) -> IntervalSet:
        out = IntervalSet.empty()
        for b in self.branches:
            out = out.union(b.image_of(s))
        return out

    def preimage_of(self, s: IntervalSet) -> IntervalSet:
        out = IntervalSet.empty()
        for b in self.branches:
            out = out.union(b.preimage_of(s))
        return out

    # -- germs ---------------------------------------------------------------

    def germs_at(self, x0: Rationalish) -> tuple[Germ, ...]:
        """Branch germs accumulating at x0, at most one per side.

        Accumulation, not membership: the closure of a half-open domain
        still carries a germ at the open end.
        """
        x0 = frac(x0)
        out = []
        for i, b in enumerate(self.branches):
            d = b.domain
            if d.is_point:
                continue
            if d.lo < x0 <= d.hi:
                out.append(Germ(i, x0, -1, b.value(x0)))
            if d.lo <= x0 < d.hi:
                out.append(Germ(i, x0, +1, b.value(x0)))
        return tuple(sorted(out, key=lambda g: (g.side, g.branch_index)))

    def critical_points(self) -> tuple[Fraction, ...]:
        pts = set()
        for b in self.branches:
            pts.add(b.domain.lo)
            pts.add(b.domain.hi)
        return tuple(sorted(pts))


# ---------------------------------------------------------------------------
# graph backend
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphEdge:
    """Directed edge; paths read ``m1 m2 ...`` with s(m_i) = r(m_{i+1})."""

    name: str
    src: str
    rng: str


@dataclass(frozen=True)
class PathPoint:
    """A truncated point of the boundary path space.

    ``word`` lists the first edges of the path; the point stands for the
    cylinder of all boundary paths extending the word at the far end.  When
    the end vertex admits no continuation the cylinder is a single finite
    boundary path and the point is exact.  ``rng`` caches the range vertex
    (of the first edge, or the vertex itself for the empty word) so points
    are self-describing.
    """

    word: tuple[str, ...]
    end: str  # s(last edge), or the vertex itself for the empty word
    rng: str  # r(first edge), or the vertex itself for the empty word

    def __len__(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return ("".join(self.word) or "()") + "@" + self.end

    def sort_key(self):
        return (len(self.word), self.word, self.end)

    def __lt__(self, other: "PathPoint") -> bool:
        return self.sort_key() < other.sort_key()

    def contains(self, p: "PathPoint") -> bool:
        """Whether the cylinder of ``p`` lies inside the cylinder of this point.

        A vertex cylinder holds exactly the paths whose range is that vertex.
        """
        if not self.word:
            return p.rng == self.rng
        return p.word[: len(self.word)] == self.word


class CylinderSet:
    """Finite union of cylinders of a graph's boundary path space.

    Members are kept sorted by ``PathPoint.sort_key`` with none inside
    another.  Two cylinders are nested or disjoint, and a cylinder whose end
    vertex has continuations is the union of its children, so one set can
    have several such forms: ``==`` is inclusion both ways.

    Members are indexed by word length, each by its word (or, for a vertex
    cylinder, its vertex): a cylinder lies in a member exactly when its
    prefix of a held length is held, so inclusion is one hash lookup per
    member length, not a scan of members.
    ``note`` is printed after the set; ``==`` ignores it and every
    operation drops it.
    """

    __slots__ = ("graph", "cylinders", "note", "_keys", "_inside")

    def __init__(self, graph: "GraphSystem", cylinders: Iterable[PathPoint] = (), note: str = ""):
        out: list[PathPoint] = []
        keys: dict[int, set] = {}
        # a member that contains c sorts before c, so it is already kept
        for c in sorted(cylinders, key=PathPoint.sort_key):
            if not _held(c, keys):
                out.append(c)
                keys.setdefault(len(c.word), set()).add(c.word or c.rng)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "cylinders", tuple(out))
        object.__setattr__(self, "note", note)
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_inside", None)

    def __setattr__(self, name, value):
        raise AttributeError("CylinderSet is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, CylinderSet) and self.issubset(other) and other.issubset(self)

    def __iter__(self):
        return iter(self.cylinders)

    def __len__(self) -> int:
        return len(self.cylinders)

    @property
    def is_empty(self) -> bool:
        return not self.cylinders

    def __str__(self) -> str:
        body = "{" + ", ".join(str(c) for c in self.cylinders) + "}"
        return body + (f"  ({self.note})" if self.note else "")

    __repr__ = __str__

    def noted(self, text: str) -> "CylinderSet":
        """The same set, printed with ``text`` after it."""
        return CylinderSet(self.graph, self.cylinders, text)

    def sample_points(self) -> tuple[PathPoint, ...]:
        return self.cylinders

    def union(self, other: "CylinderSet") -> "CylinderSet":
        return CylinderSet(self.graph, self.cylinders + other.cylinders)

    def intersection(self, other: "CylinderSet") -> "CylinderSet":
        """Of two nested cylinders the inner one; disjoint ones drop out."""
        keep = [a for a in self.cylinders if _held(a, other._keys)]
        keep += [b for b in other.cylinders if _held(b, self._keys)]
        return CylinderSet(self.graph, keep)

    def intersects(self, other: "CylinderSet") -> bool:
        return not self.intersection(other).is_empty

    def issubset(self, other: "CylinderSet") -> bool:
        return all(other._covers(c) for c in self.cylinders)

    def closure(self) -> "CylinderSet":
        """Cylinders are clopen, so a finite union of them is closed."""
        return self.noted("")

    def is_open_in(self, space: "CylinderSet") -> bool:
        """Cylinders are clopen, so a finite union of them is open."""
        return True

    def _covers(self, c: PathPoint) -> bool:
        """Whether a member contains ``c``, or members lie inside ``c`` and
        cover each of its children."""
        if _held(c, self._keys):
            return True
        if self._inside is None:
            # the keys of every cylinder that contains a member
            inside = {b.rng for b in self.cylinders}
            inside.update(b.word[:k] for b in self.cylinders for k in range(1, len(b.word)))
            object.__setattr__(self, "_inside", inside)
        if (c.word or c.rng) not in self._inside:
            return False  # every member is disjoint from c
        # a member strictly inside c extends it, so c has children
        return all(self._covers(k) for k in self.graph.children(c))


def _held(c: PathPoint, keys: dict[int, set]) -> bool:
    """Whether a member indexed in ``keys`` contains ``c``: a vertex member
    holds ``c.rng``, a word member of length k the prefix ``c.word[:k]``
    (a shorter word is never held at length k)."""
    for k, held in keys.items():
        if (c.word[:k] if k else c.rng) in held:
            return True
    return False


class GraphSystem:
    """Left shift on the boundary path space of a finite graph."""

    backend = "graph"

    def __init__(self, vertices: Sequence[str], edges: Sequence[GraphEdge], truncation_depth: int = 8):
        vertices = tuple(vertices)
        edges = tuple(edges)
        if not vertices:
            raise ValidationError("graph needs at least one vertex")
        names = [e.name for e in edges]
        if len(set(names)) != len(names):
            raise ValidationError("edge names must be distinct")
        vs = set(vertices)
        for e in edges:
            if e.src not in vs or e.rng not in vs:
                raise ValidationError(f"edge {e.name} touches unknown vertex")
        if truncation_depth < 1:
            raise ValidationError("truncation depth must be positive")
        self.vertices = vertices
        self.edges = edges
        self.truncation_depth = truncation_depth
        self.edge_by_name = {e.name: e for e in edges}
        self.space = CylinderSet(self, (PathPoint((), v, v) for v in vertices))
        self.delta = self.preimage_of(self.space)

    # continuations extend a path at its far end; prepends grow the fiber
    def continuations(self, v: str) -> tuple[GraphEdge, ...]:
        return tuple(e for e in self.edges if e.rng == v)

    def prependable(self, v: str) -> tuple[GraphEdge, ...]:
        return tuple(e for e in self.edges if e.src == v)

    def is_terminal(self, v: str) -> bool:
        return not self.continuations(v)

    # -- points ------------------------------------------------------------

    def vertex_point(self, v: str) -> PathPoint:
        if v not in self.vertices:
            raise ValidationError(f"unknown vertex {v}")
        return PathPoint((), v, v)

    def path_point(self, word: Sequence[str]) -> PathPoint:
        word = tuple(word)
        if not word:
            raise ValidationError("use vertex_point for the empty word")
        prev = None
        for name in word:
            e = self.edge_by_name.get(name)
            if e is None:
                raise ValidationError(f"unknown edge {name}")
            if prev is not None and prev.src != e.rng:
                raise ValidationError(f"word breaks at {name}: {prev.src} != {e.rng}")
            prev = e
        return PathPoint(word, prev.src, self.edge_by_name[word[0]].rng)

    def is_exact(self, p: PathPoint) -> bool:
        """True when the cylinder of p is a single finite boundary path."""
        return self.is_terminal(p.end)

    def is_singleton(self, p: PathPoint) -> bool:
        """True when exactly one boundary path extends p."""
        v, seen = p.end, set()
        while True:
            cont = self.continuations(v)
            if not cont:
                return True
            if len(cont) > 1:
                return False
            v = cont[0].src
            if v in seen:
                return True
            seen.add(v)

    def phi(self, p: PathPoint) -> PathPoint:
        """The left shift; a vertex cylinder has no first edge to drop."""
        if not p.word:
            raise OutOfDomain(p, 0)
        rest = p.word[1:]
        rng = self.edge_by_name[rest[0]].rng if rest else p.end
        return PathPoint(rest, p.end, rng)

    def fiber(self, p: PathPoint) -> tuple[PathPoint, ...]:
        return tuple(
            PathPoint((e.name,) + p.word, p.end, e.rng)
            for e in sorted(self.prependable(p.rng), key=lambda e: e.name)
        )

    def point(self, p: PathPoint) -> PathPoint:
        return p

    def point_doc(self, p: PathPoint) -> dict:
        return {"word": list(p.word)} if p.word else {"vertex": p.end}

    def point_from_doc(self, doc: dict) -> PathPoint:
        if "vertex" in doc:
            return self.vertex_point(doc["vertex"])
        return self.path_point(tuple(doc["word"]))

    def parse_point(self, text: str) -> PathPoint:
        """``@v`` for the cylinder of vertex v, else edge names joined by ``.`` or ``,``."""
        t = text.strip()
        if t.startswith("@"):
            return self.vertex_point(t[1:])
        word = tuple(p for p in t.replace(",", ".").split(".") if p)
        if not word:
            raise ParseError(f"bad path point {text!r}")
        return self.path_point(word)

    def point_text(self, p: PathPoint) -> str:
        return ".".join(p.word) if p.word else f"@{p.end}"

    def default_samples(self) -> list[PathPoint]:
        return list(self.words(1))

    def default_anchor(self, reg: CylinderSet) -> PathPoint:
        """The first word of length two, else of length one; ``reg`` is the
        whole domain on a graph, so it is not consulted."""
        # pullbacks along the map produce length-two cylinders, so the tree
        # must start at least that deep for them to evaluate on its nodes
        for n in (2, 1):
            words = self.words(n)
            if words:
                return words[0]
        raise ValidationError("graph admits no paths; pass --anchor explicitly")

    def restricted(self, reg: CylinderSet) -> tuple["GraphSystem", str]:
        """Every edge weight is positive, so every point is already regular
        and the map is its own restriction."""
        return self, "dropped edges: none"

    def summary(self) -> str:
        return f"vertices: {len(self.vertices)}; edges: {len(self.edges)}"

    def children(self, p: PathPoint) -> tuple[PathPoint, ...]:
        """The cylinders one edge longer; they partition the cylinder of p
        unless its end vertex admits no continuation."""
        return tuple(
            PathPoint(p.word + (e.name,), e.src, p.rng)
            for e in sorted(self.continuations(p.end), key=lambda e: e.name)
        )

    # -- set dynamics --------------------------------------------------------

    def image_of(self, s: CylinderSet) -> CylinderSet:
        """Shift image; a vertex cylinder is split into its children first."""
        parts = (k for c in s for k in (self.children(c) if not c.word else (c,)))
        return CylinderSet(self, (self.phi(k) for k in parts))

    def preimage_of(self, s: CylinderSet) -> CylinderSet:
        return CylinderSet(self, (q for c in s for q in self.fiber(c)))

    def words(self, n: int) -> tuple[PathPoint, ...]:
        """All admissible words of length exactly n, as cylinder points."""
        if n == 0:
            return tuple(self.vertex_point(v) for v in self.vertices)
        level = [self.path_point((e.name,)) for e in self.edges]
        for _ in range(n - 1):
            level = [k for p in level for k in self.children(p)]
        return tuple(sorted(level, key=PathPoint.sort_key))

    def atoms(self, depth: int) -> tuple[PathPoint, ...]:
        """Partition of the boundary space at a word-length resolution.

        Atoms are the admissible length-``depth`` cylinders plus the finite
        boundary paths that stop earlier.
        """
        out = list(self.words(depth))
        for n in range(depth):
            for p in self.words(n):
                if self.is_exact(p):
                    out.append(p)
        return tuple(sorted(out, key=PathPoint.sort_key))


# ---------------------------------------------------------------------------
# wrapper, potential, reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartialSystem:
    """One partial dynamical system plus its iteration budget.

    ``map`` is an ``IntervalSystem`` or a ``GraphSystem``; its class names
    the backend.  ``ival`` and ``gph`` hand it out to backend-only code.
    """

    map: Union[IntervalSystem, GraphSystem]
    depth_bound: int = 24
    name: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.map, (IntervalSystem, GraphSystem)):
            raise ValidationError(f"unknown map type {type(self.map).__name__}")
        if self.depth_bound < 1:
            raise ValidationError("depth bound must be positive")

    @property
    def backend(self) -> str:
        return self.map.backend

    @property
    def ival(self) -> IntervalSystem:
        if not isinstance(self.map, IntervalSystem):
            raise ValidationError("operation needs the interval backend")
        return self.map

    @property
    def gph(self) -> GraphSystem:
        if not isinstance(self.map, GraphSystem):
            raise ValidationError("operation needs the graph backend")
        return self.map

    def check_depth(self, n: int):
        if n > self.depth_bound:
            raise DepthExceeded(n, self.depth_bound)

    def point(self, x) -> Point:
        """A point of this backend: path points as given, numbers made exact."""
        return self.map.point(x)


Point = Union[Fraction, PathPoint]


@dataclass(frozen=True)
class IntervalPotential:
    """Weight on the interval backend.

    Finitely many affine pieces ``(interval, slope, intercept)`` plus
    isolated point overrides ``(point, value)``.  ``allow_negative`` relaxes
    the sign constraints so the same container can carry signed energies.
    """

    backend = "interval"

    pieces: tuple[tuple[RationalInterval, Fraction, Fraction], ...]
    overrides: tuple[tuple[Fraction, Fraction], ...] = ()
    allow_negative: bool = False

    def __post_init__(self):
        pieces = tuple((iv, frac(m), frac(c)) for iv, m, c in self.pieces)
        overrides = tuple((frac(x), frac(v)) for x, v in self.overrides)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "overrides", overrides)
        override_pts = {x for x, _ in overrides}
        if not self.allow_negative:
            for iv, m, c in pieces:
                for end in (iv.lo, iv.hi):
                    if m * end + c < 0:
                        raise ValidationError(f"piece {iv} takes a negative value")
        for (iva, ma, ca), (ivb, mb, cb) in itertools.combinations(pieces, 2):
            inter = iva.intersection(ivb)
            if inter is None:
                continue
            if not inter.is_point:
                raise ValidationError(f"pieces overlap on {inter}")
            x0 = inter.lo
            if ma * x0 + ca != mb * x0 + cb and x0 not in override_pts:
                raise ValidationError(
                    f"pieces disagree at {frac_str(x0)} without an override"
                )
        if len(override_pts) != len(overrides):
            raise ValidationError("duplicate override points")
        for x, v in overrides:
            if v < 0 and not self.allow_negative:
                raise ValidationError(f"override at {frac_str(x)} is negative")
            if not any(iv.contains(x) for iv, _, _ in pieces):
                raise ValidationError(f"override at {frac_str(x)} lies outside all pieces")

    def _lookup(self, x: Fraction) -> Optional[Fraction]:
        """The override at x, else the first piece holding x, else None.

        Construction refuses touching pieces that disagree where no override
        covers the point, so the first piece is the value.
        """
        for p, v in self.overrides:
            if p == x:
                return v
        for iv, m, c in self.pieces:
            if iv.contains(x):
                return m * x + c
        return None

    def value(self, x: Rationalish) -> Fraction:
        x = frac(x)
        v = self._lookup(x)
        if v is None:
            raise ValidationError(f"potential undefined at {frac_str(x)}")
        return v

    def value_or_zero(self, x: Rationalish) -> Fraction:
        """The weight at x, or zero off the domain (where no piece holds x)."""
        v = self._lookup(frac(x))
        return Q(0) if v is None else v

    def one_sided_limit(self, x: Rationalish, side: int) -> Optional[Fraction]:
        """Limit of the piece values from one side; overrides do not matter."""
        x = frac(x)
        for iv, m, c in self.pieces:
            if iv.is_point:
                continue
            if side > 0 and iv.lo <= x < iv.hi:
                return m * x + c
            if side < 0 and iv.lo < x <= iv.hi:
                return m * x + c
        return None

    def breakpoints(self) -> set[Fraction]:
        """Piece endpoints and override points: the only places where the
        weight can jump or take an isolated value."""
        pts = {x for x, _ in self.overrides}
        for iv, _, _ in self.pieces:
            pts.update((iv.lo, iv.hi))
        return pts

    def coverage(self) -> IntervalSet:
        return IntervalSet(iv for iv, _, _ in self.pieces)

    def positive_part(self, within: IntervalSet) -> IntervalSet:
        """The part of ``within`` where the weight is not zero."""
        return within.difference(self.zero_set(within))

    def zero_set(self, within: IntervalSet) -> IntervalSet:
        """Exact set where the potential vanishes, inside ``within``."""
        zero = IntervalSet.empty()
        for iv, m, c in self.pieces:
            if m == 0:
                if c == 0:
                    zero = zero.union(IntervalSet.of(iv))
            else:
                root = -c / m
                if iv.contains(root):
                    zero = zero.union(IntervalSet.point(root))
        override_pts = IntervalSet.points(x for x, _ in self.overrides)
        zero = zero.difference(override_pts)
        zero = zero.union(IntervalSet.points(x for x, v in self.overrides if v == 0))
        return zero.intersection(within)

    def constant_value(self) -> Optional[Fraction]:
        """The single value when the weight is constant, else None."""
        vals = {v for _, v in self.overrides}
        for _, m, c in self.pieces:
            if m != 0:
                return None
            vals.add(c)
        return vals.pop() if len(vals) == 1 else None


@dataclass(frozen=True)
class GraphPotential:
    """Weight on the graph backend: one weight per edge.

    The weight of a path is the weight of its first edge.  Positivity is the
    weight invariant: every edge weight is > 0, so the whole domain of the
    shift is regular.  ``allow_negative`` lifts it only so that the same
    container can carry signed energies.
    """

    backend = "graph"

    weights: tuple[tuple[str, Fraction], ...]
    allow_negative: bool = False

    def __post_init__(self):
        weights = tuple((e, frac(w)) for e, w in self.weights)
        object.__setattr__(self, "weights", weights)
        if not self.allow_negative:
            for e, w in weights:
                if w <= 0:
                    raise ValidationError(f"edge weight for {e} must be positive")

    def weight_map(self) -> dict[str, Fraction]:
        return dict(self.weights)

    def check_edges(self, gph: GraphSystem) -> None:
        """Refuse a table that misses an edge of ``gph`` or names one it lacks."""
        named = {e for e, _ in self.weights}
        for e in gph.edges:
            if e.name not in named:
                raise ValidationError(f"edge {e.name} has no weight")
        for e, _ in self.weights:
            if e not in gph.edge_by_name:
                raise ValidationError(f"weight names unknown edge {e}")

    def value(self, p: PathPoint) -> Fraction:
        """The weight of a path: the weight of its first edge."""
        if not p.word:
            raise OutOfDomain(p, 0)
        return self.edge_weight(p.word[0])

    def value_or_zero(self, p: PathPoint) -> Fraction:
        """The weight of a path, or zero off the domain (at a vertex cylinder)."""
        return self.edge_weight(p.word[0]) if p.word else Q(0)

    def edge_weight(self, name: str) -> Fraction:
        for e, w in self.weights:
            if e == name:
                return w
        raise ValidationError(f"no weight for edge {name}")

    def positive_part(self, within: CylinderSet) -> CylinderSet:
        """Every edge weight is positive, so all of ``within``."""
        return within

    def constant_value(self) -> Optional[Fraction]:
        """The single value when the weight is constant, else None."""
        vals = {w for _, w in self.weights}
        return vals.pop() if len(vals) == 1 else None


Potential = Union[IntervalPotential, GraphPotential]


@dataclass(frozen=True)
class IrregularPoint:
    point: Point
    reason: str  # primary reason
    reasons: tuple[str, ...] = ()


@dataclass(frozen=True)
class RegionReport:
    """Where the weight is positive and where the data is regular."""

    delta: object
    delta_pos: object
    delta_reg: object
    irregular_points: tuple[IrregularPoint, ...]
    delta_open: bool
    notes: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def iterate_domain(system: PartialSystem, n: int):
    """Exact n-step domain: all points admitting n forward steps."""
    if n < 0:
        raise ValidationError("n must be nonnegative")
    system.check_depth(n)
    f = system.map
    current = f.space
    for _ in range(n):
        current = f.preimage_of(current)
    return current.noted(f"paths of length >= {n}")


def image_iter(f: Union[IntervalSystem, GraphSystem], s, n: int):
    """The n-step image of the open set s under the map f."""
    for _ in range(n):
        s = f.image_of(s)
    return s


def preimages(
    system: PartialSystem,
    pot: Potential,
    y: Point,
    n: int,
    drop_zero: bool = False,
) -> tuple[tuple[Point, Fraction], ...]:
    """The n-step fiber of y with exact cocycle weights.

    Weights multiply along the forward orbit: a returned pair ``(x, w)``
    satisfies ``phi^n(x) = y`` and ``w = rho_n(x)``.
    """
    if n < 0:
        raise ValidationError("n must be nonnegative")
    system.check_depth(n)
    f = system.map
    level: list[tuple[Point, Fraction]] = [(f.point(y), Q(1))]
    for _ in range(n):
        nxt = []
        for z, w in level:
            for x in f.fiber(z):
                nxt.append((x, pot.value(x) * w))
        level = nxt
    if drop_zero:
        level = [(x, w) for x, w in level if w != 0]
    return tuple(sorted(level, key=lambda t: t[0]))


def cocycle(system: PartialSystem, pot: Potential, n: int, x: Point) -> Fraction:
    """Product of weights along the first n forward steps of x."""
    if n < 0:
        raise ValidationError("n must be nonnegative")
    system.check_depth(n)
    out = Q(1)
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


def orbit(system: PartialSystem, x: Point, n: int) -> tuple[Point, ...]:
    """x, phi(x), ..., phi^n(x); raises OutOfDomain when the orbit leaves."""
    f = system.map
    out = [f.point(x)]
    for step in range(n):
        try:
            out.append(f.phi(out[-1]))
        except OutOfDomain:
            raise OutOfDomain(x, step) from None
    return tuple(out)


def orbit_end(system: PartialSystem, x: Point, n: int) -> Optional[Point]:
    """phi^n(x), or None where the orbit leaves the domain first."""
    try:
        return orbit(system, x, n)[-1]
    except OutOfDomain:
        return None


def cocycle_or_none(system: PartialSystem, pot: Potential, n: int, x: Point) -> Optional[Fraction]:
    """rho_n(x), or None where the orbit leaves the domain first."""
    try:
        return cocycle(system, pot, n, x)
    except OutOfDomain:
        return None


# -- regular region ---------------------------------------------------------

_REASON_ORDER = ("zero_potential", "not_locally_injective", "rho_discontinuous")


def regular_set(system: PartialSystem, pot: Potential) -> RegionReport:
    """Classify the domain into positive and regular parts.

    A point is regular when its weight is positive, the weight is continuous
    there, and the map is locally injective there.  On the interval backend
    only finitely many candidate points can fail, and each failure is
    reported with its reasons.
    """
    if system.backend == "graph":
        d = system.gph.delta.noted("all paths of length >= 1")
        return RegionReport(
            delta=d,
            delta_pos=d,
            delta_reg=d,
            irregular_points=(),
            delta_open=True,
            notes=("shift on cylinders is everywhere locally injective",),
        )

    sys_ = system.ival
    space = sys_.space
    delta = sys_.delta
    notes: list[str] = []
    if not sys_.delta_open:
        notes.append("domain union is not open in the space; regular set restricted to its interior")
    cover = pot.coverage()
    if not delta.issubset(cover):
        raise ValidationError(
            f"potential pieces do not cover the domain; missing {delta.difference(cover)}"
        )

    zero = pot.zero_set(delta)
    delta_pos = delta.difference(zero)
    for comp in zero.nondegenerate().intervals:
        notes.append(f"weight vanishes on {comp}")

    candidates = {x for x in pot.breakpoints() | set(sys_.critical_points()) if delta.contains(x)}
    candidates.update(zero.isolated_points())

    irregular: list[IrregularPoint] = []
    bad_points: list[Fraction] = []
    for x in sorted(candidates):
        reasons = []
        if pot.value(x) == 0:
            reasons.append("zero_potential")
        if not _locally_injective(sys_, x):
            reasons.append("not_locally_injective")
        if not _rho_continuous_at(sys_, pot, x):
            reasons.append("rho_discontinuous")
        if reasons:
            reasons.sort(key=_REASON_ORDER.index)
            irregular.append(IrregularPoint(x, reasons[0], tuple(reasons)))
            bad_points.append(x)

    delta_reg = delta_pos.difference(IntervalSet.points(bad_points))
    delta_reg = delta_reg.intersection(delta.interior_in(space))
    if not delta_reg.is_open_in(space):
        # conditions are pointwise-open, so this would indicate a missed candidate
        raise ValidationError("internal: computed regular set is not open")
    return RegionReport(
        delta=delta,
        delta_pos=delta_pos,
        delta_reg=delta_reg,
        irregular_points=tuple(irregular),
        delta_open=sys_.delta_open,
        notes=tuple(notes),
    )


def _locally_injective(sys_: IntervalSystem, x0: Fraction) -> bool:
    germs = sys_.germs_at(x0)
    left = [g for g in germs if g.side < 0]
    right = [g for g in germs if g.side > 0]
    if not left or not right:
        return True
    gl, gr = left[0], right[0]
    if gl.branch_index == gr.branch_index:
        return True
    if gl.limit != gr.limit:
        return True
    ml = sys_.branches[gl.branch_index].slope
    mr = sys_.branches[gr.branch_index].slope
    # equal limits: a fold happens exactly when both sides cover the same
    # side of the common value, i.e. the slopes have opposite signs
    return (ml > 0) == (mr > 0)


def _rho_continuous_at(sys_: IntervalSystem, pot: Potential, x0: Fraction) -> bool:
    v = pot.value(x0)
    for side in (-1, +1):
        if accumulates_at(sys_.delta, x0, side=side):
            lim = pot.one_sided_limit(x0, side)
            if lim is None or lim != v:
                return False
    return True


# -- composite branches -------------------------------------------------------


@dataclass(frozen=True)
class CompositeBranch(AffineBranch):
    """An affine branch of phi^n on one piece of its domain.

    ``chain`` names the branches of phi applied, first to last, and
    ``parent`` is the branch of phi^(n-1) this one extends (None for n = 1),
    so the prefix maps are read off the parents, never re-chained.  The
    affine methods are those of ``AffineBranch``.
    """

    chain: tuple[int, ...] = ()
    parent: Optional[CompositeBranch] = field(default=None, compare=False, repr=False)

    def prefix_maps(self) -> tuple[AffineBranch, ...]:
        """phi^0, ..., phi^(n-1) on domains holding this one: the identity,
        then the parents from phi^1 up."""
        if self.parent is None:
            return (AffineBranch(self.domain, Q(1), Q(0)),)
        return self.parent.prefix_maps() + (self.parent,)


def composite_levels(sys_: IntervalSystem, depth: int) -> Iterator[tuple[CompositeBranch, ...]]:
    """The affine branches of phi^1, ..., phi^depth with exact domains, a level
    at a time.  Level n is built from level n - 1 only when the walk asks for
    it: for each branch of phi^(n-1), for each branch b of phi, the nonempty
    part of its domain that it carries into b's domain."""
    if depth < 1:
        return
    level = tuple(
        CompositeBranch(b.domain, b.slope, b.intercept, (j,)) for j, b in enumerate(sys_.branches)
    )
    yield level
    for _ in range(depth - 1):
        level = tuple(
            CompositeBranch(
                piece,
                b.slope * comp.slope,
                b.slope * comp.intercept + b.intercept,
                comp.chain + (j,),
                comp,
            )
            for comp in level
            for j, b in enumerate(sys_.branches)
            if (piece := comp.domain.intersection(comp.inverse_image(b.domain))) is not None
        )
        yield level


# -- essential domain -----------------------------------------------------------


def essential_domain(system: PartialSystem, depth: int):
    """Intersection of n-step domains with their n-step images, up to depth.

    Returns (set, stabilized, stabilized_at).
    """
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    system.check_depth(depth)
    f = system.map
    dn = f.space
    partial = None
    stabilized_at = None
    for n in range(1, depth + 1):
        dn = f.preimage_of(dn)
        fn = dn.intersection(image_iter(f, dn, n))
        new = fn if partial is None else partial.intersection(fn)
        if partial is not None and new == partial and stabilized_at is None:
            stabilized_at = n - 1
        elif new != partial:
            stabilized_at = None
        partial = new
    return partial, stabilized_at is not None, stabilized_at
