"""JSON descriptions of systems: parsing, canonical serialization, bundles.

A spec document fixes one system, its weight function, and optionally a
signed energy function.  All rationals travel as canonical strings "p/q"
(plain "p" for integers) so documents stay exact and diffable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .dynamics import (
    AffineBranch,
    GraphEdge,
    GraphPotential,
    GraphSystem,
    IntervalSystem,
    PartialSystem,
    PiecewiseAffine,
    Potential,
)
from .errors import ParseError
from .intervals import IntervalSet, RationalInterval, frac, frac_str

BUNDLED = ("tent_std", "tent_half", "doubling", "halving", "loop1", "loops2", "fullshift2")


@dataclass(frozen=True)
class SpecData:
    """One parsed spec: the system, its weight, and an optional energy."""

    name: str
    system: PartialSystem
    potential: Potential
    psi: Optional[Potential] = None
    notes: str = ""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _need(obj: dict, key: str):
    # ``key in obj`` on a number would crash instead of refusing
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object with key {key!r}, got {obj!r}")
    if key not in obj:
        raise ParseError(f"missing key {key!r}")
    return obj[key]


def _need_list(obj: dict, key: str, optional: bool = False) -> list:
    if optional and key not in obj:
        return []
    value = _need(obj, key)
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"{key} must be a list, got {value!r}")
    return value


def _flag(value) -> bool:
    # only JSON true/false: bool("false") would read a typo as closed
    if type(value) is not bool:
        raise ParseError(f"closed flag must be true or false, got {value!r}")
    return value


def _parse_interval(obj) -> RationalInterval:
    try:
        if isinstance(obj, dict):
            lo, hi = _need(obj, "lo"), _need(obj, "hi")
            lo_closed, hi_closed = obj.get("lo_closed", True), obj.get("hi_closed", True)
        else:  # [lo, hi] with optional closed flags
            lo, hi, lo_closed, hi_closed, *_ = list(obj) + [True, True]
        return RationalInterval(frac(lo), frac(hi), _flag(lo_closed), _flag(hi_closed))
    except ParseError:
        raise
    except Exception as e:
        raise ParseError(f"bad interval {obj!r}: {e}") from None


def _need_object(obj: dict, key: str) -> dict:
    # .get and .items on a list or a string would crash instead of refusing
    value = _need(obj, key)
    if not isinstance(value, dict):
        raise ParseError(f"{key} must be an object, got {value!r}")
    return value


def _parse_interval_potential(obj: dict, allow_negative: bool = False) -> PiecewiseAffine:
    pieces = tuple(
        (_parse_interval(_need(p, "interval")), frac(_need(p, "slope")), frac(_need(p, "intercept")))
        for p in _need_list(obj, "pieces", optional=True)
    )
    overrides = tuple(
        (frac(_need(o, "point")), frac(_need(o, "value")))
        for o in _need_list(obj, "overrides", optional=True)
    )
    return PiecewiseAffine(pieces, overrides=overrides, allow_negative=allow_negative)


def _parse_graph_potential(
    doc: dict, key: str, gph: GraphSystem, allow_negative: bool = False
) -> GraphPotential:
    """One value per edge of ``gph``, read from the object ``doc[key]``."""
    obj = _need_object(doc, key)
    weights = tuple(sorted((str(k), frac(v)) for k, v in obj.items()))
    named = {e for e, _ in weights}
    for e in gph.edges:
        if e.name not in named:
            raise ParseError(f"{key} has no value for edge {e.name!r}")
    unknown = sorted(named - gph.edge_by_name.keys())
    if unknown:
        raise ParseError(f"{key} names unknown edge {unknown[0]!r}")
    return GraphPotential(weights, allow_negative=allow_negative)


def parse_spec(doc: dict) -> SpecData:
    """Build the exact model out of a JSON-shaped dict."""
    if not isinstance(doc, dict):
        raise ParseError("spec document must be an object")
    backend = _need(doc, "backend")
    name = str(doc.get("name", "unnamed"))
    notes = str(doc.get("notes", ""))
    depth_bound = doc.get("depth_bound", 24)
    # bool is an int subclass, and JSON true is no depth
    if type(depth_bound) is not int:
        raise ParseError(f"depth_bound must be an integer, got {depth_bound!r}")

    if backend == "interval":
        space = IntervalSet(_parse_interval(iv) for iv in _need_list(doc, "space"))
        branches = []
        for b in _need_list(doc, "branches"):
            branches.append(
                AffineBranch(
                    _parse_interval(_need(b, "domain")),
                    frac(_need(b, "slope")),
                    frac(_need(b, "intercept")),
                )
            )
        try:
            sys_ = IntervalSystem(space, branches)
        except Exception as e:
            raise ParseError(f"bad interval system: {e}") from None
        system = PartialSystem(sys_, depth_bound=depth_bound, name=name)
        potential = _parse_interval_potential(_need_object(doc, "potential"))
        psi = None
        if doc.get("psi") is not None:
            psi = _parse_interval_potential(_need_object(doc, "psi"), allow_negative=True)
        return SpecData(name, system, potential, psi, notes)

    if backend == "graph":
        vertices = tuple(str(v) for v in _need_list(doc, "vertices"))
        edges = tuple(
            GraphEdge(str(_need(e, "name")), str(_need(e, "src")), str(_need(e, "rng")))
            for e in _need_list(doc, "edges")
        )
        truncation_depth = doc.get("truncation_depth", 8)
        if type(truncation_depth) is not int:
            raise ParseError(f"truncation_depth must be an integer, got {truncation_depth!r}")
        try:
            gph = GraphSystem(vertices, edges, truncation_depth)
        except Exception as e:
            raise ParseError(f"bad graph system: {e}") from None
        system = PartialSystem(gph, depth_bound=depth_bound, name=name)
        potential = _parse_graph_potential(doc, "weights", gph)
        psi = None
        if doc.get("psi_weights") is not None:
            psi = _parse_graph_potential(doc, "psi_weights", gph, allow_negative=True)
        return SpecData(name, system, potential, psi, notes)

    raise ParseError(f"unknown backend {backend!r}")


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------


def _dump_interval(iv: RationalInterval) -> dict:
    return {
        "lo": frac_str(iv.lo),
        "hi": frac_str(iv.hi),
        "lo_closed": iv.lo_closed,
        "hi_closed": iv.hi_closed,
    }


def _dump_interval_potential(pot: PiecewiseAffine) -> dict:
    return {
        "pieces": [
            {"interval": _dump_interval(iv), "slope": frac_str(m), "intercept": frac_str(c)}
            for iv, m, c in pot.pieces
        ],
        "overrides": [
            {"point": frac_str(x), "value": frac_str(v)} for x, v in pot.overrides
        ],
    }


def _dump_graph_potential(pot: GraphPotential) -> dict:
    return {e: frac_str(w) for e, w in sorted(pot.weights)}


def serialize_spec(spec: SpecData) -> dict:
    """Canonical JSON-shaped dict; parse(serialize(s)) rebuilds s."""
    doc: dict = {
        "name": spec.name,
        "backend": spec.system.backend,
        "depth_bound": spec.system.depth_bound,
    }
    if spec.system.backend == "interval":
        sys_ = spec.system.ival
        doc["space"] = [_dump_interval(iv) for iv in sys_.space.intervals]
        doc["branches"] = [
            {
                "domain": _dump_interval(b.domain),
                "slope": frac_str(b.slope),
                "intercept": frac_str(b.intercept),
            }
            for b in sys_.branches
        ]
        doc["potential"] = _dump_interval_potential(spec.potential)
        if spec.psi is not None:
            doc["psi"] = _dump_interval_potential(spec.psi)
    else:
        gph = spec.system.gph
        doc["vertices"] = list(gph.vertices)
        doc["edges"] = [{"name": e.name, "src": e.src, "rng": e.rng} for e in gph.edges]
        doc["truncation_depth"] = gph.truncation_depth
        doc["weights"] = _dump_graph_potential(spec.potential)
        if spec.psi is not None:
            doc["psi_weights"] = _dump_graph_potential(spec.psi)
    if spec.notes:
        doc["notes"] = spec.notes
    return doc


def spec_roundtrip(doc: dict) -> bool:
    """True when parse -> serialize -> parse is stable on the document."""
    once = serialize_spec(parse_spec(doc))
    twice = serialize_spec(parse_spec(once))
    return once == twice


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def load_spec(path: str) -> SpecData:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON in {path}: {e}") from None
    return parse_spec(doc)


def bundled(name: str) -> SpecData:
    """Load one of the packaged example systems by name."""
    if name not in BUNDLED:
        raise ParseError(f"no bundled spec {name!r}; have {', '.join(BUNDLED)}")
    text = resources.files("xferop").joinpath("specs", f"{name}.json").read_text("utf-8")
    return parse_spec(json.loads(text))


def resolve(name_or_path: str) -> SpecData:
    """Bundled name first, then a filesystem path."""
    if name_or_path in BUNDLED:
        return bundled(name_or_path)
    return load_spec(name_or_path)
