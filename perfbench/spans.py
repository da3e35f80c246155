"""Traced run: wrap public xferop functions from outside and keep spans.

Wrappers are installed before ``xferop.cli`` is imported, because the CLI
binds some functions at import time (``cli._CHECKS`` holds the verdict
checks).  After wrapping, every ``xferop`` module attribute that still
points at an original function is rebound to its wrapper, so
``from .x import f`` bindings are covered too.

Spans (name, start, end, parent) are appended to flat arrays while the run
executes and analysed once it ends.  A target that no longer exists is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module`` and dotted ``qualname`` inside it.

    ``observe(args, result)`` returns a number added to the counter named
    ``name`` after each traced call (for example the dimension of a basis).
    """

    module: str
    qualname: str
    observe: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


def _cert_seeds(args, result):
    return getattr(getattr(result, "certificate", None), "seeds", 0) or 0


def _basis_dim(args, result):
    return args[0].dim


def _elements(args, result):
    return len(result)


SET_OPS = ("union", "intersection", "difference", "issubset", "__eq__")
VERDICT_CHECKS = (
    "check_top_free", "check_minimal", "check_contracting", "check_one_circuit",
    "verdict_simple", "verdict_purely_infinite",
)
REP_CHECKS = (
    "check_transfer_relation", "check_covariance", "check_commutation",
    "product_check", "gauge_residuals", "e_check", "g_check",
)

# module order is import order: a module is wrapped before the modules that
# import names from it
TARGETS = (
    *(Target("intervals", f"IntervalSet.{m}") for m in SET_OPS),
    Target("intervals", "IntervalSet.contains"),
    Target("intervals", "RationalInterval.intersection"),
    Target("intervals", "RationalInterval.affine_image"),
    Target("intervals", "RationalInterval.contains"),
    Target("dynamics", "IntervalSystem.image_of"),
    Target("dynamics", "IntervalSystem.preimage_of"),
    Target("dynamics", "regular_set"),
    Target("transfer", "TestFunction.value"),
    Target("specfile", "resolve"),
    Target("rep", "OrbitBasis.__init__", _basis_dim),
    *(Target("rep", f) for f in REP_CHECKS),
    Target("spectra", "spectrum_An"),
    Target("spectra", "spectrum_Kn"),
    Target("spectra", "quasi_orbits"),
    Target("verdicts", "check_minimal", _cert_seeds),
    *(Target("verdicts", f) for f in VERDICT_CHECKS if f != "check_minimal"),
    Target("thermo", "solve_conformal"),
    Target("thermo", "conformal_residual"),
    Target("thermo", "kms_battery"),
    Target("groupoid", "build_deaconu", _elements),
    Target("groupoid", "iso_phi_check"),
)
# wrapped after xferop.cli is imported: class attributes are looked up per call
CLI_TARGETS = (Target("cli", "Report.render"),)

CLI_SPAN = "cli.invoke"


class Tracer:
    """Span recorder.  Single-threaded: one open-span stack per process."""

    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """Wrap ``fn``; while ``self.on`` is false the wrapper only forwards."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if observe is not None:
                self.counters[name] = self.counters.get(name, 0) + observe(args, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap each target in place and rebind copies held by xferop modules."""
        swaps = {}
        for t in targets:
            try:
                owner = importlib.import_module(f"xferop.{t.module}")
                *path, attr = t.qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(t.name)
                self.name_id(t.name)
                continue
            wrapped = self.span(t.name, original, t.observe)
            setattr(owner, attr, wrapped)
            if not path:
                swaps[id(original)] = wrapped
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("xferop.") and mod is not None:
                for key, value in list(vars(mod).items()):
                    if id(value) in swaps:
                        setattr(mod, key, swaps[id(value)])

    def arrays(self) -> "Spans":
        return Spans(
            list(self.names),
            np.frombuffer(self.name, dtype=np.int_).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            np.frombuffer(self.parent, dtype=np.int_).copy(),
        )


@dataclass
class Spans:
    """Closed spans as parallel arrays; ``parent`` is -1 for a root."""

    names: list
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def under(self, mask: np.ndarray) -> np.ndarray:
        """Spans that have an ancestor in ``mask``."""
        found = np.zeros(len(self.parent), dtype=bool)
        up = self.parent.copy()
        live = up >= 0
        while live.any():
            found[live] |= mask[up[live]]
            up[live] = self.parent[up[live]]
            live = up >= 0
        return found

    def count(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def busy(self, *names: str) -> float:
        """Wall time inside any of ``names``, nested calls counted once."""
        m = self.mask(*names)
        top = m & ~self.under(m)
        return float((self.end[top] - self.start[top]).sum())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Children may overlap each other; the covered part is the length of
    the union of their intervals, clipped to the parent.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent)
    order = np.lexsort((start, parent))
    order = order[parent[order] >= 0].tolist()
    s, e, par = start.tolist(), end.tolist(), parent.tolist()
    covered = [0.0] * len(s)
    reach = {}  # parent -> right end of its children's intervals merged so far
    for i in order:
        p = par[i]
        lo = max(s[i], s[p], reach.get(p, s[p]))
        hi = min(e[i], e[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return end - start - np.asarray(covered)


def layer_metrics(sp: Spans, counters: dict, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers per traced pass, keyed by metric name: (value, unit)."""
    set_ops = [f"intervals.IntervalSet.{m}" for m in SET_OPS]
    interval_ops = ["intervals.RationalInterval.intersection", "intervals.RationalInterval.affine_image"]
    image, preimage = "dynamics.IntervalSystem.image_of", "dynamics.IntervalSystem.preimage_of"
    minimal, solve = "verdicts.check_minimal", "thermo.solve_conformal"
    seeds = counters.get(minimal, 0)
    in_minimal = sp.mask(image) & sp.under(sp.mask(minimal))
    in_solve = sp.mask(*interval_ops) & sp.under(sp.mask(solve))
    cli_self = self_times(sp.start, sp.end, sp.parent)[sp.mask(CLI_SPAN)].sum()

    def per_pass(v):
        return float(v) / passes

    return {
        "verdicts.minimal_calls": (per_pass(sp.count(minimal)), "count"),
        "verdicts.minimal_s": (per_pass(sp.busy(minimal)), "s"),
        "verdicts.closure_steps_per_seed": (float(in_minimal.sum()) / seeds if seeds else 0.0, "calls/seed"),
        "verdicts.checks_s": (per_pass(sp.busy(*(f"verdicts.{f}" for f in VERDICT_CHECKS))), "s"),
        "dynamics.image_calls": (per_pass(sp.count(image)), "count"),
        "dynamics.preimage_calls": (per_pass(sp.count(preimage)), "count"),
        "dynamics.image_preimage_s": (per_pass(sp.busy(image, preimage)), "s"),
        "dynamics.regular_set_calls": (per_pass(sp.count("dynamics.regular_set")), "count"),
        "dynamics.regular_set_s": (per_pass(sp.busy("dynamics.regular_set")), "s"),
        "intervals.set_ops": (per_pass(sp.count(*set_ops)), "count"),
        "intervals.set_ops_s": (per_pass(sp.busy(*set_ops)), "s"),
        "intervals.interval_ops": (per_pass(sp.count(*interval_ops)), "count"),
        "intervals.interval_ops_s": (per_pass(sp.busy(*interval_ops)), "s"),
        "intervals.contains_calls": (per_pass(sp.count(
            "intervals.IntervalSet.contains", "intervals.RationalInterval.contains")), "count"),
        "thermo.solve_s": (per_pass(sp.busy(solve)), "s"),
        "thermo.solve_interval_ops": (per_pass(in_solve.sum()), "count"),
        "thermo.residual_s": (per_pass(sp.busy("thermo.conformal_residual")), "s"),
        "thermo.kms_battery_s": (per_pass(sp.busy("thermo.kms_battery")), "s"),
        "transfer.value_calls": (per_pass(sp.count("transfer.TestFunction.value")), "count"),
        "specfile.resolve_s": (per_pass(sp.busy("specfile.resolve")), "s"),
        "cli.render_s": (per_pass(sp.busy("cli.Report.render")), "s"),
        "cli.self_s": (per_pass(cli_self), "s"),
        "rep.basis_calls": (per_pass(sp.count("rep.OrbitBasis.__init__")), "count"),
        "rep.basis_dim_sum": (per_pass(counters.get("rep.OrbitBasis.__init__", 0)), "count"),
        "rep.basis_s": (per_pass(sp.busy("rep.OrbitBasis.__init__")), "s"),
        "rep.checks_s": (per_pass(sp.busy(*(f"rep.{f}" for f in REP_CHECKS))), "s"),
        "spectra.s": (per_pass(sp.busy("spectra.spectrum_An", "spectra.spectrum_Kn", "spectra.quasi_orbits")), "s"),
        "groupoid.build_s": (per_pass(sp.busy("groupoid.build_deaconu")), "s"),
        "groupoid.elements": (per_pass(counters.get("groupoid.build_deaconu", 0)), "count"),
        "groupoid.iso_check_s": (per_pass(sp.busy("groupoid.iso_phi_check")), "s"),
    }
