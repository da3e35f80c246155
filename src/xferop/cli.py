"""Command line driver: system reports, relation batteries, certificates.

Every subcommand prints one report whose header echoes the command, a
digest of the resolved input, the seed in play, and library versions, so
a saved report can be traced back to exactly what produced it.  Numeric
tables carry their tolerance and say which indices they were computed on.

Exit codes: 0 success or Holds, 1 Fails, 2 Unknown, 3 unusable input,
4 internal error (a bug: the traceback goes to stderr).

Imports: a user runs one process per command, so start-up is most of a
short command's wall time, and without bytecode caching (for instance
under ``PYTHONDONTWRITEBYTECODE``) every imported module is compiled
again at each start.  So this module loads at import only what resolving
a spec and printing the header need (``dynamics``, ``specfile``,
``transfer``, ``intervals``, ``errors``, ``click`` and numpy) and
``verdicts``, whose checks ``_CHECKS`` binds.  ``thermo``, ``rep``,
``spectra`` and ``groupoid`` are imported inside the commands and helpers
that call them.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import os
import random
import sys
import traceback
from datetime import datetime, timezone
from fractions import Fraction

import click
import numpy as np

from . import __version__
from . import dynamics as dyn
from . import specfile as sf
from . import transfer as tr
from . import verdicts as vd
from .errors import ParseError, ValidationError, XferopError, NoSolution
from .intervals import Q, frac, frac_str

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

# a rejected flag or missing option is an input problem, same as a bad spec
click.UsageError.exit_code = EXIT_INPUT

_STATUS_EXIT = {"Holds": EXIT_HOLDS, "Fails": EXIT_FAILS, "Unknown": EXIT_UNKNOWN}


def _tolerance(ctx, param, value):
    """Refuse a negative or non-finite ``--tol``: NaN would read every residual as a Fail."""
    if value is not None and not (math.isfinite(value) and value >= 0):
        raise click.BadParameter(f"must be a finite number >= 0, got {value!r}")
    return value


def _guarded(fn):
    """Run a command; an input error prints and exits 3, any other
    exception prints its traceback and exits 4, so a crash never reads as
    a verdict.

    Every exit is raised again from here, after the command's frame is
    gone: a caller that keeps the traceback (``CliRunner`` does) then keeps
    none of the command's objects alive.
    """

    @functools.wraps(fn)
    def inner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SystemExit as e:
            code = e.code
        except (XferopError, OSError, json.JSONDecodeError) as e:
            click.echo(f"error: {e}", err=True)
            code = EXIT_INPUT
        except Exception:
            click.echo(f"internal error:\n{traceback.format_exc()}", err=True, nl=False)
            code = EXIT_INTERNAL
        raise SystemExit(code)

    return inner


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _cell(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, Fraction):
        return frac_str(v)
    if isinstance(v, float):
        return format(v, ".12e")
    return str(v)


class Report:
    """Ordered lines and tables with a reproducibility header."""

    def __init__(self, command: str, source: str, digest: str, seed: int = 0):
        self.header = [
            f"command: xferop {command}",
            f"input: {source} sha256:{digest[:16]}",
            f"seed: {seed}",
            f"versions: artifact {__version__}; numpy {np.__version__}; "
            f"python {sys.version_info.major}.{sys.version_info.minor}.{sys.version_info.micro}",
            f"timestamp: {datetime.now(timezone.utc).isoformat(timespec='seconds')}",
        ]
        self.body: list = []

    def line(self, text: str = ""):
        self.body.append(("line", text))

    def warn(self, text: str):
        self.body.append(("line", f"warning: {text}"))

    def table(self, title: str, columns: tuple, rows: list):
        self.body.append(("table", title, tuple(columns), [tuple(r) for r in rows]))

    # rendering

    def _table_text(self, title, columns, rows) -> list[str]:
        grid = [tuple(columns)] + [tuple(_cell(v) for v in row) for row in rows]
        widths = [max(len(r[i]) for r in grid) for i in range(len(columns))]
        out = [title, "-" * len(title)]
        for r in grid:
            out.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
        return out

    @staticmethod
    def _csv_rows(rows) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        for row in rows:
            w.writerow([_cell(v) for v in row])
        return buf.getvalue()

    def render(self, fmt: str = "text") -> str:
        if fmt == "text":
            out = list(self.header) + [""]
            for item in self.body:
                if item[0] == "line":
                    out.append(item[1])
                else:
                    _, title, columns, rows = item
                    out.extend([""] + self._table_text(title, columns, rows) + [""])
            return "\n".join(out).rstrip() + "\n"
        out = [f"# {h}" for h in self.header]
        for item in self.body:
            if item[0] == "line":
                if item[1]:
                    out.append(f"# {item[1]}")
            else:
                _, title, columns, rows = item
                out.append(f"# table: {title}")
                out.append(self._csv_rows([columns] + rows).rstrip())
        return "\n".join(out) + "\n"

    def conclude(self, worst: float, tol: float, fmt: str, out: str | None):
        """End a residual report: print ``worst`` against ``tol``, emit, and
        exit 0 when it is within tolerance, 1 otherwise."""
        self.line(f"max residual: {_cell(worst)}")
        ok = worst <= tol
        self.line(f"within tolerance: {'yes' if ok else 'no'}")
        self.emit(fmt, out)
        raise SystemExit(EXIT_HOLDS if ok else EXIT_FAILS)

    def emit(self, fmt: str, out: str | None):
        text = self.render(fmt)
        click.echo(text, nl=False)
        if out:
            os.makedirs(out, exist_ok=True)
            ext = "txt" if fmt == "text" else "csv"
            with open(os.path.join(out, f"report.{ext}"), "w", encoding="utf-8") as fh:
                fh.write(text)
            for item in self.body:
                if item[0] != "table":
                    continue
                _, title, columns, rows = item
                slug = "".join(c if c.isalnum() else "_" for c in title.lower())
                path = os.path.join(out, f"{slug}.csv")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(self._csv_rows([columns] + rows))


# ---------------------------------------------------------------------------
# shared parsing helpers
# ---------------------------------------------------------------------------


def _resolve(spec_arg: str):
    spec = sf.resolve(spec_arg)
    blob = json.dumps(sf.serialize_spec(spec), sort_keys=True, separators=(",", ":"))
    return spec, hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _anchors_of(system: dyn.PartialSystem, pot: dyn.Potential, args: tuple) -> list:
    """The points named in ``args``, else the map's default anchor alone."""
    if args:
        return [system.map.parse_point(a) for a in args]
    return [system.map.default_anchor(dyn.regular_set(system, pot).delta_reg)]


def _anchor_of(spec: sf.SpecData, anchor_arg: str | None):
    return _anchors_of(spec.system, spec.potential, () if anchor_arg is None else (anchor_arg,))[0]


def _samples_of(spec: sf.SpecData, sample_args: tuple) -> list:
    if not sample_args:
        return spec.system.map.default_samples()
    return [spec.system.map.parse_point(s) for s in sample_args]


def _psi_of(spec: sf.SpecData, psi_arg: str | None):
    """Energy selection: the spec's own energy when present, else a constant."""
    from . import thermo as th

    if psi_arg is None:
        if spec.psi is not None:
            return th.PotentialFunction(spec.system, spec.psi), "spec"
        return th.PotentialFunction.const(spec.system, 1), "one"
    t = psi_arg.strip().lower()
    if t == "spec":
        if spec.psi is None:
            raise ParseError("spec declares no energy; pass a constant instead")
        return th.PotentialFunction(spec.system, spec.psi), "spec"
    if t == "one":
        return th.PotentialFunction.const(spec.system, 1), "one"
    if t == "zero":
        return th.PotentialFunction.const(spec.system, 0), "zero"
    try:
        c = frac(psi_arg)
    except Exception:
        raise ParseError(f"bad energy {psi_arg!r}; use 'one', 'zero', 'spec', or p/q") from None
    return th.PotentialFunction.const(spec.system, c), frac_str(c)


def _battery_fns(handle: tr.TransferHandle, rng: random.Random, size: int):
    if handle.system.backend == "interval":
        from . import thermo as th

        return th._battery_functions(handle, rng, size)
    g = handle.system.gph
    coeffs = (Q(1), Q(1, 2), Q(2, 3))
    # tree nodes can be as short as the anchor word, so stick to length-one
    # cylinders and vertex indicators, which evaluate at every genuine word
    verts = tuple(g.vertex_point(v) for v in g.vertices)
    fns = []
    for i, p in enumerate(g.words(1) + verts):
        fns.append(tr.CylinderFunction.indicator(p, coeffs[i % 3]))
        if len(fns) >= size:
            break
    return fns


def _bracket_of(text: str) -> tuple[float, float]:
    """The ``--bracket`` ends, which must be finite: the bisection takes their midpoints."""
    try:
        lo, hi = (float(p) for p in text.split(","))
    except Exception:
        raise ParseError(f"bad bracket {text!r}; expected 'lo,hi'") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParseError(f"bad bracket {text!r}; both ends must be finite")
    return lo, hi


# ---------------------------------------------------------------------------
# candidate files
# ---------------------------------------------------------------------------


def _measure_from_doc(doc: dict, system: dyn.PartialSystem):
    if not isinstance(doc, dict):
        raise ParseError(f"measure must be an object, got {doc!r}")
    kind = doc.get("type")
    if kind == "ulam":
        mu = tr.UlamMeasure(
            frac(doc["lo"]), frac(doc["hi"]), tuple(frac(d) for d in doc["densities"])
        )
        comps = system.ival.space.intervals
        if len(comps) == 1 and (comps[0].lo, comps[0].hi) != (mu.lo, mu.hi):
            raise ParseError(
                f"measure grid [{frac_str(mu.lo)}, {frac_str(mu.hi)}] "
                f"does not match the space {comps[0]}"
            )
        return mu
    if kind == "atomic":
        named = doc.get("backend", system.backend)
        if named != system.backend:
            raise ParseError(f"measure backend {named!r} does not match the {system.backend} system")
        atoms = [(system.map.point_from_doc(a), frac(a["mass"])) for a in doc["atoms"]]
        return tr.AtomicMeasure(tuple(atoms))
    raise ParseError(f"unknown measure type {kind!r}")


def _load_candidate(path: str, system: dyn.PartialSystem):
    """The ``thermo.KMSCandidate`` in a file: a finite number ``beta`` and a probability measure."""
    from . import thermo as th

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        if isinstance(doc["beta"], bool):  # float(true) would read as 1.0
            raise ValueError(f"beta must be a number, got {json.dumps(doc['beta'])}")
        beta = float(doc["beta"])
        mu = _measure_from_doc(doc["measure"], system)
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad candidate file {path}: {e}") from None
    if not math.isfinite(beta):  # NaN or inf would print NaN residuals and read as Fails
        raise ParseError(f"bad candidate file {path}: beta must be finite, got {beta!r}")
    try:
        return th.KMSCandidate(beta, mu)
    except ValidationError as e:
        raise ParseError(f"bad candidate file {path}: {e}") from None


# ---------------------------------------------------------------------------
# regular restriction
# ---------------------------------------------------------------------------


def _restrict_regular(spec: sf.SpecData) -> tuple[dyn.PartialSystem, str]:
    """The system cut to its regular region, and a one-line note on the cut."""
    system = spec.system
    reg = dyn.regular_set(system, spec.potential).delta_reg
    m, note = system.map.restricted(reg)
    if m is not system.map:
        system = dyn.PartialSystem(m, depth_bound=system.depth_bound, name=spec.name)
    return system, note


# ---------------------------------------------------------------------------
# the command group
# ---------------------------------------------------------------------------


def common_opts(fn):
    fn = click.option(
        "--format", "fmt", type=click.Choice(["text", "csv"]), default="text",
        show_default=True, help="report rendering",
    )(fn)
    fn = click.option(
        "--out", type=click.Path(file_okay=False), default=None,
        help="directory to copy the report and its tables into",
    )(fn)
    fn = click.option(
        "--spec", "spec_arg", required=True, metavar="NAME|PATH",
        help="bundled system name or path to a JSON description",
    )(fn)
    return fn


@click.group()
@click.version_option(__version__, prog_name="xferop")
def main():
    """Inspect weighted branching systems and their operator models."""


@main.command()
@common_opts
@_guarded
def validate(spec_arg, out, fmt):
    """Parse a description, check roundtrip stability and operator validity."""
    spec, digest = _resolve(spec_arg)
    rpt = Report("validate", spec_arg, digest)
    rpt.line(f"name: {spec.name}")
    rpt.line(f"backend: {spec.system.backend}")
    rpt.line(spec.system.map.summary())
    stable = sf.spec_roundtrip(sf.serialize_spec(spec))
    rpt.line(f"roundtrip: {'stable' if stable else 'UNSTABLE'}")
    v = tr.validate(spec.system, spec.potential)
    rpt.line(f"operator norm: {frac_str(v.norm)}")
    if v.defects:
        rows = [
            (frac_str(d.x0), frac_str(d.y0), "below" if d.side < 0 else "above",
             d.kind, frac_str(d.required), frac_str(d.found), d.fatal)
            for d in v.defects
        ]
        rpt.table("defects", ("x0", "y0", "side", "kind", "required", "found", "fatal"), rows)
    for w in v.warnings:
        rpt.warn(w)
    rpt.line(f"valid: {'yes' if v.valid else 'no'}")
    rpt.emit(fmt, out)
    raise SystemExit(EXIT_HOLDS if v.valid and stable else EXIT_INPUT)


@main.command()
@common_opts
@_guarded
def region(spec_arg, out, fmt):
    """Report the domain, positivity region, and regular region."""
    spec, digest = _resolve(spec_arg)
    rr = dyn.regular_set(spec.system, spec.potential)
    rpt = Report("region", spec_arg, digest)
    rpt.line(f"domain: {rr.delta}")
    rpt.line(f"positive: {rr.delta_pos}")
    rpt.line(f"regular: {rr.delta_reg}")
    rpt.line(f"domain open in space: {'yes' if rr.delta_open else 'no'}")
    if rr.irregular_points:
        text = spec.system.map.point_text
        rows = [(text(p.point), p.reason, "; ".join(p.reasons)) for p in rr.irregular_points]
        rpt.table("irregular points", ("point", "reason", "details"), rows)
    for note in rr.notes:
        rpt.line(f"note: {note}")
    rpt.emit(fmt, out)
    raise SystemExit(EXIT_HOLDS)


@main.command()
@common_opts
@click.option("--depth", default=4, show_default=True, help="largest step count to report")
@_guarded
def domain(spec_arg, out, fmt, depth):
    """Tabulate n-step domains and the stabilized essential domain."""
    spec, digest = _resolve(spec_arg)
    rpt = Report("domain", spec_arg, digest)
    rows = [(n, str(dyn.iterate_domain(spec.system, n))) for n in range(1, depth + 1)]
    rpt.table("n-step domains", ("n", "domain"), rows)
    ess, stabilized, at = dyn.essential_domain(spec.system, depth)
    rpt.line(f"essential domain: {ess}")
    rpt.line(f"stabilized: {'yes' if stabilized else 'no'} (level {at})")
    rpt.emit(fmt, out)
    raise SystemExit(EXIT_HOLDS)


@main.command("rep")
@click.argument("mode", type=click.Choice(["orbit", "regular"]))
@common_opts
@click.option("--anchor", default=None, help="base point of the preimage tree")
@click.option("--depth", default=4, show_default=True)
@click.option("--width", default=4, show_default=True, help="shift window for regular mode")
@_guarded
def rep_cmd(mode, spec_arg, out, fmt, anchor, depth, width):
    """Build a matrix model on the preimage tree and report its shape."""
    from . import rep

    spec, digest = _resolve(spec_arg)
    handle = tr.TransferHandle.create(spec.system, spec.potential)
    pt = _anchor_of(spec, anchor)
    basis = rep.OrbitBasis(handle, pt, depth)
    rpt = Report(f"rep {mode}", spec_arg, digest)
    rpt.line(f"anchor: {spec.system.map.point_text(pt)}")
    rpt.line(f"depth: {depth}")
    depths = basis.depths()
    rows = [(k, int((depths == k).sum())) for k in range(depth + 1)]
    rpt.table("nodes per level", ("level", "count"), rows)
    if mode == "orbit":
        rpt.line(f"dimension: {basis.dim}")
    elif width < 2:
        raise ValidationError("window width must be >= 2")
    else:
        rpt.line(f"window width: {width}")
        rpt.line(f"dimension: {basis.dim * width}")
    rpt.emit(fmt, out)
    raise SystemExit(EXIT_HOLDS)


@main.command()
@common_opts
@click.option("--anchor", default=None)
@click.option("--depth", default=5, show_default=True)
@click.option("--count", default=12, show_default=True, help="target number of residual rows")
@click.option("--seed", default=0, show_default=True)
@click.option("--tol", default=1e-10, show_default=True, type=float, callback=_tolerance)
@_guarded
def relations(spec_arg, out, fmt, anchor, depth, count, seed, tol):
    """Run the defining-relation battery on a truncated matrix model."""
    from . import rep

    spec, digest = _resolve(spec_arg)
    handle = tr.TransferHandle.create(spec.system, spec.potential)
    pt = _anchor_of(spec, anchor)
    basis = rep.OrbitBasis(handle, pt, depth)
    rng = random.Random(seed)
    fns = _battery_fns(handle, rng, max(4, count // 2))
    if not fns:
        raise ValidationError("no usable battery functions for this system")

    rows = []

    def row(kind, label, value, where):
        rows.append((f"{kind}:{label}", float(value), tol, where))

    for i, a in enumerate(fns):
        row("transfer", f"f{i}", rep.check_transfer_relation(basis, a), "interior")
        if len(rows) >= count:
            break
    for i, a in enumerate(fns[:3]):
        row("covariance", f"f{i}", rep.check_covariance(basis, a), "global")
    for i in range(min(3, len(fns) - 1)):
        row("commutation", f"f{i},f{i + 1}", rep.check_commutation(basis, fns[i], fns[i + 1]), "global")
    picks = [rng.choice(fns) for _ in range(4)]
    m1 = rep.Monomial(picks[0], 1, 1, picks[1])
    m2 = rep.Monomial(picks[2], 1, 0, None)
    row("product", "m1*m2", rep.product_check(basis, m1, m2), "interior")
    m3 = rep.Monomial(None, 0, 1, picks[3])
    row("product", "m2*m3", rep.product_check(basis, m2, m3), "interior")
    ga, gt = rep.gauge_residuals(basis, fns[0])
    row("gauge", "fix-functions", ga, "global")
    row("gauge", "scale-shift", gt, "global")
    row("expectation", "balanced", rep.e_check(basis, m1), "global")
    row("expectation", "unbalanced", rep.e_check(basis, m2), "global")
    row("diagonal", "m1", rep.g_check(basis, m1), "interior")

    rpt = Report("relations", spec_arg, digest, seed=seed)
    rpt.line(f"anchor: {spec.system.map.point_text(pt)}; depth: {depth}; dimension: {basis.dim}")
    rpt.table("residuals", ("check", "residual", "tol", "indices"), rows)
    rpt.conclude(max(r[1] for r in rows), tol, fmt, out)


@main.command()
@common_opts
@click.option("--n", default=1, show_default=True, help="core level to describe")
@click.option("--samples", multiple=True, help="extra points to locate in the spectrum")
@_guarded
def spectrum(spec_arg, out, fmt, n, samples):
    """Describe the spectrum of one core level: strata, points, topology."""
    from . import spectra as sp

    spec, digest = _resolve(spec_arg)
    desc = sp.spectrum_An(spec.system, spec.potential, n)
    rpt = Report("spectrum", spec_arg, digest)
    rpt.line(f"level: {n}")
    rpt.line(f"strata: {len(desc.strata)}")
    for s in desc.strata:
        rpt.line(f"  stratum: {s}")
    rows = [(p.level, p.base, p.dimension, p.stratum) for p in desc.sampled_points]
    rpt.table("sampled points", ("level", "base", "dimension", "stratum"), rows)
    if samples:
        pts = _samples_of(spec, samples)
        _, located = sp.spectrum_Kn(spec.system, spec.potential, n, pts)
        rows = [(p.level, p.base, p.dimension, p.stratum) for p in located]
        rpt.table("located samples", ("level", "base", "dimension", "stratum"), rows)
    rpt.line(f"topology generators: {len(desc.topology_generators)}")
    for t in desc.topology_generators:
        rpt.line(f"  open family: {t}")
    for w in desc.warnings:
        rpt.warn(w)
    rpt.emit(fmt, out)
    raise SystemExit(EXIT_HOLDS)


@main.command("quasi-orbits")
@common_opts
@click.option("--depth", default=4, show_default=True)
@click.option("--samples", multiple=True, help="points to classify; defaults per backend")
@_guarded
def quasi_orbits_cmd(spec_arg, out, fmt, depth, samples):
    """Partition sample points into quasi-orbit classes."""
    from . import spectra as sp

    spec, digest = _resolve(spec_arg)
    pts = _samples_of(spec, samples)
    part = sp.quasi_orbits(spec.system, spec.potential, depth, pts)
    rpt = Report("quasi-orbits", spec_arg, digest)
    rpt.line(f"depth: {part.depth}")
    rpt.line(f"classes: {len(part.representatives)}")
    text = spec.system.map.point_text
    rows = [(text(x), text(r)) for x, r in sorted(part.classes.items(), key=lambda kv: str(kv[0]))]
    rpt.table("classification", ("point", "representative"), rows)
    for r in part.representatives:
        body = ", ".join(sorted(text(p) for p in part.orbit_closures[r]))
        rpt.line(f"closure of {text(r)}: {{{body}}}")
    rpt.emit(fmt, out)
    raise SystemExit(EXIT_HOLDS)


_CHECKS = {
    "free": vd.check_top_free,
    "minimal": vd.check_minimal,
    "contracting": vd.check_contracting,
    "one-circuit": vd.check_one_circuit,
    "simple": vd.verdict_simple,
    "pure-infinite": vd.verdict_purely_infinite,
}


@main.command()
@click.argument("prop", type=click.Choice(sorted(_CHECKS)))
@common_opts
@click.option("--depth", default=8, show_default=True)
@_guarded
def check(prop, spec_arg, out, fmt, depth):
    """Decide one dynamical property; the exit code carries the verdict."""
    spec, digest = _resolve(spec_arg)
    v = _CHECKS[prop](spec.system, spec.potential, depth)
    rpt = Report(f"check {prop}", spec_arg, digest)
    rpt.line(str(v))
    if v.certificate is not None:
        rpt.line(f"certificate: {v.certificate}")
    for note in v.notes:
        rpt.line(f"note: {note}")
    rpt.emit(fmt, out)
    raise SystemExit(_STATUS_EXIT.get(v.status, EXIT_UNKNOWN))


@main.command()
@common_opts
@click.option("--psi", "psi_arg", default=None, help="energy: one, zero, spec, or p/q")
@click.option("--bins", default=256, show_default=True)
@click.option("--bracket", default="0.1,3.0", show_default=True, metavar="LO,HI")
@click.option("--tol", default=None, type=float, callback=_tolerance,
              help="residual tolerance; default the candidate's own with --check, 1e-8 when solving")
@click.option("--check", "check_path", default=None, type=click.Path(exists=True, dir_okay=False),
              help="verify an existing candidate file instead of solving")
@click.option("--candidate-out", default=None, type=click.Path(dir_okay=False),
              help="where to write the candidate JSON (default OUT/candidate.json)")
@_guarded
def conformal(spec_arg, out, fmt, psi_arg, bins, bracket, tol, check_path, candidate_out):
    """Solve for the eigen-measure temperature, or verify a saved candidate."""
    from . import thermo as th

    spec, digest = _resolve(spec_arg)
    handle = tr.TransferHandle.create(spec.system, spec.potential)
    psi, psi_label = _psi_of(spec, psi_arg)
    rpt = Report("conformal", spec_arg, digest)
    rpt.line(f"energy: {psi_label}")

    if check_path is not None:
        cand = _load_candidate(check_path, spec.system)
        beta, mu = cand.beta, cand.mu
        if tol is None:
            tol = mu.residual_tol()
        rpt.line(f"candidate: {check_path}")
        rpt.line(f"beta: {beta!r}")
        report = th.conformal_residual(handle, psi, beta, mu, _verify_fns(handle))
        rows = [(r.label, r.lhs, r.rhs, r.residual, tol, "global") for r in report.rows]
        rpt.table("eigen-measure residuals", ("fn", "lhs", "rhs", "residual", "tol", "indices"), rows)
        rpt.conclude(report.max_residual, tol, fmt, out)

    if tol is None:
        tol = 1e-8
    try:
        cand = th.solve_conformal(handle, psi, bins=bins, bracket=_bracket_of(bracket))
    except NoSolution as e:
        rpt.line(f"no solution: {e}")
        rpt.emit(fmt, out)
        raise SystemExit(EXIT_FAILS)
    rpt.line(f"beta: {cand.beta!r}")
    rpt.line("kind: conformal")
    if cand.note:
        rpt.line(f"note: {cand.note}")
    mdoc = cand.mu.to_doc(spec.system)
    if mdoc["type"] == "ulam":
        rpt.line(f"measure: ulam, {len(mdoc['densities'])} bins on [{mdoc['lo']}, {mdoc['hi']}]")
    else:
        rpt.line(f"measure: atomic, {len(mdoc['atoms'])} atoms")
        for x, mass in cand.mu.atoms:
            rpt.line(f"  atom {spec.system.map.point_text(x)}: {frac_str(mass)}")
    report = th.conformal_residual(handle, psi, cand.beta, cand.mu, _verify_fns(handle))
    rows = [(r.label, r.lhs, r.rhs, r.residual, tol, "global") for r in report.rows]
    rpt.table("eigen-measure residuals", ("fn", "lhs", "rhs", "residual", "tol", "indices"), rows)
    rpt.line(f"max residual: {_cell(report.max_residual)}")

    doc = {
        "kind": "conformal", "beta": cand.beta, "note": cand.note, "spec": spec_arg,
        "sha256": digest, "psi": psi_label, "measure": mdoc,
    }
    path = candidate_out
    if path is None and out:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, "candidate.json")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        rpt.line(f"candidate written: {path}")
        rpt.emit(fmt, out)
    else:
        rpt.emit(fmt, out)
        click.echo(json.dumps(doc, indent=2, sort_keys=True))
    raise SystemExit(EXIT_HOLDS)


def _verify_fns(handle: tr.TransferHandle):
    """Deterministic verification family inside the regular region."""
    if handle.system.backend == "graph":
        return [tr.CylinderFunction.indicator(p) for p in handle.system.gph.words(1)]
    from . import thermo as th

    reg = dyn.regular_set(handle.system, handle.potential).delta_reg
    fns = th.hat_battery(reg, 4)
    for iv in reg.intervals:
        if not iv.is_point:
            fns.append(dyn.PiecewiseAffine.const_on(iv, 1))
            break
    return fns


@main.command("kms-verify")
@common_opts
@click.option("--candidate", "cand_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--psi", "psi_arg", default=None, help="energy: one, zero, spec, or p/q")
@click.option("--count", default=20, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--tol", default=None, type=float, callback=_tolerance,
              help="row tolerance; default 1e-5 + 10/bins for binned measures")
@_guarded
def kms_verify(spec_arg, out, fmt, cand_path, psi_arg, count, seed, tol):
    """Check the exchange identity of a candidate over a monomial battery."""
    from . import thermo as th

    spec, digest = _resolve(spec_arg)
    handle = tr.TransferHandle.create(spec.system, spec.potential)
    psi, psi_label = _psi_of(spec, psi_arg)
    cand = _load_candidate(cand_path, spec.system)
    beta, mu = cand.beta, cand.mu
    if tol is None:
        tol = mu.residual_tol()
    rpt = Report("kms-verify", spec_arg, digest, seed=seed)
    rpt.line(f"candidate: {cand_path}")
    rpt.line(f"beta: {beta!r}")
    rpt.line(f"energy: {psi_label}")

    if spec.system.backend == "interval":
        report = th.kms_battery(handle, mu, beta, psi, count=count, seed=seed)
        for note in report.notes:
            rpt.line(f"note: {note}")
    else:
        # the monomial battery is interval-only; graph candidates are checked
        # through the eigen-measure identity on cylinder indicators
        report = th.conformal_residual(handle, psi, beta, mu, _verify_fns(handle))
    rows = [(r.label, r.lhs, r.rhs, r.residual, tol, "global") for r in report.rows]
    rpt.table("exchange residuals", ("pair", "lhs", "rhs", "residual", "tol", "indices"), rows)
    rpt.conclude(report.max_residual, tol, fmt, out)


# ---------------------------------------------------------------------------
# groupoid subgroup
# ---------------------------------------------------------------------------


@main.group()
def groupoid():
    """Truncated arrow-space models over preimage trees."""


@groupoid.command("build")
@common_opts
@click.option("--depth", default=3, show_default=True)
@click.option("--seeds", multiple=True, help="tree base points; default anchor heuristics")
@click.option("--restrict-regular", is_flag=True,
              help="cut the system to its regular region before building")
@click.option("--max-elements", default=500_000, show_default=True)
@_guarded
def groupoid_build(spec_arg, out, fmt, depth, seeds, restrict_regular, max_elements):
    """Enumerate truncated arrows and emit the element table."""
    from . import groupoid as gp

    spec, digest = _resolve(spec_arg)
    system, pot = spec.system, spec.potential
    note = None
    if restrict_regular:
        system, note = _restrict_regular(spec)
    seed_pts = _anchors_of(system, pot, seeds)
    gpd = gp.build_deaconu(system, pot, seed_pts, depth, max_elements=max_elements)
    rpt = Report("groupoid build", spec_arg, digest)
    if note:
        rpt.line(f"restricted to regular region: {note}")
    text = system.map.point_text
    rpt.line(f"seeds: {', '.join(text(p) for p in seed_pts)}")
    rpt.line(f"depth: {depth}")
    rpt.line(f"unit points: {len(gpd.points)}")
    rpt.line(f"elements: {len(gpd)}")
    bad = gpd.axiom_violations(system)
    rpt.line(f"axiom violations: {bad}")
    rows = [
        (text(g.x), g.k, text(g.y), g.witness[0], g.witness[1]) for g in gpd.elements
    ]
    rpt.table("elements", ("x", "k", "y", "n", "m"), rows)
    rpt.emit(fmt, out)
    raise SystemExit(EXIT_HOLDS if bad == 0 else EXIT_FAILS)


@groupoid.command("gap")
@common_opts
@click.option("--n", default=1, show_default=True)
@click.option("--samples", multiple=True)
@click.option("--tower", default=0, show_default=True,
              help="also verify inclusion of levels up to this depth")
@_guarded
def groupoid_gap(spec_arg, out, fmt, n, samples, tower):
    """List equal-image pairs at one step count."""
    from . import groupoid as gp

    spec, digest = _resolve(spec_arg)
    pts = _samples_of(spec, samples)
    pairs = gp.gap_relation(spec.system, n, pts)
    rpt = Report("groupoid gap", spec_arg, digest)
    rpt.line(f"level: {n}")
    rpt.line(f"samples: {len(pts)}")
    text = spec.system.map.point_text
    rows = [(p.n, text(p.x), text(p.y)) for p in pairs]
    rpt.table("related pairs", ("n", "x", "y"), rows)
    if tower > 0:
        levels = gp.gap_tower(spec.system, pts, tower)
        counts = ", ".join(str(len(lv)) for lv in levels)
        rpt.line(f"tower sizes up to level {tower}: {counts}")
        rpt.line("tower inclusion: verified")
    rpt.emit(fmt, out)
    raise SystemExit(EXIT_HOLDS)


@groupoid.command("iso-check")
@common_opts
@click.option("--anchor", default=None)
@click.option("--depth", default=4, show_default=True)
@click.option("--count", default=10, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--tol", default=1e-10, show_default=True, type=float, callback=_tolerance)
@_guarded
def groupoid_iso_check(spec_arg, out, fmt, anchor, depth, count, seed, tol):
    """Compare matrix products against arrow-space convolution."""
    from . import groupoid as gp
    from . import rep

    if count < 1:
        raise ValidationError(f"the check needs at least one pair, got count={count}")
    spec, digest = _resolve(spec_arg)
    handle = tr.TransferHandle.create(spec.system, spec.potential)
    pt = _anchor_of(spec, anchor)
    basis = rep.OrbitBasis(handle, pt, depth)
    gpd = gp.build_deaconu(spec.system, spec.potential, [pt], depth)
    rng = random.Random(seed)
    fns = _battery_fns(handle, rng, 6) + [None]
    rows = []
    worst = 0.0
    top = min(3, depth - 1)
    for i in range(count):
        n, m, n2, m2 = (rng.randint(0, top) for _ in range(4))
        a, b, c, d = (rng.choice(fns) for _ in range(4))
        r = gp.iso_phi_check(basis, a, b, n, m, c, d, n2, m2, gpd=gpd)
        worst = max(worst, r)
        rows.append((f"pair{i}", n, m, n2, m2, r, tol, "interior"))
    rpt = Report("groupoid iso-check", spec_arg, digest, seed=seed)
    rpt.line(f"anchor: {spec.system.map.point_text(pt)}; depth: {depth}; elements: {len(gpd)}")
    rpt.table("product residuals", ("pair", "n", "m", "n2", "m2", "residual", "tol", "indices"), rows)
    rpt.conclude(worst, tol, fmt, out)


@groupoid.command("graph-gen")
@common_opts
@click.option("--depth", default=6, show_default=True)
@click.option("--anchor", default=None)
@click.option("--lam", default=None, metavar="E=W,...",
              help="edge scaling weights; default 1 on every edge")
@click.option("--tol", default=1e-10, show_default=True, type=float, callback=_tolerance)
@_guarded
def groupoid_graph_gen(spec_arg, out, fmt, depth, anchor, lam, tol):
    """Build edge generators and check their defining relations."""
    from . import groupoid as gp

    spec, digest = _resolve(spec_arg)
    if spec.system.backend != "graph":
        raise ValidationError("edge generators need a graph backend")
    g = spec.system.gph
    if lam is None:
        weights = {e.name: Q(1) for e in g.edges}
    else:
        weights = {}
        for part in lam.split(","):
            if "=" not in part:
                raise ParseError(f"bad edge weight {part!r}; expected E=W")
            name, w = (t.strip() for t in part.split("=", 1))
            if name in weights:
                raise ParseError(f"edge {name} named twice in --lam")
            weights[name] = frac(w)
    pt = g.parse_point(anchor) if anchor else None
    fam = gp.graph_generators(spec.system, weights, depth, anchor=pt)
    rpt = Report("groupoid graph-gen", spec_arg, digest)
    rpt.line(f"anchor: {g.point_text(fam.basis.anchor)}; depth: {depth}; dimension: {fam.basis.dim}")
    rows = []
    for name in sorted(fam.residuals):
        where = "global" if name.split(":")[0] in ("shift", "orthogonal") else "interior"
        rows.append((name, fam.residuals[name], tol, where))
    rpt.table("relation residuals", ("relation", "residual", "tol", "indices"), rows)
    rpt.conclude(fam.max_residual(), tol, fmt, out)


@main.command()
@common_opts
@click.option("--depth", default=6, show_default=True)
@_guarded
def report(spec_arg, out, fmt, depth):
    """One-stop summary: validity, regions, verdicts, and spectrum."""
    from . import spectra as sp

    spec, digest = _resolve(spec_arg)
    rpt = Report("report", spec_arg, digest)
    rpt.line(f"name: {spec.name}")
    rpt.line(f"backend: {spec.system.backend}")
    v = tr.validate(spec.system, spec.potential)
    rpt.line(f"valid: {'yes' if v.valid else 'no'} (norm {frac_str(v.norm)})")
    rr = dyn.regular_set(spec.system, spec.potential)
    rpt.line(f"regular region: {rr.delta_reg}")
    system, pot = spec.system, spec.potential
    # each part once; the composite verdicts are derived from them
    free = vd.check_top_free(system, pot, depth)
    minimal = vd.check_minimal(system, pot, depth)
    contracting = vd.check_contracting(system, pot, depth)
    one_circuit = vd.check_one_circuit(system, pot, depth)
    verdicts = (
        free,
        minimal,
        contracting,
        one_circuit,
        vd.simple_of(system, pot, depth, minimal, free, one_circuit),
        vd.purely_infinite_of(depth, minimal, contracting),
    )
    rows = [(x.property, x.status, x.depth, "; ".join(x.notes)) for x in verdicts]
    rpt.table("verdicts", ("property", "status", "depth", "notes"), rows)
    desc = sp.spectrum_An(spec.system, spec.potential, 1)
    rpt.line(f"level-1 strata: {len(desc.strata)}")
    for w in desc.warnings:
        rpt.warn(w)
    rpt.emit(fmt, out)
    raise SystemExit(EXIT_HOLDS)


if __name__ == "__main__":
    main()
