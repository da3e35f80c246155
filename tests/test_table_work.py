"""A ceiling on the per-point walks of the state table.

``thermo._StateTable`` fills its orbit-end, cocycle, fibre and energy
columns on the interval backend with one batch kernel call per fill
(``IntervalSystem.orbit_ends``, ``cocycles``, ``fibre_step``,
``birkhoff_sums``), and takes its quadrature from the measure as arrays.
So while a table method runs, none of the per-point walks below is called
and no quadrature row comes one at a time.  On tent_std with the energy x
at 256 bins, ``kms_battery`` (20 pairs), ``conformal_residual`` (the
verification family) and ``core_kms_check`` (n = 2) made these calls in
table methods before the kernels (counted by this test on that code):

    dyn.preimages                          832
    dyn.orbit_end                          512
    dyn.cocycle_or_none                  1,024
    PotentialFunction.birkhoff_or_none   2,560
    UlamMeasure.quadrature rows          1,536

and now make none.  The residual's exact grids still read fibres at their
nodes through ``transfer.weighted_fiber_sum``; they are not a table
column, so they are not counted.  Graph tables loop per point by design
and are not capped.  A change that walks a column point by point again
fails here.
"""

import random

import pytest

from xferop import cli, specfile
from xferop import dynamics as dyn
from xferop import thermo as th
from xferop import transfer as tr
from xferop.intervals import Q

BINS = 256
CEILING = 0  # per counted walk, on interval tables
WALKS = ("preimages", "orbit_end", "cocycle_or_none", "birkhoff_or_none", "quadrature rows")


@pytest.fixture(scope="module")
def solved():
    spec = specfile.bundled("tent_std")
    (comp,) = spec.system.ival.space.intervals
    energy = dyn.PiecewiseAffine(((comp, Q(1), Q(0)),), allow_negative=True)
    psi = th.PotentialFunction(spec.system, energy)
    handle = tr.TransferHandle.create(spec.system, spec.potential)
    return handle, psi, th.solve_conformal(handle, psi, bins=BINS, bracket=(0.5, 6.0))


class Walks:
    """Per-point walks made while a ``_StateTable`` method runs, by name."""

    def __init__(self):
        self.count = dict.fromkeys(WALKS, 0)
        self.inside = 0
        self.quadrature = tr.UlamMeasure.quadrature  # what the counted quadrature calls

    def table_method(self, fn):
        def wrapped(*args, **kwargs):
            self.inside += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.inside -= 1

        return wrapped

    def counted(self, name, fn):
        def wrapped(*args, **kwargs):
            self.count[name] += self.inside > 0
            return fn(*args, **kwargs)

        return wrapped

    def rows(self, mu, pts):
        out = self.quadrature(mu, pts)
        if isinstance(out, tuple):  # a batch and a mass array: no row comes alone
            return out
        return (self.counted("quadrature rows", lambda r: r)(row) for row in out)


@pytest.fixture
def walks(monkeypatch):
    w = Walks()
    for name, fn in list(vars(th._StateTable).items()):
        if callable(fn) and not name.startswith("__"):
            monkeypatch.setattr(th._StateTable, name, w.table_method(fn))
    for name in ("preimages", "orbit_end", "cocycle_or_none"):
        monkeypatch.setattr(dyn, name, w.counted(name, getattr(dyn, name)))
    birkhoff = w.counted("birkhoff_or_none", th.PotentialFunction.birkhoff_or_none)
    monkeypatch.setattr(th.PotentialFunction, "birkhoff_or_none", birkhoff)
    monkeypatch.setattr(tr.UlamMeasure, "quadrature", lambda mu, pts: w.rows(mu, pts))
    return w


def test_the_state_checks_walk_no_column_point_by_point(solved, walks):
    handle, psi, cand = solved
    th.kms_battery(handle, cand.mu, cand.beta, psi, count=20, seed=0)
    th.conformal_residual(handle, psi, cand.beta, cand.mu, cli._verify_fns(handle))
    fns = th._battery_functions(handle, random.Random(0), 6)
    th.core_kms_check(handle, cand.mu, cand.beta, psi, fns[1], fns[2], 2)
    assert all(walks.count[name] <= CEILING for name in WALKS), sorted(walks.count.items())


def row_quadrature(mu, pts):
    """The midpoint rule one row at a time, as the measure handed it before the arrays."""
    w = (mu.hi - mu.lo) / mu.bins
    for k, d in enumerate(mu.densities):
        if d != 0:
            for i in range(pts):
                yield mu.lo + k * w + w * (2 * i + 1) / (2 * pts), d * w / pts


def test_the_counter_sees_every_walk(solved, walks, monkeypatch):
    # a kernel that walks one point at a time, and rows that come one at a time
    handle, psi, cand = solved
    system, pot = handle.system, handle.potential
    orbit_ends = dyn.IntervalSystem.orbit_ends

    def per_point(self, pts, n):
        for x in pts:
            dyn.orbit_end(system, x, n)
            dyn.cocycle_or_none(system, pot, n, x)
            dyn.preimages(system, pot, x, n)
            psi.birkhoff_or_none(x, n)
        return orbit_ends(self, pts, n)

    monkeypatch.setattr(dyn.IntervalSystem, "orbit_ends", per_point)
    tab = th._StateTable(handle, cand.mu, psi, cand.beta)
    ids, _ = tab.quad(1)
    tab.orbit_ends(1, ids[:3])
    assert [walks.count[name] for name in WALKS[:4]] == [3, 3, 3, 3]
    dyn.orbit_end(system, Q(1, 3), 1)  # outside a table method: not counted
    assert walks.count["orbit_end"] == 3
    walks.quadrature, walks.inside = row_quadrature, 1
    rows = list(tr.UlamMeasure(0, 1, (Q(1), Q(0), Q(2), Q(1))).quadrature(2))
    assert walks.count["quadrature rows"] == len(rows) == 6
