"""A ceiling on what ``transfer.ulam_geometry`` and the solver's exact pass build.

The bin geometry is a few ``RationalPoints`` batch operations per branch
and per energy piece, and nothing per cell: no ``RationalInterval`` at all,
and the same number of batches at 256 bins as at 512.  On tent_std at 512
bins the batch holds 1,024 cells; the per-cell walk it replaced built one
interval per cell, and the per-bin interval walk before that 5,886.  A
change that builds intervals or batches per bin or per cell again fails
here.
"""

import pytest

from xferop import specfile
from xferop import thermo as th
from xferop import transfer as tr
from xferop.intervals import Q, RationalInterval, RationalPoints

BINS = 512
CEILING = 1024  # cells of tent_std at 512 bins


@pytest.fixture
def built(monkeypatch):
    """Counts every ``RationalInterval`` and ``RationalPoints`` constructed while the fixture is live."""
    count = {"intervals": 0, "batches": 0}
    post_init, init = RationalInterval.__post_init__, RationalPoints.__init__

    def counting_interval(self):
        count["intervals"] += 1
        post_init(self)

    def counting_batch(self, *args):
        count["batches"] += 1
        init(self, *args)

    monkeypatch.setattr(RationalInterval, "__post_init__", counting_interval)
    monkeypatch.setattr(RationalPoints, "__init__", counting_batch)
    return count


def _solver_build(bins, built):
    """The cell count and what the geometry and the solver's exact pass build at ``bins``."""
    s = specfile.bundled("tent_std")
    h = tr.TransferHandle.create(s.system, s.potential)
    psi = th.PotentialFunction(s.system, s.psi)
    (comp,) = s.system.ival.space.intervals
    built.update(intervals=0, batches=0)
    cells = len(tr.ulam_geometry(s.system.ival, comp.lo, comp.hi, bins).i)
    th._RuelleUlam(h, psi, bins)
    return cells, dict(built)


def test_the_bin_geometry_builds_no_interval_per_cell(built):
    cells, work = _solver_build(BINS, built)
    assert cells == CEILING
    assert work["intervals"] == 0, f"{work['intervals']} intervals built for {cells} cells"
    assert 0 < work["batches"] < 128  # two geometry builds and one energy cut


def test_the_batch_count_does_not_grow_with_the_bins(built):
    assert _solver_build(BINS // 2, built)[1] == _solver_build(BINS, built)[1]


def test_the_counter_sees_every_construction(built):
    iv = RationalInterval(0, 1)
    iv.intersection(RationalInterval(0, 1, True, False))
    RationalInterval.point(0)
    assert built["intervals"] == 4
    RationalPoints.of([1, 2]).affine(Q(2), Q(1))
    assert built["batches"] == 2
