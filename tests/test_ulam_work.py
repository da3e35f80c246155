"""A ceiling on the intervals ``transfer.ulam_cells`` builds.

The bin walk reads the uniform grid by index arithmetic and builds one
``RationalInterval`` per yielded cell, nothing per bin: no bin intervals,
no intersections, no images.  On tent_std at 512 bins that is 1,024
intervals for 1,024 cells; the per-bin interval walk it replaced built
5,886.  A change that builds intervals per bin again fails here.
"""

import pytest

from xferop import specfile
from xferop import transfer as tr
from xferop.intervals import RationalInterval

BINS = 512
CEILING = 1024  # one per yielded cell


@pytest.fixture
def built(monkeypatch):
    """Counts every ``RationalInterval`` constructed while the fixture is live."""
    count = [0]
    post_init = RationalInterval.__post_init__

    def counting(self):
        count[0] += 1
        post_init(self)

    monkeypatch.setattr(RationalInterval, "__post_init__", counting)
    return count


def test_the_bin_walk_builds_one_interval_per_cell(built):
    sys_ = specfile.bundled("tent_std").system.ival
    (comp,) = sys_.space.intervals
    built[0] = 0
    cells = sum(1 for _ in tr.ulam_cells(sys_, comp.lo, comp.hi, BINS))
    assert cells == CEILING
    assert built[0] <= cells, f"{built[0]} intervals built for {cells} cells"


def test_the_counter_sees_every_construction(built):
    iv = RationalInterval(0, 1)
    iv.intersection(RationalInterval(0, 1, True, False))
    RationalInterval.point(0)
    assert built[0] == 4
