"""Ceilings on the sorting-constructor calls of the minimality scan.

``IntervalSet(...)`` sorts and joins its intervals; the set operations of
the closure step (``union``, ``intersection``, the branch and system
``image_of`` / ``preimage_of``) and the dyadic seeds build canonical tuples
directly, so the scan only normalises while it works out its regions.
When every operation re-sorted its result, ``check_minimal(tent_std, d)``
made 12,363 calls at d = 8 and 3,139 at d = 6.  A change that sends the
closure step through the normaliser again fails here; one that lowers a
count lowers its ceiling.
"""

import pytest

from xferop import specfile
from xferop import verdicts as vd
from xferop.intervals import IntervalSet, RationalInterval

MINIMAL_TENT = {8: 14, 6: 14}


@pytest.fixture(scope="module")
def tent():
    return specfile.bundled("tent_std")


@pytest.fixture
def built(monkeypatch):
    """Counts ``IntervalSet.__init__`` calls, the normaliser."""
    count = [0]
    orig = IntervalSet.__init__

    def counting(self, *args):
        count[0] += 1
        orig(self, *args)

    monkeypatch.setattr(IntervalSet, "__init__", counting)
    return count


@pytest.mark.parametrize("depth", sorted(MINIMAL_TENT))
def test_minimal_scan_builds_canonical_sets_directly(tent, built, depth):
    v = vd.check_minimal(tent.system, tent.potential, depth)
    assert v.status == "Holds"
    assert built[0] <= MINIMAL_TENT[depth]


def test_the_counter_sees_every_call(built):
    piece = RationalInterval(0, 1)
    IntervalSet([piece])
    unit = IntervalSet.of(piece)
    IntervalSet.points([0, 1])
    unit.difference(IntervalSet.point(0))  # one, in difference
    assert built[0] == 4
