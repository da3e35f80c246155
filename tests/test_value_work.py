"""A ceiling on the per-point test-function reads of the state checks.

A test function on the interval backend is a ``PiecewiseAffine`` that reads
zero off its pieces; weights and energies share the type but are undefined
there, and the counter counts only the test functions' ``value`` calls.
``conformal_residual`` and ``kms_battery`` read their test functions at the
quadrature points through ``PiecewiseAffine.floats``, one integer-array pass
per column, never point by point, and the residual's exact fibre-sum and
product grids read only the functions' affine pieces.  On tent_std with the
energy x at 256 bins, neither makes a per-point read; the point-by-point
columns they replaced made 5,159 and 7,040, and the grid node values, which
no integral read, made 39.  A change that reads a function point by point
again fails here.
"""

import pytest

from xferop import cli, specfile
from xferop import dynamics as dyn
from xferop import thermo as th
from xferop import transfer as tr
from xferop.intervals import Q

BINS = 256
RESIDUAL_CEILING = 0
BATTERY_CEILING = 0


@pytest.fixture(scope="module")
def solved():
    spec = specfile.bundled("tent_std")
    (comp,) = spec.system.ival.space.intervals
    energy = dyn.PiecewiseAffine(((comp, Q(1), Q(0)),), allow_negative=True)
    psi = th.PotentialFunction(spec.system, energy)
    handle = tr.TransferHandle.create(spec.system, spec.potential)
    return handle, psi, th.solve_conformal(handle, psi, bins=BINS, bracket=(0.5, 6.0))


@pytest.fixture
def calls(monkeypatch):
    """Counts every test function's ``value`` call while the fixture is live."""
    count = [0]
    value = dyn.PiecewiseAffine.value

    def counting(self, x):
        if self.zero_outside:  # a weight or an energy is not a test function
            count[0] += 1
        return value(self, x)

    monkeypatch.setattr(dyn.PiecewiseAffine, "value", counting)
    return count


def test_the_residual_reads_no_column_point_by_point(solved, calls):
    handle, psi, cand = solved
    th.conformal_residual(handle, psi, cand.beta, cand.mu, cli._verify_fns(handle))
    assert calls[0] <= RESIDUAL_CEILING


def test_the_battery_reads_no_column_point_by_point(solved, calls):
    handle, psi, cand = solved
    th.kms_battery(handle, cand.mu, cand.beta, psi, count=20, seed=0)
    assert calls[0] <= BATTERY_CEILING


def test_the_counter_sees_every_call(calls):
    spec = specfile.bundled("tent_std")
    handle = tr.TransferHandle.create(spec.system, spec.potential)
    f = dyn.PiecewiseAffine.hat(Q(1, 2), Q(1, 4))
    f.value(Q(1, 2))
    tr.apply(handle, f, Q(1, 3))
    assert calls[0] == 3  # one direct read, one per preimage of 1/3
