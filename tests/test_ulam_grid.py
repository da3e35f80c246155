"""The uniform Ulam grid by index arithmetic, against the interval walk it replaced.

``transfer.ulam_cells``, ``UlamMeasure.quadrature`` and
``UlamMeasure.integrate_grid`` read the grid by index arithmetic.  The
references below are their bodies before that: a ``RationalInterval`` per
bin intersected with the branch domain and with every target bin, the
midpoint rule one rational per point, and the antiderivative taken twice per
bin.  Every yielded cell, quadrature row and float total must be identical:
the same values, the same ``Q`` type, the same flags, in the same order.
The quadrature hands back its points as one batch and its masses as floats,
so a row's mass is compared as the float of the reference's exact mass.
"""

import random
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xferop import dynamics as dyn
from xferop import specfile
from xferop import thermo as th
from xferop import transfer as tr
from xferop.errors import ValidationError
from xferop.intervals import Q, RationalInterval

# ---------------------------------------------------------------------------
# references: the bodies before the index arithmetic
# ---------------------------------------------------------------------------


def ref_ulam_cells(sys_, lo, hi, bins):
    w = (hi - lo) / bins
    for br in sys_.branches:
        for j in range(bins):
            binj = RationalInterval(lo + j * w, lo + (j + 1) * w, True, j == bins - 1)
            cell = binj.intersection(br.domain)
            if cell is None or cell.is_point:
                continue
            img = cell.affine_image(br.slope, br.intercept)
            i0 = max(int((img.lo - lo) // w), 0)
            i1 = min(int(-((lo - img.hi) // w)), bins - 1)
            for i in range(i0, i1 + 1):
                bini = RationalInterval(lo + i * w, lo + (i + 1) * w, True, i == bins - 1)
                ycell = img.intersection(bini)
                if ycell is None or ycell.is_point:
                    continue
                xcell = br.inverse_image(ycell)
                yield i, j, abs(br.slope), xcell


def ref_quadrature(mu, pts):
    w = (mu.hi - mu.lo) / mu.bins
    return (
        (mu.lo + k * w + w * (2 * i + 1) / (2 * pts), d * w / pts)
        for k, d in enumerate(mu.densities)
        if d != 0
        for i in range(pts)
    )


def ref_integrate_grid(mu, g):
    w = (mu.hi - mu.lo) / mu.bins
    total = Q(0)
    for (u, v), (c0, c1, c2) in zip(zip(g.nodes, g.nodes[1:]), g.cells):
        if c0 == 0 and c1 == 0 and c2 == 0:
            continue
        u_ = max(u, mu.lo)
        v_ = min(v, mu.hi)
        if v_ <= u_:
            continue
        k0 = max(int((u_ - mu.lo) // w), 0)
        k1 = min(int(-((mu.lo - v_) // w)) - 1, mu.bins - 1)

        def anti(x):
            return c0 * x + c1 * x * x / 2 + c2 * x * x * x / 3

        for k in range(k0, k1 + 1):
            a_ = max(u_, mu.lo + k * w)
            b_ = min(v_, mu.lo + (k + 1) * w)
            if b_ <= a_:
                continue
            total += mu.densities[k] * (anti(b_) - anti(a_))
    return float(total)


# ---------------------------------------------------------------------------
# exact spelling: values, types and flags
# ---------------------------------------------------------------------------


def spelled_cells(cells):
    return [
        (i, j, type(m), m, type(x.lo), x.lo, type(x.hi), x.hi, x.lo_closed, x.hi_closed)
        for i, j, m, x in cells
    ]


def spelled_rows(rows):
    """Rows as (type, point, float mass); the quadrature rounds each mass once."""
    return [(type(x), x, float(m)) for x, m in rows]


def quadrature_rows(mu, pts):
    """The quadrature's point batch and mass array, zipped into rows."""
    points, masses = mu.quadrature(pts)
    assert masses.dtype == np.float64 and len(points) == len(masses)
    return list(zip(points, masses.tolist()))


def _closed(lo, hi):
    return {"lo": lo, "hi": hi, "lo_closed": True, "hi_closed": True}


def _affine(slope, intercept):
    return {"pieces": [{"interval": _closed("0", "1"), "slope": slope, "intercept": intercept}],
            "overrides": []}


def tent_x():
    """tent_std with the energy x."""
    return specfile.parse_spec({
        "name": "tent_x", "backend": "interval",
        "space": [_closed("0", "1")],
        "branches": [
            {"domain": _closed("0", "1/2"), "slope": "2", "intercept": "0"},
            {"domain": _closed("1/2", "1"), "slope": "-2", "intercept": "2"},
        ],
        "potential": {"pieces": [{"interval": _closed("0", "1"), "slope": "0", "intercept": "1/2"}],
                      "overrides": [{"point": "1/2", "value": "1"}]},
        "psi": _affine("1", "0"),
    })


def doubling_x_half():
    """doubling with the energy x + 1/2."""
    return specfile.parse_spec({
        "name": "doubling_x_half", "backend": "interval",
        "space": [_closed("0", "1")],
        "branches": [
            {"domain": {"lo": "0", "hi": "1/2", "lo_closed": True, "hi_closed": False},
             "slope": "2", "intercept": "0"},
            {"domain": _closed("1/2", "1"), "slope": "2", "intercept": "-1"},
        ],
        "potential": _affine("0", "1/2"),
        "psi": _affine("1", "1/2"),
    })


INTERVAL_SPECS = ("tent_std", "tent_half", "doubling", "halving")
BUILT = {"tent_x": tent_x, "doubling_x_half": doubling_x_half}
SPECS = INTERVAL_SPECS + tuple(BUILT)
BINS = tuple(range(1, 41)) + (97, 256, 512)
GRIDS = {
    "component": (F(0), F(0)),
    "lo+1/7": (F(1, 7), F(0)),
    "widened": (F(-1, 3), F(2, 5)),
}


def load(name):
    return BUILT[name]() if name in BUILT else specfile.bundled(name)


def test_every_bundled_interval_spec_is_covered():
    interval = [n for n in specfile.BUNDLED if specfile.bundled(n).system.backend == "interval"]
    assert sorted(interval) == sorted(INTERVAL_SPECS)


# ---------------------------------------------------------------------------
# ulam_cells
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("grid", list(GRIDS))
@pytest.mark.parametrize("name", SPECS)
def test_cells_match_the_interval_walk(name, grid):
    sys_ = load(name).system.ival
    (comp,) = sys_.space.intervals
    shift_lo, shift_hi = GRIDS[grid]
    lo, hi = comp.lo + shift_lo, comp.hi + shift_hi
    for bins in BINS:
        got = spelled_cells(tr.ulam_cells(sys_, lo, hi, bins))
        assert got == spelled_cells(ref_ulam_cells(sys_, lo, hi, bins)), (name, grid, bins)
        assert got, (name, grid, bins)


def _rational(draw, lo, hi, den=12):
    return F(draw(st.integers(lo * den, hi * den)), den)


@st.composite
def branches(draw):
    a = _rational(draw, -1, 2)
    b = a + _rational(draw, 0, 2)
    closed = draw(st.tuples(st.booleans(), st.booleans()))
    dom = RationalInterval(a, b, *closed) if a < b else RationalInterval.point(a)
    slope = draw(st.sampled_from([F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(3), F(7, 3)]))
    slope *= draw(st.sampled_from([1, -1]))
    return dyn.AffineBranch(dom, slope, _rational(draw, -3, 3, 6))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(branches(), min_size=1, max_size=4),
    st.integers(1, 24),
    st.tuples(st.integers(-6, 6), st.integers(1, 12)),
)
def test_cells_match_on_drawn_branches(brs, bins, grid):
    # ulam_cells reads only the branches, so they need not form a system:
    # domains may overlap, leave [lo, hi], be a point or be open at either end
    lo = Q(grid[0], 4)
    hi = lo + Q(grid[1], 4)
    sys_ = SimpleNamespace(branches=tuple(brs))
    got = spelled_cells(tr.ulam_cells(sys_, lo, hi, bins))
    assert got == spelled_cells(ref_ulam_cells(sys_, lo, hi, bins))


@pytest.mark.parametrize("name", INTERVAL_SPECS)
def test_ulam_matrix_matches_the_reference(monkeypatch, name):
    # the grids of test_transfer's test_ulam_columns_carry_the_weight_of_their_bin
    s = specfile.bundled(name)
    h = tr.TransferHandle.create(s.system, s.potential)
    got = [tr.ulam_matrix(h, bins) for bins in range(1, 17)]
    monkeypatch.setattr(tr, "ulam_cells", ref_ulam_cells)
    want = [tr.ulam_matrix(h, bins) for bins in range(1, 17)]
    assert [[[(type(x), x) for x in row] for row in m] for m in got] == [
        [[(type(x), x) for x in row] for row in m] for m in want
    ]


def _kinked(system):
    third = F(1, 3)
    pot = dyn.IntervalPotential(
        pieces=(
            (RationalInterval(F(0), third), F(3), F(0)),
            (RationalInterval(third, F(1), False, True), F(0), F(1)),
        ),
        allow_negative=True,
    )
    return th.PotentialFunction.of(system, pot)


RUELLE_ARRAYS = ("segs", "seg_cell", "pos", "cell_pos", "cell_slope", "rows", "cols")


@pytest.mark.parametrize(
    "name, energy, bins",
    [("tent_x", "spec", 256), ("tent_x", "spec", 512), ("doubling_x_half", "spec", 256),
     ("tent_half", "kinked", 97), ("halving", "kinked", 64), ("doubling", "kinked", 33)],
)
def test_ruelle_ulam_arrays_match_a_reference_build(monkeypatch, name, energy, bins):
    s = load(name)
    h = tr.TransferHandle.create(s.system, s.potential)
    psi = th.PotentialFunction.of(s.system, s.psi) if energy == "spec" else _kinked(s.system)
    got = th._RuelleUlam(h, psi, bins)
    monkeypatch.setattr(tr, "ulam_cells", ref_ulam_cells)
    want = th._RuelleUlam(h, psi, bins)
    for key in RUELLE_ARRAYS:
        a, b = getattr(got, key), getattr(want, key)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), key
    assert got.fw == want.fw
    assert got.values(1.3).tobytes() == want.values(1.3).tobytes()


# ---------------------------------------------------------------------------
# quadrature and integrate_grid
# ---------------------------------------------------------------------------


def _densities(bins, seed, zeros):
    rng = random.Random(seed)
    dens = [F(rng.randrange(1, 40), rng.randrange(1, 9)) for _ in range(bins)]
    for k in rng.sample(range(bins), zeros):
        dens[k] = F(0)
    return tuple(dens)


MEASURES = [
    (F(0), F(1), 1, 0),
    (F(0), F(1), 7, 3),
    (F(0), F(1), 256, 0),
    (F(0), F(1), 512, 40),
    (F(1, 7), F(1), 97, 10),
    (F(-1, 3), F(7, 5), 40, 40),
]


@pytest.mark.parametrize("pts", [1, 2, 3, 4])
@pytest.mark.parametrize("lo, hi, bins, zeros", MEASURES)
def test_quadrature_rows_match(lo, hi, bins, zeros, pts):
    mu = tr.UlamMeasure(lo, hi, _densities(bins, bins + pts, zeros))
    got = spelled_rows(quadrature_rows(mu, pts))
    assert got == spelled_rows(ref_quadrature(mu, pts))
    assert len(got) == (bins - zeros) * pts


@pytest.mark.parametrize("pts", [0, -1])
def test_quadrature_refuses_fewer_than_one_point(pts):
    mu = tr.UlamMeasure(F(0), F(1), (F(1),) * 4)
    with pytest.raises(ValidationError, match="at least one point"):
        mu.quadrature(pts)


def _grids(handle):
    """The grid functions the residual rows integrate, for the verification family."""
    carrier = th._single_component(handle.system)
    unit = tr.TransferHandle.create(handle.system, dyn.IntervalPotential(((carrier, Q(0), Q(1)),)))
    reg = dyn.regular_set(handle.system, handle.potential).delta_reg
    fns = th.hat_battery(reg, 4) + [tr.TestFunction.const_on(carrier, 1)]
    fns.append(tr.TestFunction.affine_on(RationalInterval(F(1, 5), F(4, 5)), F(3), F(-1, 2)))
    for a in fns:
        yield th._fiber_grid(handle, a)
        yield th._fiber_grid(unit, a)
        yield th._grid_product(th._fn_grid(a, carrier), th._pot_grid(handle.potential, carrier))
        # a square, so the quadratic coefficient is read too
        yield th._grid_product(th._fn_grid(a, carrier), th._fn_grid(a, carrier))


@pytest.mark.parametrize("lo, hi, bins, zeros", MEASURES)
@pytest.mark.parametrize("name", ["tent_x", "doubling_x_half", "tent_half"])
def test_integrate_grid_matches(name, lo, hi, bins, zeros):
    s = load(name)
    h = tr.TransferHandle.create(s.system, s.potential)
    mu = tr.UlamMeasure(lo, hi, _densities(bins, bins, zeros))
    for g in _grids(h):
        got = mu.integrate_grid(g)
        want = ref_integrate_grid(mu, g)
        assert type(got) is float and got == want


@pytest.mark.parametrize("name, bins", [("tent_x", 256), ("tent_x", 512), ("doubling_x_half", 256)])
def test_solved_candidates_read_the_same(name, bins):
    # the three conformal grids of the benchmark, with the measures the solver returns
    s = load(name)
    h = tr.TransferHandle.create(s.system, s.potential)
    psi = th.PotentialFunction.of(s.system, s.psi)
    mu = th.solve_conformal(h, psi, bins=bins, bracket=(0.5, 6.0)).mu
    for pts in (1, 4):
        assert spelled_rows(quadrature_rows(mu, pts)) == spelled_rows(ref_quadrature(mu, pts))
    for g in _grids(h):
        assert mu.integrate_grid(g) == ref_integrate_grid(mu, g)


@pytest.mark.parametrize("pts", [0, -2])
def test_state_checks_refuse_fewer_than_one_point(pts):
    s = tent_x()
    h = tr.TransferHandle.create(s.system, s.potential)
    psi = th.PotentialFunction.of(s.system, s.psi)
    mu = tr.UlamMeasure(F(0), F(1), (F(1),) * 8)
    a = tr.TestFunction.hat(F(1, 2), F(1, 4))
    with pytest.raises(ValidationError, match="at least one point"):
        th.kms_battery(h, mu, 0.7, psi, count=4, pts=pts)
    with pytest.raises(ValidationError, match="at least one point"):
        th.core_kms_check(h, mu, 0.7, psi, a, a, 1, pts=pts)
    # an atomic measure has no bins, but a rule of no points is refused all the same
    atoms = tr.AtomicMeasure(((F(1, 3), F(1)),))
    with pytest.raises(ValidationError, match="at least one point"):
        th.kms_battery(h, atoms, 0.7, psi, count=4, pts=pts)
