"""The uniform Ulam grid by index arithmetic, against the interval walk it replaced.

``transfer.ulam_geometry``, ``thermo._RuelleUlam``, ``UlamMeasure.quadrature``
and ``UlamMeasure.integrate_grid`` read the grid by index arithmetic on
integer arrays.  The references below are bare loops: a ``RationalInterval``
per bin intersected with the branch domain and with every target bin, the
solver's arrays built one cell and one energy piece at a time from those
cells, the bin matrix summed one cell at a time, the midpoint rule one
rational per point, and the antiderivative taken twice per bin.  Every cell,
array, quadrature row and float total must be identical: the same values,
the same ``Q`` type, in the same order.  A cell is compared as
(i, j, |slope|, ends): the batch keeps no end flags, because every reader
integrates over the cells.  The quadrature hands back its points as one
batch and its masses as floats, so a row's mass is compared as the float of
the reference's exact mass.
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
from xferop.intervals import IntervalSet, Q, RationalInterval, frac_str

# ---------------------------------------------------------------------------
# references: bare loops, one bin or one cell at a time
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


def ref_ulam_matrix(handle, bins):
    sys_ = handle.system.ival
    (comp,) = sys_.space.intervals
    w = (comp.hi - comp.lo) / bins
    mat = [[Q(0)] * bins for _ in range(bins)]
    for i, j, absm, xcell in ref_ulam_cells(sys_, comp.lo, comp.hi, bins):
        mat[i][j] += tr.integrate_potential(handle.potential, IntervalSet.of(xcell)) * absm / w
    return mat


def ref_ruelle_arrays(handle, psi, bins):
    """``_RuelleUlam``'s exact-pass arrays, one cell and one energy piece at a time."""
    (comp,) = handle.system.ival.space.intervals
    segs, seg_cell, cell_at, cell_slope = [], [], [], []
    for i, j, absm, xcell in ref_ulam_cells(handle.system.ival, comp.lo, comp.hi, bins):
        for piv, m, c in psi.carrier.pieces:
            seg = xcell.intersection(piv)
            if seg is not None and not seg.is_point:
                segs.append((float(seg.lo), float(seg.hi), float(m), float(c)))
                seg_cell.append(len(cell_at))
        cell_at.append(i * bins + j)
        cell_slope.append(float(absm))
    pos, cell_pos = np.unique(np.array(cell_at, dtype=np.intp), return_inverse=True)
    rows, cols = np.divmod(pos, bins)
    return {
        "segs": np.array(segs, dtype=float).reshape(-1, 4).T,
        "seg_cell": np.array(seg_cell, dtype=np.intp),
        "pos": pos, "cell_pos": cell_pos, "rows": rows, "cols": cols,
        "cell_slope": np.array(cell_slope, dtype=float),
    }


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
    """Cells as (i, j, |slope|, ends), each with its type."""
    return [
        (type(i), i, type(j), j, type(m), m, type(u), u, type(v), v) for i, j, m, u, v in cells
    ]


def batch_cells(sys_, lo, hi, bins):
    cells = tr.ulam_geometry(sys_, lo, hi, bins)
    rows = zip(cells.i.tolist(), cells.j.tolist(), cells.branch.tolist(), cells.x_lo, cells.x_hi)
    return spelled_cells((i, j, cells.slopes[b], u, v) for i, j, b, u, v in rows)


def reference_cells(sys_, lo, hi, bins):
    return spelled_cells((i, j, m, x.lo, x.hi) for i, j, m, x in ref_ulam_cells(sys_, lo, hi, bins))


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
# ulam_geometry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("grid", list(GRIDS))
@pytest.mark.parametrize("name", SPECS)
def test_cells_match_the_interval_walk(name, grid):
    sys_ = load(name).system.ival
    (comp,) = sys_.space.intervals
    shift_lo, shift_hi = GRIDS[grid]
    lo, hi = comp.lo + shift_lo, comp.hi + shift_hi
    for bins in BINS:
        got = batch_cells(sys_, lo, hi, bins)
        assert got == reference_cells(sys_, lo, hi, bins), (name, grid, bins)
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
    # ulam_geometry reads only the branches, so they need not form a system:
    # domains may overlap, leave [lo, hi], be a point or be open at either end
    lo = Q(grid[0], 4)
    hi = lo + Q(grid[1], 4)
    sys_ = SimpleNamespace(branches=tuple(brs))
    assert batch_cells(sys_, lo, hi, bins) == reference_cells(sys_, lo, hi, bins)


@pytest.mark.parametrize("slope", [F(3), F(-3)])
def test_cells_of_branches_that_leave_the_grid_far_behind(slope):
    # bin indices past int64 are clipped to the grid before they are cast
    far = F(10**30, 7)
    brs = (
        dyn.AffineBranch(RationalInterval(F(0), F(1, 2)), slope, far),
        dyn.AffineBranch(RationalInterval(F(1, 4), F(1)), slope, -far),
        dyn.AffineBranch(RationalInterval(F(0), F(1)), slope, F(1, 3) - slope / 2),
    )
    sys_ = SimpleNamespace(branches=brs)
    for bins in (1, 5, 64):
        got = batch_cells(sys_, F(0), F(1), bins)
        assert got == reference_cells(sys_, F(0), F(1), bins) and got, bins


@pytest.mark.parametrize("name", INTERVAL_SPECS)
def test_ulam_matrix_matches_the_reference(name):
    # the grids of test_transfer's test_ulam_columns_carry_the_weight_of_their_bin
    s = specfile.bundled(name)
    h = tr.TransferHandle.create(s.system, s.potential)
    got = [tr.ulam_matrix(h, bins) for bins in range(1, 17)]
    want = [ref_ulam_matrix(h, bins) for bins in range(1, 17)]
    assert [[[(type(x), x) for x in row] for row in m] for m in got] == [
        [[(type(x), x) for x in row] for row in m] for m in want
    ]


def _kinked(system):
    third = F(1, 3)
    pot = dyn.PiecewiseAffine(
        pieces=(
            (RationalInterval(F(0), third), F(3), F(0)),
            (RationalInterval(third, F(1), False, True), F(0), F(1)),
        ),
        allow_negative=True,
    )
    return th.PotentialFunction(system, pot)


RUELLE_ARRAYS = ("segs", "seg_cell", "pos", "cell_pos", "cell_slope", "rows", "cols")


@pytest.mark.parametrize(
    "name, energy, bins",
    [("tent_x", "spec", 256), ("tent_x", "spec", 512), ("doubling_x_half", "spec", 256),
     ("tent_half", "kinked", 97), ("halving", "kinked", 64), ("doubling", "kinked", 33)],
)
def test_ruelle_ulam_arrays_match_a_reference_build(name, energy, bins):
    s = load(name)
    h = tr.TransferHandle.create(s.system, s.potential)
    psi = th.PotentialFunction(s.system, s.psi) if energy == "spec" else _kinked(s.system)
    assert_arrays_match(th._RuelleUlam(h, psi, bins), ref_ruelle_arrays(h, psi, bins))


def assert_arrays_match(got, want):
    for key in RUELLE_ARRAYS:
        a, b = getattr(got, key), want[key]
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), key
    # the float pass reads the arrays: its entries agree bit for bit too
    ref = SimpleNamespace(**want, fw=got.fw, bins=got.bins)
    assert got.values(1.3).tobytes() == th._RuelleUlam.values(ref, 1.3).tobytes()


def _tent_on(lo, width):
    """tent_std conjugated onto [lo, lo + width]."""
    hi, mid = lo + width, lo + width / 2
    text = frac_str
    return specfile.parse_spec({
        "name": "tent_moved", "backend": "interval",
        "space": [_closed(text(lo), text(hi))],
        "branches": [
            {"domain": _closed(text(lo), text(mid)), "slope": "2", "intercept": text(-lo)},
            {"domain": _closed(text(mid), text(hi)), "slope": "-2", "intercept": text(3 * lo + 2 * width)},
        ],
        "potential": {"pieces": [{"interval": _closed(text(lo), text(hi)), "slope": "0", "intercept": "1"}],
                      "overrides": []},
    })


def _energy(system, kind):
    """x, x + 1/2 or a kink at a third of the space, on the space component."""
    (comp,) = system.ival.space.intervals
    if kind == "kinked":
        third = comp.lo + (comp.hi - comp.lo) / 3
        pieces = (
            (RationalInterval(comp.lo, third), F(3), -3 * comp.lo),
            (RationalInterval(third, comp.hi, False, True), F(0), 3 * (third - comp.lo)),
        )
    else:
        pieces = ((comp, F(1), F(0) if kind == "x" else F(1, 2)),)
    return th.PotentialFunction(system, dyn.PiecewiseAffine(pieces, allow_negative=True))


MOVED = {
    "lo=1/3,width=7/5": (F(1, 3), F(7, 5)),
    # the cell ends pass 2^53, so the batch runs on Python ints
    "lo=2^60/3,width=2^61": (F(2**60, 3), F(2**61)),
}


@pytest.mark.parametrize("energy", ["x", "x+1/2", "kinked"])
@pytest.mark.parametrize("name", INTERVAL_SPECS + tuple(MOVED))
def test_batch_geometry_matches_the_per_cell_build(name, energy):
    s = _tent_on(*MOVED[name]) if name in MOVED else load(name)
    h = tr.TransferHandle.create(s.system, s.potential)
    psi = _energy(s.system, energy)
    for bins in (1, 7, 64, 256, 512):
        assert_arrays_match(th._RuelleUlam(h, psi, bins), ref_ruelle_arrays(h, psi, bins))


def test_the_python_int_path_runs():
    s = _tent_on(*MOVED["lo=2^60/3,width=2^61"])
    (comp,) = s.system.ival.space.intervals
    cells = tr.ulam_geometry(s.system.ival, comp.lo, comp.hi, 64)
    assert cells.x_lo.num.dtype == object and cells.x_lo.size > 2**53


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
    unit = tr.TransferHandle.create(handle.system, dyn.PiecewiseAffine(((carrier, Q(0), Q(1)),)))
    reg = dyn.regular_set(handle.system, handle.potential).delta_reg
    fns = th.hat_battery(reg, 4) + [dyn.PiecewiseAffine.const_on(carrier, 1)]
    fns.append(dyn.PiecewiseAffine.affine_on(RationalInterval(F(1, 5), F(4, 5)), F(3), F(-1, 2)))
    for a in fns:
        yield th._fiber_grid(handle, a)
        yield th._fiber_grid(unit, a)
        yield th._grid_product(th._grid(a, carrier), th._grid(handle.potential, carrier))
        # a square, so the quadratic coefficient is read too
        yield th._grid_product(th._grid(a, carrier), th._grid(a, carrier))


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


# large, pairwise coprime denominators (primes), so the common denominator is their product
PRIMES = (1_000_000_007, 998_244_353, 2**61 - 1, 4_294_967_291, 1_000_000_009)
COEFFS = (F(0), F(0), F(1), F(-2), F(1, 3), F(5, 7), F(-11, 4))


@st.composite
def grid_measures(draw):
    """A bin measure and a grid whose nodes sit on a quarter-bin lattice
    (plus a fixed offset), reaching up to two bins past either end."""
    lo = F(draw(st.integers(-8, 8)), draw(st.integers(1, 6)))
    hi = lo + F(draw(st.integers(1, 12)), draw(st.integers(1, 6)))
    bins = draw(st.integers(1, 40))
    dens = draw(st.lists(
        st.one_of(
            st.just(F(0)),
            st.builds(F, st.integers(0, 50), st.integers(1, 9)),
            st.builds(F, st.integers(0, 10**15), st.sampled_from(PRIMES)),
        ),
        min_size=bins, max_size=bins,
    ))
    ticks = draw(st.lists(st.integers(-8, 4 * bins + 8), min_size=2, max_size=8, unique=True))
    shift = draw(st.sampled_from([F(0), F(1, 7)]))
    w = (hi - lo) / bins
    nodes = tuple(lo + (t + shift) * w / 4 for t in sorted(ticks))
    cells = tuple(
        tuple(draw(st.sampled_from(COEFFS)) for _ in range(3)) for _ in range(len(nodes) - 1)
    )
    return tr.UlamMeasure(lo, hi, tuple(dens)), th.GridFunction(nodes, cells)


@settings(max_examples=300, deadline=None)
@given(grid_measures())
def test_integrate_grid_matches_on_drawn_grids(case):
    mu, g = case
    assert mu.integrate_grid(g) == ref_integrate_grid(mu, g)


def _grid(nodes, coeffs=(F(1), F(-2), F(3))):
    nodes = tuple(F(x) for x in nodes)
    return th.GridFunction(nodes, (coeffs,) * (len(nodes) - 1))


# on 16 bins of [0, 1]: bin k is [k/16, (k+1)/16)
GRID_CASES = {
    "inside-one-bin": (F(1, 40), F(1, 20)),
    "two-bins": (F(1, 20), F(3, 32)),
    "on-bin-ends": (F(1, 16), F(1, 8), F(7, 16)),
    "many-bins": (F(1, 100), F(97, 100)),
    "past-both-ends": (F(-3), F(1, 3), F(5, 2)),
    "outside": (F(-2), F(-1)),
}


@pytest.mark.parametrize("case", list(GRID_CASES))
def test_integrate_grid_cases(case):
    rng = random.Random(case)
    dens = [F(rng.randrange(0, 9), rng.choice(PRIMES)) for _ in range(16)]
    dens[3] = F(0)
    mu = tr.UlamMeasure(F(0), F(1), tuple(dens))
    g = _grid(GRID_CASES[case])
    got = mu.integrate_grid(g)
    assert type(got) is float and got == ref_integrate_grid(mu, g)


def test_zero_densities_integrate_to_zero():
    mu = tr.UlamMeasure(F(0), F(1), (F(0),) * 8)
    assert mu.integrate_grid(_grid((F(-1), F(1, 3), F(2)))) == 0.0


Q_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__truediv__", "__rtruediv__", "__neg__")


def test_grid_integral_work_does_not_grow_with_the_bins(monkeypatch):
    # a fixed number of exact operations per grid cell: a per-bin loop is
    # about twice the count at 512 bins as at 256
    g = _grid((F(0), F(1, 3), F(1, 2), F(5, 7), F(1)))
    measures = [tr.UlamMeasure(F(0), F(1), tuple(F(k % 5, 3) for k in range(bins))) for bins in (256, 512)]
    want = [ref_integrate_grid(mu, g) for mu in measures]
    for mu in measures:
        mu.total_mass()  # the integer view is built once per measure, before the count
    count = [0]
    for name in Q_OPS:
        op = getattr(Q, name)

        def counting(*args, _op=op):
            count[0] += 1
            return _op(*args)

        monkeypatch.setattr(Q, name, counting)
    ops = []
    for mu, total in zip(measures, want):
        count[0] = 0
        assert mu.integrate_grid(g) == total
        ops.append(count[0])
    assert ops[0] == ops[1] and 0 < ops[0] < 256, ops


@pytest.mark.parametrize("name, bins", [("tent_x", 256), ("tent_x", 512), ("doubling_x_half", 256)])
def test_solved_candidates_read_the_same(name, bins):
    # the three conformal grids of the benchmark, with the measures the solver returns
    s = load(name)
    h = tr.TransferHandle.create(s.system, s.potential)
    psi = th.PotentialFunction(s.system, s.psi)
    mu = th.solve_conformal(h, psi, bins=bins, bracket=(0.5, 6.0)).mu
    for pts in (1, 4):
        assert spelled_rows(quadrature_rows(mu, pts)) == spelled_rows(ref_quadrature(mu, pts))
    for g in _grids(h):
        assert mu.integrate_grid(g) == ref_integrate_grid(mu, g)


@pytest.mark.parametrize("pts", [0, -2])
def test_state_checks_refuse_fewer_than_one_point(pts):
    s = tent_x()
    h = tr.TransferHandle.create(s.system, s.potential)
    psi = th.PotentialFunction(s.system, s.psi)
    mu = tr.UlamMeasure(F(0), F(1), (F(1),) * 8)
    a = dyn.PiecewiseAffine.hat(F(1, 2), F(1, 4))
    with pytest.raises(ValidationError, match="at least one point"):
        th.kms_battery(h, mu, 0.7, psi, count=4, pts=pts)
    with pytest.raises(ValidationError, match="at least one point"):
        th.core_kms_check(h, mu, 0.7, psi, a, a, 1, pts=pts)
    # an atomic measure has no bins, but a rule of no points is refused all the same
    atoms = tr.AtomicMeasure(((F(1, 3), F(1)),))
    with pytest.raises(ValidationError, match="at least one point"):
        th.kms_battery(h, atoms, 0.7, psi, count=4, pts=pts)
