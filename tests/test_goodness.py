"""Sublevel-growth toolkit: analytic oracles, covering, relative size."""

import math
import random
from fractions import Fraction

import numpy as np
import oracles
import pytest

from boxflow.doubledouble import BLOCK, U, U2, split
from boxflow.errors import DomainError
from boxflow.goodness import (
    BoxRegion,
    GridPoly,
    RelSizeStatus,
    besicovitch_select,
    fit_min_c,
    good_inequality_check,
    poly_grid_fn,
    relative_size_check,
    relative_size_neighborhoods,
    sublevel_measure,
    sublevel_measure_mc,
    sup_norm,
    transfer_delta_grid,
)
from boxflow.polyalg import GenPoly, parse_poly
from boxflow.polymatrix import PolyMatrix

F = Fraction

UNIT = BoxRegion((0.0,), (1.0,))


def fx(points):
    return points[:, 0]


def fx_squared(points):
    return points[:, 0] ** 2


# -- sup_norm -----------------------------------------------------------------


def test_sup_norm_linear():
    assert sup_norm(fx, UNIT, 11) == 1.0


def test_sup_norm_zero():
    assert sup_norm(lambda p: np.zeros(p.shape[0]), UNIT, 5) == 0.0


def test_sup_norm_corner_max_2d():
    box = BoxRegion((0.0, 0.0), (2.0, 2.0))
    f = lambda p: p[:, 0] * p[:, 1]
    assert sup_norm(f, box, 9) == 4.0


@pytest.mark.parametrize("grid", [0, -1])
def test_sublevel_measure_rejects_a_grid_below_one(grid):
    for f in (fx, poly_grid_fn(parse_poly("x"), ["x"])):
        with pytest.raises(DomainError):
            sublevel_measure(f, UNIT, 0.5, grid)


# -- good inequality -------------------------------------------------------------


def test_good_linear_case():
    chk = good_inequality_check(fx, UNIT, delta=0.1, c=1.0, alpha=1, grid=100)
    assert chk.holds
    assert chk.lhs == pytest.approx(0.1, abs=0.011)
    assert chk.rhs == pytest.approx(0.1)


def test_good_square_case():
    # sublevel measure of x^2 below delta is sqrt(delta), matching alpha = 1/2
    chk = good_inequality_check(
        fx_squared, UNIT, delta=0.01, c=1.0, alpha=F(1, 2), grid=200
    )
    assert chk.holds
    assert chk.lhs == pytest.approx(0.1, abs=0.01)
    assert chk.rhs == pytest.approx(0.1)


def test_good_square_wrong_class_fails():
    chk = good_inequality_check(
        fx_squared, UNIT, delta=0.01, c=1.0, alpha=1, grid=200
    )
    assert not chk.holds
    assert chk.lhs == pytest.approx(0.1, abs=0.01)
    assert chk.rhs == pytest.approx(0.01)


def test_good_rejects_zero_function():
    with pytest.raises(DomainError):
        good_inequality_check(
            lambda p: np.zeros(p.shape[0]), UNIT, 0.1, 1.0, 1, 10
        )


def test_good_monte_carlo_path():
    chk = good_inequality_check(
        fx, UNIT, delta=0.3, c=1.0, alpha=1, grid=50, mc_samples=400, seed=11
    )
    # the 99% pad keeps the estimate above the true 0.3 but nearby
    assert 0.3 <= chk.lhs <= 0.45


# -- fit_min_c ----------------------------------------------------------------------


def test_fit_linear_is_one():
    c = fit_min_c(fx, UNIT, alpha=1, delta_grid=[0.1, 0.2, 0.5], grid=1000)
    assert c == pytest.approx(1.0, abs=5e-3)


def test_fit_square_is_one():
    c = fit_min_c(fx_squared, UNIT, alpha=F(1, 2), delta_grid=[0.01, 0.04, 0.25], grid=1000)
    assert c == pytest.approx(1.0, abs=5e-3)


def test_fit_bump_recorded():
    # sup-ratio of x(1-x) at alpha=1/2 approaches 1 as delta tends to the sup;
    # brute-force sublevel measures put the grid value near 1
    f = lambda p: p[:, 0] * (1 - p[:, 0])
    c = fit_min_c(f, UNIT, alpha=F(1, 2), delta_grid=[0.05, 0.15, 0.25], grid=2000)
    assert np.isfinite(c)
    assert c == pytest.approx(1.0, abs=2e-3)
    cert_c = max(1.0, c)
    assert cert_c >= 1.0


def test_fit_invariant_under_scaling_and_translation():
    rng = random.Random(8)
    for _ in range(20):
        coeffs = [rng.uniform(-2, 2) for _ in range(3)]
        f = lambda p, c=coeffs: c[0] + c[1] * p[:, 0] + c[2] * p[:, 0] ** 2
        if max(abs(c) for c in coeffs) < 0.1:
            continue
        box = BoxRegion((0.0,), (1.0,))
        shifted = BoxRegion((3.0,), (4.0,))
        f_shift = lambda p, g=f: g(p - 3.0)
        scale = rng.uniform(0.5, 4.0)
        f_scaled = lambda p, g=f, s=scale: s * g(p)
        grid = 400
        deltas = [0.03, 0.1, 0.3]
        base = fit_min_c(f, box, F(1, 2), deltas, grid)
        tr = fit_min_c(f_shift, shifted, F(1, 2), deltas, grid)
        sc = fit_min_c(f_scaled, box, F(1, 2), [scale * d for d in deltas], grid)
        slack = 2 * 1 / grid
        assert tr == pytest.approx(base, abs=slack + 1e-9)
        assert sc == pytest.approx(base, abs=slack + 1e-9)


def test_fit_min_c_is_the_max_per_delta_sublevel_ratio():
    # delta = 0.125 equals the first midpoint value of |x| on the 8-cell
    # grid, where the strict inequality |f| < delta decides the count
    cases = [(parse_poly("x"), BoxRegion((0.0,), (2.0,)), ["x"], 8,
              [0.125, 0.25, 0.3, 0.5, 2.0]),
             (parse_poly("x^3 - x*y + 1/3"), BoxRegion((-1.0, 0.0), (2.0, 1.5)),
              ["x", "y"], 90, [0.01, 0.05, 0.2, 0.7])]
    for p, box, var_order, grid, deltas in cases:
        f = poly_grid_fn(p, var_order)
        alpha = F(1, 3 * len(var_order))
        lhs = np.array([sublevel_measure(f, box, d, grid) for d in deltas])
        ratios = lhs / ((np.array(deltas) / sup_norm(f, box, grid)) ** float(alpha)
                        * box.volume)
        for d, ratio in zip(deltas, ratios.tolist()):
            assert fit_min_c(f, box, alpha, [d], grid) == ratio
        assert fit_min_c(f, box, alpha, deltas, grid) == max(ratios.tolist())


@pytest.mark.parametrize("alpha", [0, -1, F(-1, 2), math.nan])
def test_fit_and_neighborhoods_reject_alpha_not_positive(alpha):
    # for alpha <= 0 the bound (delta / sup|f|)^alpha does not shrink with
    # delta: no "minimal constant" of it, and no 1 / alpha
    calls = (
        lambda: fit_min_c(fx, UNIT, alpha, [0.1, 0.2], grid=100),
        lambda: transfer_delta_grid(alpha, 0.01),
        lambda: relative_size_neighborhoods(parse_poly("v1"), ["v1"], r=1.0, eps=0.5,
                                            k=1, l=1, c=1.0, n_cover=2, alpha=alpha),
    )
    for call in calls:
        with pytest.raises(DomainError, match="alpha must be positive"):
            call()


# -- covering ----------------------------------------------------------------------


def test_cover_single_point():
    cover = besicovitch_select([[0.0]], [1.0])
    assert cover.covered
    assert cover.max_multiplicity == 1
    assert len(cover.halfwidths) == 1


def test_cover_line_of_points():
    pts = [[float(i)] for i in range(11)]
    cover = besicovitch_select(pts, [1.0] * 11)
    assert cover.covered
    assert cover.max_multiplicity <= 2


def test_cover_coincident_points():
    cover = besicovitch_select([[0.5, 0.5], [0.5, 0.5]], [0.3, 0.2])
    assert cover.covered
    assert len(cover.halfwidths) == 1


def test_cover_random_instances_bounded():
    rng = np.random.default_rng(505)
    for k in (1, 2, 3):
        for _ in range(60):
            n = int(rng.integers(1, 40))
            pts = rng.random((n, k)) * 4
            hws = rng.random(n) * 0.8 + 0.05
            cover = besicovitch_select(pts, hws)
            assert cover.covered
            assert cover.max_multiplicity <= 2 ** k + 1


def reference_cover(centers, halfwidths, probe_grid=12):
    """The pairwise greedy loop and the (probes, selected, k) multiplicity
    array that ``besicovitch_select`` replaced: (selected centers, selected
    half-widths, covered, max multiplicity, histogram)."""
    pts = np.atleast_2d(np.asarray(centers, dtype=float))
    hws = np.asarray(halfwidths, dtype=float)
    k = pts.shape[1]
    order = sorted(range(len(hws)), key=lambda i: (-hws[i], i))
    sel_idx = []
    for i in order:
        covered = False
        for j in sel_idx:
            if np.max(np.abs(pts[i] - pts[j])) <= hws[j]:
                covered = True
                break
        if not covered:
            sel_idx.append(i)
    sel_centers = pts[sel_idx]
    sel_hws = hws[sel_idx]
    dist = np.max(np.abs(pts[:, None, :] - sel_centers[None, :, :]), axis=2)
    covered_all = bool(np.all(np.any(dist <= sel_hws[None, :], axis=1)))
    lo = np.min(pts - hws[:, None], axis=0)
    hi = np.max(pts + hws[:, None], axis=0)
    axes = [np.linspace(lo[d], hi[d], probe_grid) for d in range(k)]
    mesh = np.meshgrid(*axes, indexing="ij")
    probes = np.stack([m.ravel() for m in mesh], axis=-1)
    probes = np.concatenate([probes, pts], axis=0)
    pdist = np.max(np.abs(probes[:, None, :] - sel_centers[None, :, :]), axis=2)
    mult = np.sum(pdist <= sel_hws[None, :], axis=1)
    hist_vals, hist_counts = np.unique(mult, return_counts=True)
    hist = {int(v): int(c) for v, c in zip(hist_vals, hist_counts)}
    return sel_centers, sel_hws, covered_all, int(np.max(mult)), hist


def cover_instances():
    """Seeded instances, k = 1, 2, 3 and n up to 300: uniform centers and
    half-widths, and lattice centers with a few half-widths, so centers
    coincide, half-widths tie and centers sit on cube faces."""
    rng = np.random.default_rng(2024)
    for k in (1, 2, 3):
        for n in (1, 2, 7, 40, 300):
            yield rng.random((n, k)) * 5.0, rng.random(n) * 0.9 + 0.02
            pts = rng.integers(0, 4, (n, k)) * 0.5
            yield pts, rng.choice([0.25, 0.5, 1.0], n)
        yield np.zeros((5, k)), np.full(5, 0.5)


def test_cover_bit_identical_to_reference_loop():
    count = 0
    for pts, hws in cover_instances():
        cover = besicovitch_select(pts, hws)
        centers, widths, covered, mult, hist = reference_cover(pts, hws)
        assert cover.centers.tobytes() == centers.tobytes()
        assert cover.halfwidths.tobytes() == widths.tobytes()
        assert cover.covered == covered
        assert cover.max_multiplicity == mult
        assert cover.multiplicity_histogram == hist
        count += 1
    assert count == 33


def test_cover_keeps_the_earlier_of_equal_cubes():
    cover = besicovitch_select([[0.0], [0.5], [0.5]], [1.0, 1.0, 1.0])
    assert cover.centers.tolist() == [[0.0]]
    cover = besicovitch_select([[2.0], [0.0], [0.0]], [0.5, 0.5, 0.5])
    assert cover.centers.tolist() == [[2.0], [0.0]]


@pytest.mark.parametrize("centers, halfwidths", [
    ([], []),
    (np.empty((0, 2)), np.empty(0)),
])
def test_cover_rejects_empty_input(centers, halfwidths):
    with pytest.raises(DomainError, match="need at least one cube"):
        besicovitch_select(centers, halfwidths)


@pytest.mark.parametrize("centers, halfwidths", [
    ([[0.0, np.nan], [1.0, 1.0]], [0.5, 0.5]),
    ([[0.0, np.inf]], [0.5]),
    ([[0.0, 0.0], [1.0, 1.0]], [np.nan, 0.5]),
    ([[0.0, 0.0]], [np.inf]),
])
def test_cover_rejects_non_finite_input(centers, halfwidths):
    with pytest.raises(DomainError, match="finite"):
        besicovitch_select(centers, halfwidths)


# -- relative size ----------------------------------------------------------------


def test_neighborhood_arithmetic():
    spec = relative_size_neighborhoods(
        parse_poly("v1"), ["v1"], r=1.0, eps=0.5, k=1, l=1, c=1.0, n_cover=2,
        alpha=F(1, 2),
    )
    assert spec.delta == pytest.approx(1 / 16)
    assert spec.d_radius == pytest.approx(4.0)


def test_neighborhood_quarter_eps():
    spec = relative_size_neighborhoods(
        parse_poly("v1"), ["v1"], r=2.0, eps=0.25, k=1, l=1, c=1.0, n_cover=1,
        alpha=F(1, 2),
    )
    assert spec.delta == pytest.approx(1 / 16)
    assert spec.d_radius == pytest.approx(8.0)


def test_neighborhood_limiting_eps():
    spec = relative_size_neighborhoods(
        parse_poly("v1"), ["v1"], r=1.0, eps=0.999, k=1, l=1, c=1.0, n_cover=1,
        alpha=1,
    )
    assert spec.delta == pytest.approx(0.999)
    assert spec.d_radius == pytest.approx(1.0 / np.sqrt(0.999))


def test_neighborhood_rejects_eps_one():
    with pytest.raises(DomainError):
        relative_size_neighborhoods(
            parse_poly("v1"), ["v1"], r=1.0, eps=1.0, k=1, l=1, c=1.0, n_cover=1
        )


def test_neighborhood_default_alpha():
    spec = relative_size_neighborhoods(
        parse_poly("v1^2"), ["v1", "v2"], r=1.0, eps=0.5, k=2, l=1, c=1.0,
        n_cover=3,
    )
    # degree bound 2, l=1, k=2 -> alpha = 1/8
    assert spec.alpha == pytest.approx(1 / 8)


UPPER = PolyMatrix.from_text([["1", "x"], ["0", "1"]])


def test_relative_size_horocycle_scenario():
    # orbit (x, 1) against the variety {first coordinate = 0}
    spec = relative_size_neighborhoods(
        parse_poly("v1"), ["v1", "v2"], r=1.0, eps=0.5, k=1, l=1, c=1.0,
        n_cover=3, alpha=F(1, 2),
    )
    box = BoxRegion((0.0,), (1.0,))
    chk = relative_size_check(
        UPPER, ["x"], [0.0, 1.0], box, spec, beta=0.1, eps=0.5, grid=4000
    )
    assert chk.status is RelSizeStatus.HOLDS
    assert chk.lhs <= 0.5 * chk.rhs / 0.5  # lhs <= eps * phi measure


def test_relative_size_empty_psi_holds():
    spec = relative_size_neighborhoods(
        parse_poly("v1"), ["v1", "v2"], r=1.0, eps=0.5, k=1, l=1, c=1.0,
        n_cover=3, alpha=F(1, 2),
    )
    box = BoxRegion((2.0,), (3.0,))  # orbit (x,1) with x >= 2 never enters Psi
    chk = relative_size_check(
        UPPER, ["x"], [0.0, 1.0], box, spec, beta=0.1, eps=0.5, grid=500
    )
    assert chk.status is RelSizeStatus.HOLDS
    assert chk.lhs == 0.0


def test_relative_size_vacuous_flagged():
    # constant map: the orbit never leaves Phi, so the hypothesis fails
    ident = PolyMatrix.identity(2)
    spec = relative_size_neighborhoods(
        parse_poly("v1"), ["v1", "v2"], r=1.0, eps=0.5, k=1, l=1, c=1.0,
        n_cover=3, alpha=F(1, 2),
    )
    box = BoxRegion((0.0,), (1.0,))
    chk = relative_size_check(
        ident, ["x"], [0.0, 1.0], box, spec, beta=0.5, eps=0.5, grid=100
    )
    assert chk.status is RelSizeStatus.VACUOUS


# -- Monte Carlo points -----------------------------------------------------------


def test_monte_carlo_points_are_the_sweeps_mc_stream():
    from boxflow.goodness import _index_uniform

    box = BoxRegion((-1.0, 2.0), (3.0, 2.5))
    seen = []

    def f(points):
        seen.append(points)
        return points[:, 0]

    sublevel_measure_mc(f, box, 0.5, 1000, seed=13)
    idx = np.arange(1000)
    offs = np.stack([_index_uniform(13, a, idx) for a in range(2)], axis=-1)
    expected = np.array(box.lower) + (np.array(box.upper) - np.array(box.lower)) * offs
    assert seen[0].tobytes() == expected.tobytes()
    with pytest.raises(DomainError):
        sublevel_measure_mc(f, box, 0.5, 0, seed=13)


def mesh(axes):
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def test_midpoint_grid_is_the_meshgrid_of_cell_midpoints():
    rng = np.random.default_rng(150)
    for i in range(150):
        k = 1 + i % 3
        lower = rng.uniform(-1e3, 1e3, size=k)
        box = BoxRegion(tuple(lower), tuple(lower + rng.uniform(1e-3, 1e4, size=k)))
        n = int(rng.integers(1, 40))
        axes = [l + (u - l) * (np.arange(n) + 0.5) / n
                for l, u in zip(box.lower, box.upper)]
        assert box.midpoint_grid(n).tobytes() == mesh(axes).tobytes()
        # the per-axis coordinates that ``GridPoly.on_grid`` takes mesh to
        # both grids
        assert box.midpoint_grid(n).tobytes() == mesh(box.midpoint_axes(n)).tobytes()
        corners = [np.linspace(l, u, n) for l, u in zip(box.lower, box.upper)]
        assert box.corner_grid(n).tobytes() == mesh(corners).tobytes()
        assert box.corner_grid(n).tobytes() == mesh(box.corner_axes(n)).tobytes()


@pytest.mark.parametrize("method", ["grid", "jitter", "mc"])
def test_sample_points_do_not_depend_on_the_split(method):
    box = BoxRegion((-1.0, 0.5, 2.0), (3.0, 2.5, 2.25))
    whole = box.sample_points(7, 0, 343, method, 9)
    parts = [box.sample_points(7, lo, hi, method, 9)
             for lo, hi in ((0, 100), (100, 101), (101, 343))]
    assert np.concatenate(parts).tobytes() == whole.tobytes()
    with pytest.raises(DomainError):
        box.sample_points(7, 0, 10, "sobol", 9)


def test_grids_below_one_cell_per_axis_are_domain_errors():
    square = BoxRegion((0.0, 0.0), (1.0, 1.0))
    unit = BoxRegion((0.0,), (1.0,))
    for method in ("grid", "jitter"):
        with pytest.raises(DomainError, match="grid must be at least 1, got -2"):
            square.sample_points(-2, 0, 4, method)
    # (-2)^2 = 4 indices on the square, each mapped outside it
    with pytest.raises(DomainError, match="grid must be at least 1"):
        square.midpoint_grid(-2)
    with pytest.raises(DomainError, match="grid must be at least 1"):
        unit.midpoint_grid(-1)
    # grid 0 has no points, from which no verdict follows
    spec = relative_size_neighborhoods(
        parse_poly("v1"), ["v1", "v2"], r=1.0, eps=0.5, k=1, l=1, c=1.0,
        n_cover=3, alpha=F(1, 2),
    )
    with pytest.raises(DomainError, match="grid must be at least 1, got 0"):
        relative_size_check(UPPER, ["x"], [0.0, 1.0], unit, spec, beta=0.1, eps=0.5, grid=0)
    # "mc" draws uniform points in the box and ignores the grid
    assert square.sample_points(0, 0, 4, "mc").shape == (4, 2)


# -- grid evaluator ---------------------------------------------------------------


def reference_poly_grid_fn(p, var_order):
    """The grid closure before ``GridPoly``."""
    terms = [(float(c), [int(dict(mono).get(v, 0)) for v in var_order])
             for mono, c in p.terms()]

    def fn(points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(points.shape[0])
        for coeff, exps in terms:
            val = np.full(points.shape[0], coeff)
            for j, e in enumerate(exps):
                if e:
                    val = val * points[:, j] ** e
            out += val
        return out

    return fn


class ReferenceEntryTerms:
    """The lattice kernels' entry table before ``GridPoly``."""

    def __init__(self, p, var_order):
        self.terms = []
        n64 = ndd = 0
        for mono, coeff in p.terms():
            exps = [int(dict(mono).get(v, 0)) for v in var_order]
            c = float(coeff)
            mults = sum(1 for e in exps if e) - (math.frexp(abs(c))[0] == 0.5)
            pows = sum(2 for e in exps if e > 1)
            n64 = max(n64, (c != coeff) + pows + max(mults, 0))
            ndd = max(ndd, 1 + 2 * sum(exps))
            self.terms.append((coeff, c, exps))
        n = len(self.terms)
        self.c64 = (n64 + max(n - 1, 0)) * U * 1.01
        self.cdd = (ndd + 3 * n) * U2 * 1.01

    def f64(self, pts):
        out = np.zeros(pts.shape[0])
        mag = np.zeros(pts.shape[0])
        for _, c, exps in self.terms:
            val = np.full(pts.shape[0], c)
            for j, e in enumerate(exps):
                if e:
                    val = val * pts[:, j] ** e
            out += val
            mag += np.abs(val)
        return out, mag

    def dd(self, pts):
        hi = np.zeros(pts.shape[0])
        lo = np.zeros(pts.shape[0])
        for coeff, c, exps in self.terms:
            th = np.full(pts.shape[0], c)
            tl = np.full(pts.shape[0], float(coeff - Fraction(c)))
            for j, e in enumerate(exps):
                for _ in range(e):
                    th, tl = oracles.dd_mul_d(th, tl, pts[:, j])
            hi, lo = oracles.dd_sum(hi, lo, th, tl)
        return hi, lo


def grid_cases():
    """(polynomial, variable order, points): every entry of every catalog
    matrix and orbit map on jittered boxes up to T = 1e3, the entries of
    ``poly23_lower`` on 2 BLOCK + 1000 points, and seeded polynomials with
    inexact coefficients and constant terms."""
    from boxflow.catalog import builtin_catalog
    from boxflow.experiment import _realized_box

    cases = []
    for entry in builtin_catalog().values():
        grid = 4096 if entry.k == 1 else 64
        for T in (10.0, 1e3):
            box = _realized_box(entry.default_lambda, T)
            pts = box.sample_points(grid, 0, grid ** entry.k, "jitter", 5)
            cases += [(p, entry.map_vars, pts) for row in entry.matrix.entries for p in row]
        if entry.orbit is not None:
            orbit, names = entry.orbit
            k = len(names)
            region = BoxRegion((0.0,) * k, (1.0,) * k)
            pts = region.sample_points(16, 0, 16 ** k, "jitter", 5)
            cases += [(p, names, pts) for row in orbit.entries for p in row]
    # the criterion-10 box at T2 = 20, entries up to 5e11: more points than
    # one 2D chunk of the lattice kernel, and not a multiple of it
    entry = builtin_catalog()["poly23_lower"]
    region = BoxRegion((0.0, 0.0), (1.01 * 20.0 ** 4, 20.0))
    pts = region.sample_points(1024, 0, 2 * BLOCK + 1000, "jitter", 5)
    cases += [(p, entry.map_vars, pts) for row in entry.matrix.entries for p in row]
    rng = np.random.default_rng(20)
    var_order = ["x", "y", "z"]
    for i in range(40):
        k = 1 + i % 3
        p = GenPoly.const(F(2, 3)) if i % 4 == 0 else GenPoly.zero()
        for _ in range(1 + i % 5):
            powers = {v: int(rng.integers(0, 4)) for v in var_order[:k]}
            coeff = F(int(rng.integers(-50, 51)), int(rng.choice([1, 3, 7, 10, 64])))
            p = p + GenPoly.monomial(coeff, powers)
        pts = rng.uniform(-1e3, 1e3, size=(512, k))
        cases.append((p, var_order[:k], pts))
    return cases


# coefficients that take ``GridPoly.dd``'s exact leading product (powers
# of two) and two that keep the chain of Dekker products
EXACT_COEFFS = (F(1), F(-1), F(2), F(-2), F(1, 8), F(-1, 8))
CHAIN_COEFFS = (F(3), F(2, 3))
LEAD_MONOMIALS = ({}, {"x": 1}, {"y": 1}, {"x": 2}, {"x": 1, "y": 1},
                  {"x": 2, "y": 1}, {"x": 1, "y": 3})


def leading_product_cases():
    """(polynomial, variable order, points): every monomial of degree 0 to
    4 in ``LEAD_MONOMIALS`` alone, with each coefficient of
    ``EXACT_COEFFS`` and ``CHAIN_COEFFS``, and seeded sums of them, some
    with a constant first term, at points whose coordinates include +0.0
    and -0.0."""
    special = [0.0, -0.0, 1.0, -1.0, 3.0, -0.5, 1e3 + 0.1, -7.0 / 3.0]
    rng = np.random.default_rng(30)
    pts = np.concatenate([
        np.array([(a, b) for a in special for b in special]),
        rng.uniform(-1e3, 1e3, size=(256, 2)),
        np.stack([rng.choice([0.0, -0.0], 64), rng.uniform(-9, 9, 64)], axis=-1),
    ])
    coeffs = EXACT_COEFFS + CHAIN_COEFFS
    cases = [(GenPoly.monomial(c, mono), ["x", "y"], pts)
             for c in coeffs for mono in LEAD_MONOMIALS]
    for i in range(40):
        p = GenPoly.const(coeffs[i % len(coeffs)]) if i % 3 == 0 else GenPoly.zero()
        for k in rng.choice(len(LEAD_MONOMIALS) - 1, size=1 + i % 3, replace=False):
            p = p + GenPoly.monomial(coeffs[rng.integers(len(coeffs))],
                                     LEAD_MONOMIALS[k + 1])
        cases.append((p, ["x", "y"], pts))
    return cases


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_grid_poly_bit_identical_to_both_old_evaluators():
    cases = grid_cases() + leading_product_cases()
    assert len(cases) > 100
    inexact = constant = constant_first = 0
    lead = {c: 0 for c in EXACT_COEFFS + CHAIN_COEFFS}
    for p, var_order, pts in cases:
        table = poly_grid_fn(p, var_order)
        assert isinstance(table, GridPoly)
        ref = ReferenceEntryTerms(p, var_order)
        assert table.c64 == ref.c64 and table.cdd == ref.cdd
        # the lattice kernels' coordinate rows and their splits
        x = np.ascontiguousarray(pts.T)
        values, mag, hi, lo = np.full((4, pts.shape[0]), np.nan)
        table.f64(x, values, mag)
        ref_values, ref_mag = ref.f64(pts)
        assert same_bits(values, ref_values) and same_bits(mag, ref_mag)
        assert same_bits(table(pts), reference_poly_grid_fn(p, var_order)(pts))
        assert same_bits(table(pts), values)
        table.dd(x, [split(r) for r in x], hi, lo)
        ref_hi, ref_lo = ref.dd(pts)
        assert same_bits(hi, ref_hi) and same_bits(lo, ref_lo)
        inexact += any(c != coeff for coeff, c, _ in ref.terms)
        constant += any(not any(e) for _, _, e in table.terms)
        constant_first += bool(table.terms) and not any(table.terms[0][2])
        for coeff, _, exps in ref.terms:
            lead[coeff] = lead.get(coeff, 0) + (sum(exps) in (1, 2))
    assert inexact > 10 and constant > 10 and constant_first > 10
    # each coefficient on terms of degree one and two, whose values are
    # their leading products (or the chain for 3 and 2/3)
    assert all(lead[c] >= 3 for c in EXACT_COEFFS + CHAIN_COEFFS)


def test_grid_poly_call_takes_single_points_and_lists():
    p = parse_poly("1/3 * x^2 * y - y + 5")
    f = poly_grid_fn(p, ["x", "y"])
    ref = reference_poly_grid_fn(p, ["x", "y"])
    for pts in ([0.25, -3.0], [[0.25, -3.0], [1e3, 7.0]], np.array([2.0, 0.5])):
        assert same_bits(f(pts), ref(pts))
    assert f([0.25, -3.0]).shape == (1,)


def test_grid_poly_rejects_fractional_negative_and_unbound():
    # only the Laurent variable t carries fractional or negative exponents
    for powers, var_order in (({"t": F(1, 2)}, ["t"]), ({"t": -1}, ["t"]),
                              ({"x": 1, "y": 1}, ["x"])):
        with pytest.raises(DomainError):
            poly_grid_fn(GenPoly.monomial(1, powers), var_order)


# -- tensor grids -----------------------------------------------------------------


TENSOR_BOXES = (
    BoxRegion((-3.5, -2.25, -4.0), (-0.5, -1.0, -1.5)),    # negative corners
    BoxRegion((-1.5, -0.25, -2.0), (2.5, 3.0, 0.75)),      # straddles 0
    BoxRegion((0.25, 1.0, -7.0), (4.0, 1.5, 9.0)),
)


def tensor_polynomials():
    """(polynomial, variable order) once each: those of ``grid_cases`` and
    ``leading_product_cases``, and seeded ones in three variables whose
    terms skip the first or the middle axis."""
    polys = {(p, tuple(var_order)) for p, var_order, _ in grid_cases() + leading_product_cases()}
    rng = np.random.default_rng(40)
    monos = ({"y": 2, "z": 1}, {"x": 2, "z": 3}, {"z": 1}, {"x": 1, "y": 1, "z": 1}, {})
    for i in range(12):
        p = GenPoly.zero()
        for j in rng.choice(len(monos), size=1 + i % 4, replace=False):
            p = p + GenPoly.monomial(F(int(rng.integers(-20, 21)), 3), monos[j])
        polys.add((p, ("x", "y", "z")))
    return sorted(polys, key=repr)


def measures(f, box, grid):
    """``float.hex`` of the three grid measures of f, or the error raised."""

    def outcome(fn, *args):
        try:
            return float.hex(fn(f, box, *args))
        except DomainError as err:
            return repr(err)

    sup = sup_norm(f, box, grid)
    return (outcome(sup_norm, grid), outcome(sublevel_measure, 0.3 * sup, grid),
            outcome(fit_min_c, F(1, 3), sup * np.geomspace(0.005, 0.9, 7), grid))


def test_tensor_grid_measures_are_the_point_path_bits():
    cases = tensor_polynomials()
    assert len(cases) > 100 and sum(len(v) == 3 for _, v in cases) > 10
    runs = 0
    for p, var_order in cases:
        f = poly_grid_fn(p, var_order)
        ref = reference_poly_grid_fn(p, var_order)
        k = len(var_order)
        for box in TENSOR_BOXES:
            box = BoxRegion(box.lower[:k], box.upper[:k])
            for grid in (g for g in (2, 3, 18, 80, 512) if g ** k <= 6400):
                # the values, in the grid's order
                assert same_bits(f.on_grid(box.corner_axes(grid)), ref(box.corner_grid(grid)))
                assert same_bits(f.on_grid(box.midpoint_axes(grid)),
                                 ref(box.midpoint_grid(grid)))
                # a plain callable takes the point path
                assert measures(f, box, grid) == measures(lambda q: f(q), box, grid)
                runs += 1
    assert runs > 1000
