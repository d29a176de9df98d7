"""Certified lattice kernels: double-double arithmetic, exact-oracle
agreement along the criterion-10 boxes, carried bounds that cover the
distance to the exact lattice in every tier, the exact tier, exact counts
at ties in dimensions 2 and 3, and PrecisionError."""

import math
import pickle
from fractions import Fraction

import numpy as np
import oracles
import pytest
from rowstate import reduce_bases

from boxflow import experiment, goodness, homspace
from boxflow.catalog import get_map
from boxflow.cli import main as cli_main
from boxflow.doubledouble import (
    BLOCK,
    ADD_MUL_ERR,
    U,
    U2,
    dd_add_mul_into,
    dd_mul_d_into,
    dd_sum_into,
    split,
)
from boxflow.errors import PrecisionError
from boxflow.experiment import (
    certified_observables,
    certified_reduce,
    convergence_sweep,
    entry_tables,
    twodim_bcondition_sweep,
)
from boxflow.goodness import BoxRegion
from boxflow.homspace import (
    PREC_TOL,
    basis_shape,
    reduce_exact,
    siegel_count_exact,
    siegel_sums,
)
from boxflow.homspace import TestFunction as TF
from boxflow.polymatrix import PolyMatrix

F = Fraction
POLY23_LOWER = get_map("poly23_lower")
UL = get_map("ul_product")
HEIS3 = get_map("heis3")
HEIS3_TABLES = entry_tables(HEIS3.matrix, HEIS3.map_vars)
INDICATOR = TF("indicator", 1.0)


def _fr(hi, lo=0.0):
    return F(float(hi)) + F(float(lo))


# -- double-double arithmetic -------------------------------------------------

# the charges: the product's relative 2 U^2, the sum's absolute 3 U^2 per
# unit of |a| + |b| and the fused step's ``ADD_MUL_ERR``, each with the
# callers' slack 1.01
C_SUM = 3 * F(U2) * F(1.01)
C_MUL, C_ADD = (F(c) * F(U2) * F(1.01) for c in ADD_MUL_ERR)


def _dd(rng, shape, exp_lo, exp_hi):
    """Random normalized double-double arrays (hi, lo): |lo| <= ulp(hi)/2."""
    hi = rng.standard_normal(shape) * 10.0 ** rng.integers(exp_lo, exp_hi, shape)
    return oracles.two_sum(hi, hi * rng.uniform(-1, 1, shape) * 2.0 ** -53)


def test_error_free_transformations_are_exact():
    # on zero low parts the in-place product and sum are Dekker's two_prod
    # and two_sum, renormalized: exact
    rng = np.random.default_rng(5)
    a = rng.standard_normal(200) * 10.0 ** rng.integers(-8, 12, 200)
    b = rng.standard_normal(200) * 10.0 ** rng.integers(-8, 12, 200)
    zero = np.zeros(200)
    w = np.empty((5, 200))
    p, f = np.empty(200), np.empty(200)
    dd_mul_d_into(a, zero, b, split(b), (p, f), w)
    s, e = a.copy(), zero.copy()
    dd_sum_into(s, e, b, zero, w)
    for i in range(200):
        assert _fr(s[i], e[i]) == F(a[i]) + F(b[i])
        assert _fr(p[i], f[i]) == F(a[i]) * F(b[i])


def test_double_double_ops_within_charged_bounds():
    # the product within 2 U^2 of its value; the sum within its charge,
    # on sums that cancel to 1e-9 of their terms and on zero low parts
    rng = np.random.default_rng(6)
    hi, lo = _dd(rng, 200, 11, 12)
    b = np.round(rng.standard_normal(200) * 1e6)
    bh, bl = oracles.two_sum(-hi * b * (1 + rng.uniform(-1e-9, 1e-9, 200)),
                             hi * b * rng.uniform(-1, 1, 200) * 2.0 ** -53)
    bl[:20] = 0.0
    w = np.empty((5, 200))
    ph, pl = np.empty(200), np.empty(200)
    dd_mul_d_into(hi, lo, b, split(b), (ph, pl), w)
    pl[:20] = 0.0
    sh, sl = ph.copy(), pl.copy()
    dd_sum_into(sh, sl, bh, bl, w)
    for i in range(200):
        exact_p = _fr(hi[i], lo[i]) * F(b[i])
        if i >= 20:
            assert abs(_fr(ph[i], pl[i]) - exact_p) <= 2 * U2 * abs(exact_p)
        a, c = _fr(ph[i], pl[i]), _fr(bh[i], bl[i])
        assert abs(_fr(sh[i], sl[i]) - (a + c)) <= C_SUM * (abs(a) + abs(c))


def _step_case(name, rng, n=400):
    """Normalized (vhi, vlo, uhi, ulo) and integer mu of one case of the
    fused Lagrange step v - mu u."""
    uh, ul = _dd(rng, n, -3, 12)
    vh, vl = _dd(rng, n, -3, 12)
    mu = np.round(rng.standard_normal(n) * 10.0 ** rng.integers(0, 6, n))
    if name == "big_mu":
        mu = np.round(rng.uniform(2.0 ** 26, 2.0 ** 40, n) * rng.choice([-1.0, 1.0], n))
    elif name == "mu_zero":
        mu = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    elif name == "zero_low_parts":
        ul[:], vl[:] = 0.0, 0.0
    elif name == "v_dominates":
        # |mu u| far below |v|: the charge's c_add part carries it
        mu = np.round(rng.uniform(-9, 9, n))
        uh, ul = uh * 1e-9, ul * 1e-9
    if name in ("cancellation", "big_mu"):
        # v = mu u to about U^2 |v|, so |v - mu u| < U |v|
        mu[mu == 0] = 1.0
        ph, pl = oracles.dd_mul_d(uh, ul, mu)
        vh, vl = oracles.two_sum(ph, pl * (1 + rng.uniform(-1e-6, 1e-6, n)))
    return vh, vl, uh, ul, mu


STEP_CASES = ["random", "cancellation", "big_mu", "mu_zero", "zero_low_parts", "v_dominates"]


@pytest.mark.parametrize("name", STEP_CASES)
def test_fused_step_within_its_charge(name):
    # the step v + b u with b = -mu, as in the Lagrange pass:
    # |result - (v - mu u)| <= C_MUL |mu u| + C_ADD |v - mu u| per element,
    # in exact rationals; mu = 0 leaves the value as it is
    rng = np.random.default_rng(STEP_CASES.index(name))
    vh, vl, uh, ul, mu = _step_case(name, rng)
    gh, gl = vh.copy(), vl.copy()
    dd_add_mul_into(gh, gl, uh, ul, -mu, split(-mu), np.empty((5, mu.size)))
    cancelled = 0
    for i in range(mu.size):
        v, bu = _fr(vh[i], vl[i]), F(mu[i]) * _fr(uh[i], ul[i])
        err = abs(_fr(gh[i], gl[i]) - (v - bu))
        assert err <= C_MUL * abs(bu) + C_ADD * abs(v - bu)
        if name == "mu_zero":
            assert err == 0
        cancelled += abs(v - bu) < F(U) * abs(v)
    if name in ("cancellation", "big_mu"):
        assert cancelled == mu.size


def test_in_place_forms_are_the_functional_forms_bit_for_bit():
    # (d, n) rows times one multiplier per column, as in the Lagrange
    # step: small integers (split exactly, low half +0), integers beyond
    # 2^26 (a nonzero low half) and fractions; signed zeros included
    rng = np.random.default_rng(8)
    n = 600
    hi, lo = _dd(rng, (3, n), -6, 12)
    hi[:, :5], lo[:, :5] = -0.0, 0.0
    vhi, vlo = _dd(rng, (3, n), -6, 12)
    vhi[:, 5:9], vlo[:, 5:9] = -0.0, -0.0
    b = np.concatenate([np.round(rng.standard_normal(200) * 1e3),
                        np.round(rng.uniform(2.0 ** 26, 2.0 ** 40, 200)
                                 * rng.choice([-1.0, 1.0], 200)),
                        rng.standard_normal(200)])
    b[:3] = [0.0, -0.0, 1.0]
    w = np.empty((5, 3, n))
    ph, pl = oracles.dd_mul_d(hi, lo, b)
    fresh = np.empty((3, n)), np.empty((3, n))
    dd_mul_d_into(hi, lo, b, split(b), fresh, w)
    aliased = hi.copy(), lo.copy()
    dd_mul_d_into(*aliased, b, split(b), aliased, w)
    for got in (fresh, aliased):
        assert got[0].tobytes() == ph.tobytes() and got[1].tobytes() == pl.tobytes()
    # the sum, of two arrays and of an array with itself
    for other in ((ph, pl), None):
        got = vhi.copy(), vlo.copy()
        sh, sl = oracles.dd_sum(*got, *(other or got))
        dd_sum_into(*got, *(other or got), w)
        assert got[0].tobytes() == sh.tobytes() and got[1].tobytes() == sl.tobytes()
    # the fused step, v + b u and v + b v
    for u in ((hi, lo), None):
        got = vhi.copy(), vlo.copy()
        sh, sl = oracles.dd_add_mul(*got, *(u or got), b)
        dd_add_mul_into(*got, *(u or got), b, split(b), w)
        assert got[0].tobytes() == sh.tobytes() and got[1].tobytes() == sl.tobytes()


# -- the kernel against the exact oracle ------------------------------------------


def jittered_points(upper, grid, n, seed, stream):
    """n distinct cells of the grid x grid tessellation of the box
    [0, upper[0]] x [0, upper[1]], one uniform (full-mantissa) point in
    each, seeded by (seed, stream)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    cells = rng.choice(grid * grid, size=n, replace=False)
    multi = np.stack(np.unravel_index(cells, (grid, grid)), axis=-1)
    return np.array(upper) * (multi + rng.random(multi.shape)) / grid


def criterion_10_points(T2, n, seed):
    """n points of the criterion-10 box [0, 1.01 T2^4] x [0, T2] at grid
    1024."""
    return jittered_points((1.01 * T2 ** 4, T2), 1024, n, seed, int(T2))


def kernel_mismatches(matrix, map_vars, pts, stride=1):
    """Mismatches with the exact oracle of the certified kernel as a sweep
    runs it (its own column bounds and the exact recount of ties), on
    every ``stride``-th point: indicator counts and shortest lengths that
    differ from the exact lattice's, and samples with a column farther
    from the exact lattice than its bound.  Returns them with the number
    of exact-tier samples."""
    def exact(k):
        return experiment._exact_matrix(matrix, map_vars, pts[k])

    b, e, late = certified_reduce(matrix, map_vars, entry_tables(matrix, map_vars), pts)
    lam1, (counts,) = certified_observables(b, e, (INDICATOR,), exact)
    bad_count = bad_lam1 = bad_cover = 0
    for k in range(0, pts.shape[0], stride):
        # the exact lattice in an exactly reduced basis, which each oracle
        # below reduces again at little cost
        m = list(zip(*oracles.exact_reduce(exact(k))))
        bad_count += counts[k] != len(oracles.exact_norms(m, 1))
        bad_lam1 += abs(lam1[k] - math.sqrt(oracles.exact_shortest_sq(m))) > PREC_TOL
        dist2 = oracles.lattice_distances_sq(m, b[k].T)
        bad_cover += any(d > F(float(x)) ** 2 for d, x in zip(dist2, e[k]))
    return (bad_count, bad_lam1, bad_cover), late.size


@pytest.mark.parametrize("T2", [5.0, 10.0, 20.0])
def test_kernel_matches_exact_oracle_on_criterion_10_boxes(T2):
    # float64 alone mismatches on about 60 of these 400 points at T2 = 10
    bad, _ = kernel_mismatches(POLY23_LOWER.matrix, POLY23_LOWER.map_vars,
                               criterion_10_points(T2, 400, 2024))
    assert bad == (0, 0, 0)


@pytest.mark.parametrize("T", [1e2, 1e3])
def test_kernel_matches_exact_oracle_on_sweep2d_ul_boxes(T):
    # the boxes of the benchmark's sweep2d_ul workload, at its grid
    upper = experiment._realized_box(UL.default_lambda, T).upper
    pts = jittered_points(upper, 256, 400, 2024, int(T))
    bad, _ = kernel_mismatches(UL.matrix, UL.map_vars, pts)
    assert bad == (0, 0, 0)


def test_exact_tier_takes_what_double_double_cannot_certify():
    # at T2 = 40 the entries reach 3e14, beyond the double-double bound
    bad, n_exact = kernel_mismatches(POLY23_LOWER.matrix, POLY23_LOWER.map_vars,
                                     criterion_10_points(40.0, 24, 7))
    assert n_exact > 0
    assert bad == (0, 0, 0)


def test_exact_count_matches_exact_oracle():
    pts = criterion_10_points(10.0, 100, 11)
    for k in range(pts.shape[0]):
        point = {v: F(float(x)) for v, x in zip(POLY23_LOWER.map_vars, pts[k])}
        m = POLY23_LOWER.matrix.evaluate_exact(point)
        assert siegel_count_exact(m, 1.0) == len(oracles.exact_norms(m, 1))


# -- the kernel's bound contract, chunk by chunk ----------------------------------


def _criterion_10_box(T2):
    return BoxRegion((0.0, 0.0), (1.01 * T2 ** 4, T2))


# (map, region, grid, first and last sample) of one chunk, and the row
# states the tiers reduce: (columns, rows per column, samples) per
# ``lagrange_reduce`` call, 4 rows per column in float64 and 6 in
# double-double
ROW_KERNEL_CHUNKS = {
    # every sample float64: the entries' state is reduced in place
    "ul_product": ((UL, experiment._realized_box(UL.default_lambda, 1e3),
                    256, 0, BLOCK), [(2, 4, BLOCK)]),
    # 22 samples routed to double-double, and 215 of the 8,170 routed to
    # float64 whose certificate fails
    "poly23_T2_5": ((POLY23_LOWER, _criterion_10_box(5.0), 256, 0, BLOCK),
                    [(2, 4, 8170), (2, 6, 237)]),
    "poly23_T2_10": ((POLY23_LOWER, _criterion_10_box(10.0), 256, 0, BLOCK),
                     [(2, 4, 571), (2, 6, 7705)]),
    "poly23_T2_20": ((POLY23_LOWER, _criterion_10_box(20.0), 256, 0, BLOCK),
                     [(2, 4, 25), (2, 6, 8171)]),
    # beyond double-double: 511 of the 512 samples end in the exact tier
    "poly23_T2_1e3": ((POLY23_LOWER, _criterion_10_box(1e3), 4096, 0, 512),
                      [(2, 6, 2)]),
    "no_float64": ((POLY23_LOWER, _criterion_10_box(20.0), 256, 3 * BLOCK, 4 * BLOCK),
                   [(2, 6, BLOCK)]),
}


@pytest.mark.parametrize("name", list(ROW_KERNEL_CHUNKS))
def test_2d_bounds_cover_the_distance_to_the_exact_lattice(name, monkeypatch):
    # every column of a chunk that certified_reduce returns lies within its
    # carried bound of the exact lattice at the float64 point, in each tier
    # of the pinned tier mix; checked, with lambda_1 and the count, on every
    # 128th sample
    (entry, region, grid, start, stop), states = ROW_KERNEL_CHUNKS[name]
    pts = region.sample_points(grid, start, stop, "jitter", 3)
    calls = []
    lagrange_reduce = experiment.lagrange_reduce

    def counting(t, d, dd):
        calls.append(t.shape)
        return lagrange_reduce(t, d, dd)

    monkeypatch.setattr(experiment, "lagrange_reduce", counting)
    bad, n_exact = kernel_mismatches(entry.matrix, entry.map_vars, pts, stride=128)
    assert calls == states
    assert n_exact == (511 if name == "poly23_T2_1e3" else 0)
    assert bad == (0, 0, 0)


def _mixed_chunk():
    """The points and entry tables of ``ROW_KERNEL_CHUNKS``' mixed-tier
    chunk poly23_T2_10, 571 samples in float64 and 7,705 in
    double-double."""
    (entry, region, grid, start, stop), _ = ROW_KERNEL_CHUNKS["poly23_T2_10"]
    pts = region.sample_points(grid, start, stop, "jitter", 3)
    return entry, pts, entry_tables(entry.matrix, entry.map_vars)


def test_double_double_entries_pin_their_operation_counts(monkeypatch):
    # the four entries of poly23_lower, 1 + x^2 y + x y^4, x^2 + x y^3, y
    # and 1, in double-double: the exact leading products of x^2 y, x y^4,
    # x^2 and x y^3, the 6 Dekker products that remain, 3 sums (an
    # entry's first term is written) and one split per coordinate row of
    # the chunk
    entry, pts, tables = _mixed_chunk()
    counts = dict.fromkeys(("lead", "mul", "sum", "split"), 0)

    def counting(module, name, key):
        fn = getattr(module, name)

        def wrapped(*args):
            counts[key] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapped)

    counting(goodness, "_two_prod_into", "lead")
    counting(goodness, "dd_mul_d_into", "mul")
    counting(goodness, "dd_sum_into", "sum")
    counting(experiment, "split", "split")
    certified_reduce(entry.matrix, entry.map_vars, tables, pts)
    assert counts == {"lead": 4, "mul": 6, "sum": 3, "split": 2}


def test_tier_results_land_on_their_samples():
    # the mixed chunk's bases and bounds, written back from both tiers,
    # are those of its samples reduced as one-sample chunks; every 5th
    # sample (1,639 of them) and the last
    entry, pts, tables = _mixed_chunk()
    b, e, _ = certified_reduce(entry.matrix, entry.map_vars, tables, pts)
    for k in [*range(0, BLOCK, 5), BLOCK - 1]:
        b1, e1, _ = certified_reduce(entry.matrix, entry.map_vars, tables, pts[k:k + 1])
        assert b1.tobytes() == b[k:k + 1].tobytes()
        assert e1.tobytes() == e[k:k + 1].tobytes()


def _heis3_chunk(T, grid, stop):
    region = experiment._realized_box(HEIS3.default_lambda, T)
    return HEIS3.matrix, HEIS3.map_vars, region, grid, stop


# (matrix, variables, region, grid, last sample) of one 3D chunk, and the
# number of its samples that end in the exact tier
ROW_KERNEL_CHUNKS3 = {
    "orbit": ((*HEIS3.orbit, BoxRegion((0.0,) * 3, (1.0,) * 3),
               24, 1024), 0),
    "T_20": (_heis3_chunk(20.0, 24, 576), 0),
    "T_1e3": (_heis3_chunk(1e3, 32, 1024), 0),
    # entries up to 1e11: most samples end in the exact tier
    "T_1e4": (_heis3_chunk(1e4, 8, 64), 57),
}


@pytest.mark.parametrize("name", list(ROW_KERNEL_CHUNKS3))
def test_3d_bounds_cover_the_distance_to_the_exact_lattice(name):
    # as in 2D, on 16 samples per chunk, with the exact-tier count pinned
    (matrix, map_vars, region, grid, stop), exact_tier = ROW_KERNEL_CHUNKS3[name]
    pts = region.sample_points(grid, 0, stop, "jitter", 3)
    bad, n_exact = kernel_mismatches(matrix, map_vars, pts, stride=max(1, stop // 16))
    assert n_exact == exact_tier
    assert bad == (0, 0, 0)


# -- ties: lattice vectors exactly on the sphere --------------------------------

# (columns of a constant lattice, radius); the shear's reduction meets
# mu = 1/2, which float64 rounds to 0 and the exact reduction to 1
TIES = [
    ([[1, 0], [0, 1]], 1.0),
    ([[2, 0], [0, F(1, 2)]], 0.5),
    ([[2, 0], [0, F(1, 2)]], 2.0),
    ([[1, F(1, 2)], [0, 1]], 1.0),
]


@pytest.mark.parametrize("rows,radius", TIES)
def test_ties_count_exactly_through_certified_kernel(rows, radius, monkeypatch):
    recounts = []

    def counting(m, r):
        recounts.append(m)
        return siegel_count_exact(m, r)

    monkeypatch.setattr(experiment, "siegel_count_exact", counting)
    f = TF("indicator", radius)
    matrix = PolyMatrix(rows)
    task = (matrix, ("x",), entry_tables(matrix, ("x",)), (BoxRegion((0.0,), (1.0,)),),
            8, (f,), 0, 8, "jitter", 3, math.inf)
    _, values, _ = experiment._eval_chunk(task)
    exact = len(oracles.exact_norms(rows, radius))
    assert values[0].tolist() == [exact] * 8
    # the constant columns are exact as stored, so the tie rows are counted
    # from them and no lattice is recounted
    assert len(recounts) == 0


@pytest.mark.parametrize("rows,radius", TIES)
def test_tie_recount_fires_on_ties_only(rows, radius):
    rng = np.random.default_rng(41)
    mats = np.empty((300, 2, 2))
    for i in range(300):
        x, y, a = rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.5, 2.0)
        mats[i] = [[a + x * y / a, x / a], [y / a, 1 / a]]
    at = int(rng.integers(0, 300))
    mats[at] = np.array(rows, dtype=float)
    b, _, done = reduce_bases(mats, np.zeros((300, 2)))
    assert done.all()
    # the bounds the sweeps allow a certified basis
    _, (ties,) = siegel_sums(b, np.full((300, 2), PREC_TOL),
                             (TF("indicator", radius),), basis_shape(b))
    assert np.nonzero(ties)[0].tolist() == [at]


@pytest.mark.parametrize("name", ["u_horo", "heis52"])
def test_2d_tie_rows_on_exact_columns_skip_the_exact_lattice(name, monkeypatch):
    # the lattices [[1, x], [0, 1]] Z^2 keep e1, exact in float64, on the
    # sphere |v| = 1 at every sample; that row is counted from the stored
    # column.  No midpoint x is an integer, so every count is 2
    recounts = []

    def counting(m, r):
        recounts.append(m)
        return siegel_count_exact(m, r)

    monkeypatch.setattr(experiment, "siegel_count_exact", counting)
    entry = get_map(name)
    region = experiment._realized_box(entry.default_lambda, 10.0)
    task = (entry.matrix, entry.map_vars, entry_tables(entry.matrix, entry.map_vars),
            (region,), 4096, (INDICATOR,), 0, 4096, "grid", 0, math.inf)
    _, values, _ = experiment._eval_chunk(task)
    assert values[0].tolist() == [2.0] * 4096
    assert recounts == []


# -- dimension 3: exact counts and ties -----------------------------------------


def random_rational_sl3(rng):
    m = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    for _ in range(4):
        i, j = (int(x) for x in rng.choice(3, 2, replace=False))
        x = F(int(rng.integers(-20, 21)), int(rng.integers(1, 9)))
        # column j += x column i
        for row in m:
            row[j] += x * row[i]
    return m


def test_exact_3d_count_and_shortest_match_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(30):
        m = random_rational_sl3(rng)
        for radius in (0.7, 1.0, 1.5):
            assert siegel_count_exact(m, radius) == len(oracles.exact_norms(m, radius))
        assert np.linalg.norm(reduce_exact(m)[:, 0]) == pytest.approx(
            math.sqrt(oracles.exact_shortest_sq(m)), rel=1e-15
        )


# (columns of a constant lattice at R = 1): identity, a diagonal, a shear
# with mu = 1/2, a rotation by the 3-4-5 angle (unit columns that float64
# does not hold exactly) and a point of the heis3 orbit
TIES3 = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[2, 0, 0], [0, F(1, 2), 0], [0, 0, 1]],
    [[1, F(1, 2), 0], [0, 1, 0], [0, 0, 1]],
    [[F(3, 5), F(-4, 5), 0], [F(4, 5), F(3, 5), 0], [0, 0, 1]],
    [[1, F(1, 2), F(1, 4)], [0, 1, F(1, 2)], [0, 0, 1]],
]


@pytest.mark.parametrize("rows", TIES3)
def test_3d_ties_count_exactly_through_certified_kernel(rows):
    matrix = PolyMatrix(rows)
    task = (matrix, ("x",), entry_tables(matrix, ("x",)), (BoxRegion((0.0,), (1.0,)),),
            8, (INDICATOR,), 0, 8, "jitter", 3, math.inf)
    _, values, _ = experiment._eval_chunk(task)
    exact = len(oracles.exact_norms(rows, 1))
    assert values[0].tolist() == [exact] * 8


def test_3d_tie_rows_on_exact_columns_skip_the_exact_lattice(monkeypatch):
    # heis3 keeps e1, exact in float64, on the sphere |v| = 1 at every
    # sample; that row is counted from the stored column, and the lattice
    # is recounted only at genuine near-ties
    recounts = []

    def counting(m, r):
        recounts.append(m)
        return siegel_count_exact(m, r)

    monkeypatch.setattr(experiment, "siegel_count_exact", counting)
    region = experiment._realized_box(HEIS3.default_lambda, 20.0)
    task = (HEIS3.matrix, HEIS3.map_vars, HEIS3_TABLES, (region,), 24, (INDICATOR,),
            0, 576, "jitter", 1, math.inf)
    _, values, _ = experiment._eval_chunk(task)
    assert values[0].tolist() == [2.0] * 576
    assert recounts == []


def test_3d_exact_columns_are_counted_as_stored(monkeypatch):
    # float64 puts b1 = (0.6, 0.8, 0) on the unit sphere, but the stored
    # column is exactly 1 + 4.4e-17 long; its row is decided from the
    # column itself, with no exact recount of the lattice
    monkeypatch.setattr(experiment, "siegel_count_exact", None)
    mats = np.array([[[0.6, -1.2, 0.0], [0.8, 0.9, 0.0], [0.0, 0.0, 1.3]]])
    assert math.hypot(0.6, 0.8) == 1.0
    exact = [[F(float(x)) for x in row] for row in mats[0]]
    b, e, done = reduce_bases(mats, np.zeros((1, 3)))
    assert done.all() and np.max(e) <= PREC_TOL
    _, values = certified_observables(b, e, (INDICATOR,), lambda k: exact)
    assert values[0].tolist() == [len(oracles.exact_norms(exact, 1))] == [0]


def test_exact_rows_count_each_row_exactly():
    # rows c1 b1 + c2 b2 + c3 b3 of a mixed batch: samples equal to the
    # first sample's row (one of them outside the mask), one whose b1 holds
    # -0.0 where the first holds 0.0, one whose b2 differs (the same row
    # while c2 = 0), and distinct dyadic rows; with c3 = 0 and c2 = 0 or
    # 1, and with c3 = 1 and c2 per sample
    rng = np.random.default_rng(41)
    base = np.array([[1.0, 0.5, 0.25], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])
    b = np.repeat(base[None], 40, axis=0)
    b[5, 1, 0] = -0.0
    b[6, :, 1] = (0.75, 1.25, 0.0)
    b[20:] += rng.integers(-8, 9, (20, 3, 3)) / 16
    own = np.ones(40, dtype=bool)
    own[[3, 30]] = False
    c2_per_sample = np.where(np.arange(40) < 20, 1.0, rng.integers(-2, 3, 40))
    for c2, c3 in ((0, 0), (1, 0), (c2_per_sample, 1)):
        n = np.full(40, -1.0)
        homspace._exact_rows(b, own, c2, c3, 1.5, n)
        c2 = np.broadcast_to(c2, (40,))
        want = [
            oracles.row_count(b[k, :, 0], [F(c2[k]) * F(x) + c3 * F(y) for x, y
                                           in zip(b[k, :, 1], b[k, :, 2])], 1.5)
            if own[k] else -1.0 for k in range(40)]
        assert n.tolist() == want
        assert len({want[k] for k in range(20, 40) if own[k]} - {want[0]}) > 0


def general_row_sums(b, e, shape, f):
    """``homspace._row_sums`` with the row of the origin run as a general
    row of weight 1, through ``_interval``, ``_bump_row`` and the doubt
    test at R -+ rho_row, as before its closed form: the reference that
    the closed form matches bit for bit."""
    H = homspace
    b11, m12, _, h2, _, _ = shape
    norm1 = np.sqrt(b11)
    radius = f.radius
    r2 = radius * radius

    def rows(r):
        yield 1.0, slice(None), 0, 0, 0 * m12, (0 * h2) ** 2
        for row in H._rows(shape, r):
            yield (2.0, *row)

    total = np.zeros(b.shape[0])
    if f.kind == "bump":
        for w, k, _, _, centre, d2 in rows(radius):
            lo, n = H._interval(centre, r2 - d2, norm1[k])
            total[k] += w * H._bump_row(n, lo + (n - 1.0) / 2.0 - centre, r2 - d2,
                                        r2, b11[k] / r2)
        return total, np.zeros(b.shape[0], dtype=bool)
    c = b.transpose(2, 1, 0)
    eps = [e[:, j] + H._ROW_SLACK * np.sqrt(H._coord_dot(c[j], c[j]))
           for j in range(b.shape[2])]
    big = radius + 1.0
    rho = H._margin(shape, eps, norm1, big)
    ties = rho > 1.0
    exact_cols = e == 0.0
    for w, k, c2, c3, centre, d2 in rows(radius + np.minimum(rho, 1.0)):
        norm = norm1[k]
        n = H._interval(centre, r2 - d2, norm)[1]
        rho_row = (np.abs(centre) + big / norm) * eps[0][k] + np.abs(c2) * eps[1][k]
        if c3:
            rho_row = rho_row + c3 * eps[2][k]
        outer = (radius + rho_row) ** 2 - d2
        inner = np.maximum(radius - rho_row, 0.0) ** 2 - d2
        doubt = H._interval(centre, inner, norm)[1] != H._interval(centre, outer, norm)[1]
        if doubt.any():
            cols = exact_cols[k]
            own = (doubt & cols[:, 0] & ((c2 == 0) | cols[:, 1])
                   & (c3 == 0 or cols[:, 2]))
            ties[k] |= doubt & ~own
            if own.any():
                H._exact_rows(b[k], own, c2, c3, radius, n)
        total[k] += w * n
    return total, ties


def near_cusp_bases(rng, n, m):
    """m reduced n x n bases with lambda_1 from 1e-5 to 1, and column
    bounds of 0, 1e-12 or PREC_TOL: rotations of diag(t, ..., 1/t) times
    unimodular words, with b1 made a power of two times e1 in every
    eighth, whose lattice points c1 b1 lie on spheres of radius 1, 1.5
    and 2.5 for some c1."""
    t = np.geomspace(1e-5, 1.0, m)
    mats = np.empty((m, n, n))
    for i in range(m):
        d = [t[i], 1 / t[i]] if n == 2 else [t[i], rng.uniform(1, 3), 0.0]
        if n == 3:
            d[2] = 1 / (d[0] * d[1])
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        word = np.eye(n)
        for _ in range(4):
            j, k = rng.choice(n, 2, replace=False)
            word[:, j] += rng.integers(-2, 3) * word[:, k]
        mats[i] = q @ np.diag(d) @ word
        if i % 8 == 0:
            mats[i] = np.diag(d)
            mats[i, 0, 0] = 2.0 ** -int(rng.integers(1, 17))
            mats[i, n - 1, n - 1] = 1 / (mats[i, 0, 0] * (mats[i, 1, 1] if n == 3 else 1.0))
    b, _, done = reduce_bases(mats, np.zeros((m, n)))
    assert done.all()
    return b, rng.choice([0.0, 1e-12, PREC_TOL], (m, n))


def closed_form_cases():
    """(name, b, e) of reduced bases with their column bounds: certified
    chunks of ul_product, poly23_lower and heis3 (its closed orbit, whose
    e1 is exact, and a box at T = 1e3), and near-cusp bases in 2D and 3D."""
    rng = np.random.default_rng(5)
    chunks = {
        "ul_product": (UL.matrix, UL.map_vars,
                       experiment._realized_box(UL.default_lambda, 1e3), 256),
        "poly23_lower": (POLY23_LOWER.matrix, POLY23_LOWER.map_vars,
                         _criterion_10_box(10.0), 256),
        "heis3_orbit": (*HEIS3.orbit, BoxRegion((0.0,) * 3, (1.0,) * 3), 24),
        "heis3_T_1e3": (HEIS3.matrix, HEIS3.map_vars,
                        experiment._realized_box(HEIS3.default_lambda, 1e3), 32),
    }
    for name, (matrix, map_vars, region, grid) in chunks.items():
        pts = region.sample_points(grid, 0, 1024, "jitter", 3)
        b, e, _ = certified_reduce(matrix, map_vars, entry_tables(matrix, map_vars), pts)
        yield name, b, e
    for n in (2, 3):
        yield f"near_cusp_{n}d", *near_cusp_bases(rng, n, 512)


def test_the_origin_row_closed_form_is_the_general_row(monkeypatch):
    # values, ties and the masks of the rows counted exactly from stored
    # columns, bit for bit, for both kinds at R = 1, 1.5 and 2.5
    calls = []
    exact_rows = homspace._exact_rows

    def recording(b, own, c2, c3, radius, n):
        exact_rows(b, own, c2, c3, radius, n)
        calls.append((own.tobytes(), np.asarray(c2).tobytes(), c3,
                      n[own].tobytes()))

    monkeypatch.setattr(homspace, "_exact_rows", recording)
    origin_own = ties = 0
    for name, b, e in closed_form_cases():
        shape = basis_shape(b)
        for f in (TF(kind, radius) for kind in ("indicator", "bump")
                  for radius in (1.0, 1.5, 2.5)):
            got = homspace._row_sums(b, e, shape, f)
            got_calls, calls[:] = calls[:], []
            want = general_row_sums(b, e, shape, f)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want], (name, f)
            assert got_calls == calls, (name, f)
            origin_own += sum(c[1:3] == (np.asarray(0).tobytes(), 0) for c in calls)
            ties += np.count_nonzero(want[1])
            calls.clear()
    assert origin_own > 0 and ties > 0


def _round_up(q):
    """The least float64 not below the rational q."""
    f = float(q)
    return f if F(f) >= q else math.nextafter(f, math.inf)


def test_sl3_greedy_bounds_cover_the_distance_to_the_exact_lattice():
    # entries with denominators 3, 5, 6 and 7 round in float64; the
    # reduction multiplies those errors, and the carried bounds follow
    rng = np.random.default_rng(23)
    exact = [random_rational_sl3(rng) for _ in range(60)]
    mats = np.array([[[float(x) for x in row] for row in m] for m in exact])
    # each column's starting bound is its exact rounding error, rounded up:
    # a column no step moves keeps it
    err = np.array([[_round_up(sum(abs(F(float(x)) - x) for x in col))
                     for col in zip(*m)] for m in exact])
    b, e, done = reduce_bases(mats, err)
    assert done.all()
    grew = 0
    for m, basis, bound, start in zip(exact, b, e, err):
        # the exact lattice vector a column stands for is the nearest one
        for dist2, x in zip(oracles.lattice_distances_sq(m, basis.T), bound):
            assert dist2 <= F(float(x)) ** 2
            grew += dist2 > F(float(max(start))) ** 2
    assert grew > 0


def test_heis3_certifies_every_sample_in_float64_at_T_1e3():
    # the entries reach 1.8e8; the carried bounds stay below 1e-7
    region = experiment._realized_box(HEIS3.default_lambda, 1e3)
    # a budget of 0 exact samples: any sample beyond float64 raises
    task = (HEIS3.matrix, HEIS3.map_vars, HEIS3_TABLES, (region,), 16, (INDICATOR,),
            0, 256, "jitter", 5, 0.0)
    _, values, n_exact = experiment._eval_chunk(task)
    assert n_exact == 0
    assert values[0].tolist() == [2.0] * 256
    res = convergence_sweep(HEIS3, HEIS3.default_lambda, [1e3], [INDICATOR], grid=16)
    assert (res.rows[0].average, res.rows[0].reference) == (2.0, 2.0)


def test_heis3_precision_error_beyond_float64():
    # at T = 1e4 the entries reach 1e11 and the bounds 3e-5: the exact tier
    # takes most samples, which is over budget for a sweep
    region = experiment._realized_box(HEIS3.default_lambda, 1e4)
    task = (HEIS3.matrix, HEIS3.map_vars, HEIS3_TABLES, (region,), 8, (INDICATOR,),
            0, 64, "jitter", 5, math.inf)
    lam1, values, n_exact = experiment._eval_chunk(task)
    assert n_exact > 32
    assert lam1.tolist() == [1.0] * 64 and values[0].tolist() == [2.0] * 64
    with pytest.raises(PrecisionError) as err:
        convergence_sweep(HEIS3, HEIS3.default_lambda, [1e4], [INDICATOR], grid=16)
    assert err.value.flagged > 1e-3 * err.value.total


def test_equi_exits_1_on_heis3_precision_error(tmp_path, capsys):
    code = cli_main([
        "equi", "--map", "heis3", "--T", "10000", "--grid", "16",
        "--out", str(tmp_path),
    ])
    assert code == 1
    assert "float64 certification" in capsys.readouterr().err


# -- deep in the cusp -------------------------------------------------------------

# constant lattices with b1 = e1/2e6 (2D) and e1/1e7 (3D), whose other
# columns are too long for a vector of norm <= 1: one row c1 b1 of 4e6 and
# 2e7 vectors, with c1 b1 on the sphere R = 1 at c1 = 2e6 and 1e7
DEEP = [
    [[F(1, 2 * 10 ** 6), 0], [0, 2 * 10 ** 6]],
    [[F(1, 10 ** 7), 0, 0], [0, 3000, 0], [0, 0, F(10 ** 4, 3)]],
]


@pytest.mark.parametrize("rows", DEEP, ids=["2d_lam1_5e-7", "3d_lam1_1e-7"])
def test_deep_cusp_samples_count_exactly_through_certified_kernel(rows):
    matrix = PolyMatrix(rows)
    fs = (INDICATOR, TF("bump", 1.0))
    task = (matrix, ("x",), entry_tables(matrix, ("x",)), (BoxRegion((0.0,), (1.0,)),),
            8, fs, 0, 8, "jitter", 3, math.inf)
    _, (counts, bumps), _ = experiment._eval_chunk(task)
    diag = [row[i] for i, row in enumerate(rows)]
    count = oracles.diagonal_sum(diag, "indicator", 1)
    assert count == 2 / diag[0]
    assert counts.tolist() == [count] * 8
    bump = float(oracles.diagonal_sum(diag, "bump", 1))
    assert bumps.tolist() == pytest.approx([bump] * 8, rel=1e-12)


# -- beyond the certifiable range -----------------------------------------------


def test_precision_error_beyond_certifiable_range():
    with pytest.raises(PrecisionError) as err:
        twodim_bcondition_sweep(POLY23_LOWER, 4, [1e3], [INDICATOR], grid=16)
    assert err.value.flagged > 1e-3 * err.value.total
    # the counts survive the trip back from a worker process
    again = pickle.loads(pickle.dumps(err.value))
    assert (again.flagged, again.total) == (err.value.flagged, err.value.total)


def test_equi_exits_1_on_precision_error(tmp_path, capsys):
    code = cli_main([
        "equi", "--map", "poly23_lower", "--t2", "1000", "--grid", "16",
        "--out", str(tmp_path),
    ])
    assert code == 1
    assert "double-double" in capsys.readouterr().err
