"""Certified lattice kernels: double-double arithmetic, exact-oracle
agreement along the criterion-10 boxes, the exact tier, exact counts at
ties in dimensions 2 and 3, and PrecisionError."""

import math
import pickle
from fractions import Fraction

import numpy as np
import oracles
import pytest

from boxflow import experiment
from boxflow.catalog import get_map
from boxflow.cli import main as cli_main
from boxflow.doubledouble import U2, dd_add, dd_mul_d, two_prod, two_sum
from boxflow.errors import PrecisionError
from boxflow.experiment import (
    BoxSpec,
    certified_observables,
    certified_reduce,
    convergence_sweep,
    twodim_bcondition_sweep,
)
from boxflow.goodness import BoxRegion
from boxflow.homspace import (
    PREC_TOL,
    reduce_exact,
    siegel_batch,
    siegel_count_exact,
    siegel_sums,
    sl2_reduce_batch,
    sl3_greedy,
)
from boxflow.homspace import TestFunction as TF
from boxflow.polymatrix import PolyMatrix

F = Fraction
POLY23_LOWER = get_map("poly23_lower")
HEIS3 = get_map("heis3")
INDICATOR = TF("indicator", 1.0)


def _fr(hi, lo=0.0):
    return F(float(hi)) + F(float(lo))


# -- double-double arithmetic -------------------------------------------------


def test_error_free_transformations_are_exact():
    rng = np.random.default_rng(5)
    a = rng.standard_normal(200) * 10.0 ** rng.integers(-8, 12, 200)
    b = rng.standard_normal(200) * 10.0 ** rng.integers(-8, 12, 200)
    s, e = two_sum(a, b)
    p, f = two_prod(a, b)
    for i in range(200):
        assert _fr(s[i], e[i]) == F(a[i]) + F(b[i])
        assert _fr(p[i], f[i]) == F(a[i]) * F(b[i])


def test_double_double_ops_within_charged_bounds():
    rng = np.random.default_rng(6)
    hi = rng.standard_normal(200) * 1e11
    lo = hi * rng.uniform(-1, 1, 200) * 2.0 ** -54
    b = np.round(rng.standard_normal(200) * 1e6)
    bh = -hi * b * (1 + rng.uniform(-1e-9, 1e-9, 200))
    bl = bh * rng.uniform(-1, 1, 200) * 2.0 ** -54
    ph, pl = dd_mul_d(hi, lo, b)
    sh, sl = dd_add(ph, pl, bh, bl)
    for i in range(200):
        exact_p = _fr(hi[i], lo[i]) * F(b[i])
        assert abs(_fr(ph[i], pl[i]) - exact_p) <= 2 * U2 * abs(exact_p)
        exact_s = _fr(ph[i], pl[i]) + _fr(bh[i], bl[i])
        assert abs(_fr(sh[i], sl[i]) - exact_s) <= 3 * U2 * abs(exact_s)


# -- the kernel against the exact oracle ------------------------------------------


def jittered_points(T2, n, seed):
    """n distinct cells of the criterion-10 box [0, 1.01 T2^4] x [0, T2]
    at grid 1024, one uniform (full-mantissa) point in each."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, int(T2)]))
    cells = rng.choice(1024 * 1024, size=n, replace=False)
    multi = np.stack(np.unravel_index(cells, (1024, 1024)), axis=-1)
    spans = np.array([1.01 * T2 ** 4, T2])
    return spans * (multi + rng.random(multi.shape)) / 1024


def kernel_mismatches(pts):
    b, _, n_exact = certified_reduce(POLY23_LOWER.matrix, POLY23_LOWER.map_vars, pts)
    b1, b2 = b[:, :, 0], b[:, :, 1]
    lam1 = np.sqrt(np.sum(b1 * b1, axis=1))
    counts, excluded = siegel_batch(b1, b2, lam1, INDICATOR)
    assert not excluded.any()
    bad_count = bad_lam1 = 0
    for k in range(pts.shape[0]):
        point = {v: F(float(x)) for v, x in zip(POLY23_LOWER.map_vars, pts[k])}
        m = POLY23_LOWER.matrix.evaluate_exact(point)
        bad_count += counts[k] != len(oracles.exact_norms(m, 1))
        bad_lam1 += abs(lam1[k] - math.sqrt(oracles.exact_shortest_sq(m))) > PREC_TOL
    return bad_count, bad_lam1, n_exact


@pytest.mark.parametrize("T2", [5.0, 10.0, 20.0])
def test_kernel_matches_exact_oracle_on_criterion_10_boxes(T2):
    # float64 alone mismatches on about 60 of these 400 points at T2 = 10
    bad_count, bad_lam1, _ = kernel_mismatches(jittered_points(T2, 400, 2024))
    assert (bad_count, bad_lam1) == (0, 0)


def test_exact_tier_takes_what_double_double_cannot_certify():
    # at T2 = 40 the entries reach 3e14, beyond the double-double bound
    bad_count, bad_lam1, n_exact = kernel_mismatches(jittered_points(40.0, 24, 7))
    assert n_exact > 0
    assert (bad_count, bad_lam1) == (0, 0)


def test_exact_count_matches_exact_oracle():
    pts = jittered_points(10.0, 100, 11)
    for k in range(pts.shape[0]):
        point = {v: F(float(x)) for v, x in zip(POLY23_LOWER.map_vars, pts[k])}
        m = POLY23_LOWER.matrix.evaluate_exact(point)
        assert siegel_count_exact(m, 1.0) == len(oracles.exact_norms(m, 1))


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
    task = (PolyMatrix(rows), ("x",), BoxRegion((0.0,), (1.0,)), 8, (f,),
            0, 8, "jitter", 3, math.inf)
    _, values, excluded, _ = experiment._eval_chunk(task)
    assert not excluded.any()
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
    b1, b2, lam1 = sl2_reduce_batch(mats)
    # the bounds the sweeps allow a certified basis
    _, _, (ties,) = siegel_sums(np.stack([b1, b2], axis=2), np.full((300, 2), PREC_TOL),
                                lam1, (TF("indicator", radius),))
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
    region = BoxSpec(lam=entry.default_lambda, T=10.0, grid=4096).realized_region()
    task = (entry.matrix, entry.map_vars, region, 4096, (INDICATOR,), 0, 4096,
            "grid", 0, math.inf)
    _, values, excluded, _ = experiment._eval_chunk(task)
    assert not excluded.any()
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
    task = (PolyMatrix(rows), ("x",), BoxRegion((0.0,), (1.0,)), 8, (INDICATOR,),
            0, 8, "jitter", 3, math.inf)
    _, values, excluded, _ = experiment._eval_chunk(task)
    assert not excluded.any()
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
    region = BoxSpec(lam=HEIS3.default_lambda, T=20.0, grid=24).realized_region()
    task = (HEIS3.matrix, HEIS3.map_vars, region, 24, (INDICATOR,), 0, 576,
            "jitter", 1, math.inf)
    _, values, _, _ = experiment._eval_chunk(task)
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
    b, e, done = sl3_greedy(mats, np.zeros((1, 3)))
    assert done.all() and np.max(e) <= PREC_TOL
    _, values, _ = certified_observables(b, e, (INDICATOR,), lambda k: exact)
    assert values[0].tolist() == [len(oracles.exact_norms(exact, 1))] == [0]


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
    b, e, done = sl3_greedy(mats, err)
    assert done.all()
    grew = 0
    for m, basis, bound, start in zip(exact, b, e, err):
        inv = oracles.adjugate(list(zip(*m)))  # m^-1, as det m = 1
        for j in range(3):
            col = [F(float(x)) for x in basis[:, j]]
            # the exact lattice vector the column stands for is the nearest one
            c = [round(sum(r * x for r, x in zip(row, col))) for row in inv]
            diff = [col[i] - sum(m[i][k] * c[k] for k in range(3)) for i in range(3)]
            dist2 = sum(d * d for d in diff)
            assert dist2 <= F(float(bound[j])) ** 2
            grew += dist2 > F(float(max(start))) ** 2
    assert grew > 0


def test_heis3_certifies_every_sample_in_float64_at_T_1e3():
    # the entries reach 1.8e8; the carried bounds stay below 1e-7
    region = BoxSpec(lam=HEIS3.default_lambda, T=1e3, grid=16).realized_region()
    # a budget of 0 exact samples: any sample beyond float64 raises
    task = (HEIS3.matrix, HEIS3.map_vars, region, 16, (INDICATOR,), 0, 256,
            "jitter", 5, 0.0)
    _, values, excluded, n_exact = experiment._eval_chunk(task)
    assert n_exact == 0 and not excluded.any()
    assert values[0].tolist() == [2.0] * 256
    res = convergence_sweep(HEIS3, HEIS3.default_lambda, [1e3], [INDICATOR], grid=16)
    assert (res.rows[0].average, res.rows[0].reference) == (2.0, 2.0)


def test_heis3_precision_error_beyond_float64():
    # at T = 1e4 the entries reach 1e11 and the bounds 3e-5: the exact tier
    # takes most samples, which is over budget for a sweep
    region = BoxSpec(lam=HEIS3.default_lambda, T=1e4, grid=8).realized_region()
    task = (HEIS3.matrix, HEIS3.map_vars, region, 8, (INDICATOR,), 0, 64,
            "jitter", 5, math.inf)
    lam1, values, _, n_exact = experiment._eval_chunk(task)
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
