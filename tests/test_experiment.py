"""Sweep engine: periodicity oracle, change of variables, determinism."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import oracles
import pytest

from boxflow import experiment
from boxflow.catalog import MapEntry, get_map
from boxflow.doubledouble import BLOCK
from boxflow.errors import CuspExcursionError, DomainError, PrecisionError
from boxflow.experiment import (
    convergence_sweep,
    periodic_reference,
    twodim_bcondition_sweep,
)
from boxflow.goodness import BoxRegion, GridPoly
from boxflow.homspace import ROW_CAP
from boxflow.homspace import TestFunction as TF
from boxflow.polymatrix import PolyMatrix

F = Fraction

U_HORO = get_map("u_horo")
UL = get_map("ul_product")
HEIS3 = get_map("heis3")


def average(entry, lam, T, f, grid, **kwargs):
    """The one row's average of a one-box, one-observable sweep."""
    [row] = convergence_sweep(entry, lam, [T], [f], grid=grid, **kwargs).rows
    return row.average


def test_convergence_sweep_checks_exponents_and_subbox():
    f = [TF("indicator", 1.0)]
    with pytest.raises(DomainError, match="box exponents must be positive"):
        convergence_sweep(UL, (F(1), F(0)), [10.0], f, grid=16)
    for J in (BoxRegion((0.0,), (1.5,)), BoxRegion((0.0,), (1.0,))):
        with pytest.raises(DomainError, match="J must be a subbox of the unit cube"):
            convergence_sweep(UL, (F(1), F(1, 2)), [10.0], f, J=J, grid=16)


def test_realized_box_scales_the_subbox():
    region = experiment._realized_box((F(1), F(1, 2)), 100.0)
    assert region.lower == (0.0, 0.0)
    assert region.upper == (100.0, 10.0)
    sub = experiment._realized_box((F(1),), 100.0, BoxRegion((0.5,), (1.0,)))
    assert sub.lower == (50.0,)
    with pytest.raises(DomainError, match="overflows"):
        experiment._realized_box((F(1), F(400)), 10.0)


def test_birkhoff_periodicity_oracle():
    # the horocycle observable has period 1; averages over [0,1] and
    # [0,10] agree
    fs = [TF("indicator", 1.2), TF("indicator", 0.5)]
    rows = convergence_sweep(U_HORO, (F(1),), [1.0, 10.0], fs, grid=4096).rows
    for r1, r10 in zip(rows[:2], rows[2:]):
        assert r1.average == pytest.approx(r10.average, abs=1e-3)


def test_birkhoff_grid_precondition():
    with pytest.raises(DomainError, match="need at least 8 grid points"):
        convergence_sweep(U_HORO, (F(1),), [1.0], [TF("indicator", 1.0)], grid=7)


def test_subbox_full_cube_matches_birkhoff():
    # midpoints map to midpoints under the axiswise rescaling, so the unit
    # cube as J gives the full box's average exactly
    f = TF("indicator", 1.0)
    direct = average(UL, (F(1), F(1, 2)), 50.0, f, 32)
    unit = BoxRegion((0.0, 0.0), (1.0, 1.0))
    assert average(UL, (F(1), F(1, 2)), 50.0, f, 32, J=unit) == direct


def test_subbox_degenerate_cell():
    f = TF("indicator", 1.0)
    tiny = BoxRegion((0.5, 0.5), (0.500001, 0.500001))
    assert average(UL, (F(1), F(1, 2)), 50.0, f, 8, J=tiny) >= 0.0


def nondiv(entry, lam, T, grid, eps0_list):
    """The nondivergence fractions of one box, by eps0."""
    [row] = convergence_sweep(entry, lam, [T], [TF("indicator", 1.0)], grid=grid,
                              eps0_list=eps0_list).rows
    return dict(row.nondiv)


def test_nondivergence_identity_and_monotone():
    fractions = nondiv(UL, (F(1), F(1, 2)), 100.0, 48, [0.1, 0.05])
    assert fractions[0.05] >= fractions[0.1] >= 0.9
    # eps0 = 0 holds every lattice: no compact set, so no measurement
    with pytest.raises(DomainError):
        nondiv(UL, (F(1), F(1, 2)), 100.0, 48, [0.1, 0.0])


def test_nondivergence_horocycle():
    assert nondiv(U_HORO, (F(1),), 1000.0, 2048, [0.1])[0.1] >= 0.9


def test_periodic_reference_horocycle():
    # one-period average of the unit-ball count on the closed orbit is 2
    assert periodic_reference(U_HORO, [TF("indicator", 1.0)]) == [pytest.approx(2.0)]


def test_periodic_reference_runs_no_lattice_chunk(monkeypatch):
    # the reference is a closed form: one call for two observables gives the
    # bits of one call each, and only the sweep's boxes run the lattice kernel
    fs = [TF("indicator", 1.5), TF("bump", 1.5)]
    alone = [periodic_reference(HEIS3, [f])[0] for f in fs]
    calls = []
    real = experiment._observable_values
    monkeypatch.setattr(experiment, "_observable_values",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    assert periodic_reference(HEIS3, fs) == alone
    assert calls == []
    convergence_sweep(HEIS3, HEIS3.default_lambda, [10.0, 20.0], fs, grid=8)
    # one call for the sweep's two boxes, and no chunk for the reference
    assert len(calls) == 1 and len(calls[0][2]) == 2


# the slice sums of heis3 (v = (a, b, c): the planes c != 0, the lines
# b != 0 = c and the points a != 0 = b = c) and of the horocycle (the lines
# n != 0 and the points m != 0), rho^2 = R^2 - delta^2 for a slice at
# distance delta: the ball gives pi rho^2, 2 rho and 1, the bump
# pi rho^6/(3 R^4), 16 rho^5/(15 R^4) and (rho^2/R^2)^2
SLICE_SUMS = {
    ("heis3", "indicator", 1.0): 2.0,
    ("heis3", "indicator", 1.5): 5 * math.pi / 2 + 2 * math.sqrt(5) + 2,
    ("heis3", "indicator", 2.5): 15 * math.pi + 2 * math.sqrt(21) + 10,
    ("heis3", "bump", 1.0): 0.0,
    ("heis3", "bump", 1.5): (2 * math.pi * 1.25 ** 3 / 3 + 32 * 1.25 ** 2.5 / 15) / 1.5 ** 4
    + 50 / 81,
    ("heis3", "bump", 2.5): (2 * math.pi * (5.25 ** 3 + 2.25 ** 3) / 3
                             + 32 * (5.25 ** 2.5 + 2.25 ** 2.5) / 15) / 2.5 ** 4
    + 2 * (0.84 ** 2 + 0.36 ** 2),
    ("u_horo", "indicator", 1.0): 2.0,
    ("u_horo", "indicator", 1.5): 2 * math.sqrt(5) + 2,
    ("u_horo", "indicator", 2.5): 2 * math.sqrt(21) + 10,
    ("u_horo", "bump", 1.0): 0.0,
    ("u_horo", "bump", 1.5): 32 * 1.25 ** 2.5 / 15 / 1.5 ** 4 + 50 / 81,
    ("u_horo", "bump", 2.5): 32 * (5.25 ** 2.5 + 2.25 ** 2.5) / 15 / 2.5 ** 4
    + 2 * (0.84 ** 2 + 0.36 ** 2),
}


@pytest.mark.parametrize("name,kind,radius", sorted(SLICE_SUMS))
def test_closed_orbit_references_are_the_slice_sums(name, kind, radius):
    [ref] = periodic_reference(get_map(name), [TF(kind, radius)])
    assert ref == pytest.approx(SLICE_SUMS[name, kind, radius], rel=1e-12, abs=0.0)
    # at R = 1 only the points +-e1 count, each exactly
    if radius == 1.0:
        assert ref == SLICE_SUMS[name, kind, radius]


def slice_map(rows, map_vars=("x",)):
    return MapEntry(name="slices", map_vars=map_vars, matrix=PolyMatrix.from_text(rows),
                    default_lambda=(F(1),) * len(map_vars))


# the orbit oracle is exact on a horocycle; on heis3, exact along x12, its
# midpoint rule's relative error at m = 64 is 2.2e-4 (indicator) and
# 5.5e-9 (bump) at R = 1.5 (oracles.orbit_average)
@pytest.mark.parametrize("entry,g0,support,m,tolerance", [
    pytest.param(U_HORO, [[1, 0], [0, 1]], [(0, 1)], 1, (1e-12, 1e-12), id="u_horo"),
    pytest.param(HEIS3, np.eye(3), [(0, 1), (1, 2), (0, 2)], 64, (5e-4, 2e-8), id="heis3"),
    # g(0) = diag(2, 1/2): the lines n != 0 have Jacobian 2
    pytest.param(slice_map([["2", "2 * x"], ["0", "1/2"]]), [[2, 0], [0, 0.5]], [(0, 1)], 1,
                 (1e-12, 1e-12), id="g0_horo"),
    # g(0) in SL(2, Z), far from reduced: the lines lie 1/|(30, 1)| apart
    pytest.param(slice_map([["30", "30 * x + 29"], ["1", "x + 1"]]), [[30, 29], [1, 1]],
                 [(0, 1)], 1, (1e-12, 1e-12), id="skew_horo"),
])
def test_closed_orbit_references_match_the_orbit_oracle(entry, g0, support, m, tolerance):
    for kind, rel in zip(("indicator", "bump"), tolerance):
        for radius in (1.0, 1.5, 2.5):
            [ref] = periodic_reference(entry, [TF(kind, radius)])
            want = oracles.orbit_average(g0, support, kind, radius, m)
            assert ref == pytest.approx(want, rel=rel, abs=1e-12), (kind, radius)


def test_a_catalog_orbit_through_another_lattice_matches_the_orbit_oracle(tmp_path):
    # g(0) = diag(2, 1/2, 1) and the orbit of E13 and E23, read from a JSON
    # catalog; the oracle is exact along x13, with m = 64 along x23
    item = {"name": "g0_3d", "vars": ["x", "y"], "default_lambda": ["1", "1"],
            "entries": [["2", "0", "x"], ["0", "1/2", "y"], ["0", "0", "1"]]}
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"maps": [item]}))
    entry = get_map("g0_3d", str(path))
    g0 = [[2, 0, 0], [0, 0.5, 0], [0, 0, 1]]
    for kind, rel in (("indicator", 1e-4), ("bump", 1e-8)):
        for radius in (1.0, 1.5, 2.5):
            [ref] = periodic_reference(entry, [TF(kind, radius)])
            want = oracles.orbit_average(g0, [(0, 2), (1, 2)], kind, radius, 64)
            assert ref == pytest.approx(want, rel=rel, abs=1e-12), (kind, radius)


@pytest.mark.parametrize("rows", [
    [["10000", "9999"], ["1", "1"]],  # Z^2, in a basis of vectors 1e4 long
    [["1", "0", "0"], ["0", "1000000", "1/7"], ["0", "0", "1/1000000"]],
], ids=["2d", "3d"])
def test_a_constant_map_reference_is_its_lattice_sum_in_any_basis(rows):
    # the enumeration runs on the exactly reduced basis: an unreduced g(0)
    # gives the exact sums over its lattice, not rows along its columns
    norms = oracles.exact_norms([[Fraction(x) for x in row] for row in rows], 2)
    ref = periodic_reference(slice_map(rows), [TF("indicator", 1.0), TF("bump", 2.0)])
    assert ref[0] == sum(r2 <= 1 for r2 in norms)
    assert ref[1] == pytest.approx(float(sum((1 - r2 / 4) ** 2 for r2 in norms)), rel=1e-14)


def test_the_closed_orbit_enumeration_raises_beyond_the_row_cap():
    # diag(1e-4, 1e4) u(x): the 20,000 points (m 1e-4, 0) of norm <= 1 are
    # one row, counted in closed form.  The lines n != 0 count once per
    # sign: at R = 9.99e6 the 999 of them and the row take the cap, and at
    # R = 1e7 the 1,000 of them raise, with the lattice kernel's message
    entry = slice_map([["1/10000", "1/10000 * x"], ["0", "10000"]])
    assert periodic_reference(entry, [TF("indicator", 1.0)]) == [20000.0]
    periodic_reference(entry, [TF("indicator", 9.99e6)])
    with pytest.raises(CuspExcursionError) as err:
        periodic_reference(entry, [TF("indicator", 1e7)])
    assert str(err.value) == (f"a sample needs more than {ROW_CAP} rows of lattice vectors: "
                              "too deep in the cusp for the radius")


def test_convergence_sweep_closed_orbit_reference():
    res = convergence_sweep(
        U_HORO, (F(1),), [10.0, 100.0], [TF("indicator", 1.0)], grid=512
    )
    for row in res.rows:
        assert row.reference == pytest.approx(2.0)
        assert row.rel_gap <= 1e-3
    assert abs(res.rows[0].average - math.pi) / math.pi > 0.1


def test_convergence_sweep_haar_reference():
    res = convergence_sweep(
        UL, (F(1), F(1, 2)), [100.0], [TF("indicator", 1.0)], grid=64
    )
    assert res.rows[0].reference == pytest.approx(math.pi)
    assert res.rows[0].samples == 64 * 64


def test_convergence_sweep_requires_increasing_T():
    with pytest.raises(DomainError):
        convergence_sweep(UL, (F(1), F(1, 2)), [100.0, 10.0],
                          [TF("indicator", 1.0)], grid=16)


def test_heis3_orbit_reference_and_average():
    # the orbit closure is the compact nilmanifold of the upper unipotent
    # group; almost every lattice there holds exactly the two unit vectors
    f = TF("indicator", 1.0)
    [row] = convergence_sweep(HEIS3, HEIS3.default_lambda, [20.0], [f], grid=24).rows
    assert row.reference == pytest.approx(2.0)
    assert row.average == pytest.approx(row.reference, rel=1e-6)


def test_heis3_batch_counts_match_scalar_path_on_benchmark_lattices():
    # the 14,976 lattices of one benchmark heis3 sweep: the 24^3 orbit
    # points of the reference, and 24^2 jittered points at T = 10 and 20
    f = TF("indicator", 1.0)
    cases = [(*HEIS3.orbit, BoxRegion((0.0,) * 3, (1.0,) * 3), "grid")]
    cases += [(HEIS3.matrix, HEIS3.map_vars,
               experiment._realized_box(HEIS3.default_lambda, T),
               "jitter") for T in (10.0, 20.0)]
    checked = 0
    for matrix, map_vars, region, method in cases:
        total = 24 ** region.dim
        task = (experiment.entry_tables(matrix, map_vars), (region,), 24, (f,), 0, total,
                method, 1)
        lam1, (vals,), n_exact = experiment._eval_chunk(task)
        assert n_exact == 0
        pts = region.sample_points(24, 0, total, method, 1)
        mats = np.empty((total, 3, 3))
        for i, row in enumerate(matrix.entries):
            for j, p in enumerate(row):
                mats[:, i, j] = GridPoly(p, map_vars)(pts)
        for g, lam, val in zip(mats, lam1, vals):
            cols = oracles.greedy3(g)
            assert math.sqrt(sum(x * x for x in cols[0])) == lam
            assert oracles.siegel_sum(np.array(cols).T, f) == val
        checked += total
    assert checked == 14976


def test_worker_count_independence():
    f = TF("indicator", 1.0)
    res1 = convergence_sweep(UL, (F(1), F(1, 2)), [50.0], [f], grid=32,
                             workers=1)
    res2 = convergence_sweep(UL, (F(1), F(1, 2)), [50.0], [f], grid=32,
                             workers=2)
    assert res1.csv_text() == res2.csv_text()


@pytest.mark.parametrize("name", ["ul_product", "poly23_lower", "heis3"])
def test_results_do_not_depend_on_the_chunk_size(name, monkeypatch):
    # every sample is computed on its own and written to its own slot: one
    # chunk of the whole box against smaller chunks (in 2D, 36,864 samples
    # in chunks of BLOCK, 4.5 per box, 2 BLOCK and 1,000; in 3D, whose
    # chunks are half of _CHUNK, 9,216 in chunks of 4,608, BLOCK / 2, 512
    # and 500), and the last size in two worker processes, which take the
    # tasks and their entry tables pickled
    entry = get_map(name)
    grid, sizes = 192, (BLOCK, 2 * BLOCK, 1000)
    if name == "ul_product":
        region = experiment._realized_box(entry.default_lambda, 1e3)
        fs = (TF("indicator", 1.0), TF("bump", 1.0))
    elif name == "poly23_lower":
        region = BoxRegion((0.0, 0.0), (1.01 * 10.0 ** 4, 10.0))
        fs = (TF("indicator", 1.0),)
    else:
        grid, sizes = 96, (BLOCK, 1024, 1000)
        region = experiment._realized_box(entry.default_lambda, 1e3)
        # at R = 1 every heis3 value is 2; at R = 1.5 the bump's values
        # are all distinct
        fs = (TF("indicator", 1.5), TF("bump", 1.5))
    assert grid ** 2 > BLOCK
    runs = []
    for size in (grid ** 2,) + sizes:
        monkeypatch.setattr(experiment, "_CHUNK", size)
        runs += experiment._observable_values(
            entry.matrix, entry.map_vars, (region,), grid, fs, method="jitter", seed=5)
    with experiment._pool(2) as pool:
        runs += experiment._observable_values(
            entry.matrix, entry.map_vars, (region,), grid, fs, pool=pool,
            method="jitter", seed=5)
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# a constant 3D lattice with lambda_1 = lambda_2 = 1e-4: about 1e4 rows
# c3 = 0 at R = 1, for every sample
CUSP3 = PolyMatrix([[F(1, 10 ** 4), 0, 0], [0, F(1, 10 ** 4), 0], [0, 0, 10 ** 8]])


@pytest.mark.parametrize("case", ["3d_deep_cusp", "2d_huge_radius"])
def test_the_row_cap_raises_whatever_the_chunk_size(case, monkeypatch):
    # a sample whose rows exceed ROW_CAP raises, in whichever chunk it lies,
    # at the chunk sizes of test_results_do_not_depend_on_the_chunk_size.
    # In 2D a sample needs R lambda_1 + 1 rows, and lambda_1 < 1.075: at
    # R = ROW_CAP some samples of a ul_product box exceed the cap, and at
    # R = 0.9 ROW_CAP none does and every chunk of the box runs
    grid, sizes = 96, (BLOCK, 2 * BLOCK, 1000)
    if case == "3d_deep_cusp":
        matrix, map_vars = CUSP3, ("x", "y")
        region = BoxRegion((0.0, 0.0), (1.0, 1.0))
        fs = (TF("bump", 1.0),)
    else:
        matrix, map_vars = UL.matrix, UL.map_vars
        region = experiment._realized_box(UL.default_lambda, 1e3)
        fs = (TF("indicator", float(ROW_CAP)),)
        [(lam1, _)] = experiment._observable_values(
            matrix, map_vars, (region,), grid, (TF("indicator", 0.9 * ROW_CAP),),
            method="jitter", seed=5)
        assert 0.999 < np.max(lam1) < 1.075
    assert grid ** 2 > BLOCK
    messages = []
    for size in (grid ** 2,) + sizes:
        monkeypatch.setattr(experiment, "_CHUNK", size)
        with pytest.raises(CuspExcursionError) as err:
            list(experiment._observable_values(matrix, map_vars, (region,), grid, fs,
                                               method="jitter", seed=5))
        messages.append(str(err.value))
    with experiment._pool(2) as pool, pytest.raises(CuspExcursionError) as err:
        list(experiment._observable_values(matrix, map_vars, (region,), grid, fs,
                                           pool=pool, method="jitter", seed=5))
    assert messages == [str(err.value)] * 4


def chunk_peak(task):
    """The tracemalloc peak of one ``_eval_chunk`` of ``task``, above what
    was allocated before it, after one warm-up run."""
    experiment._eval_chunk(task)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        experiment._eval_chunk(task)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_a_3d_chunk_takes_little_more_memory_than_a_2d_chunk():
    # a 3D chunk of the sweeps, half a BLOCK of heis3's closed-orbit
    # reference (the orbit map on its period cube, grid 24, indicator at
    # R = 1), against a 2D chunk, one BLOCK of a ul_product box at T = 1e3
    # (grid 256, indicator and bump at R = 1)
    orbit = BoxRegion((0.0,) * 3, (1.0,) * 3)
    heis3 = (experiment.entry_tables(*HEIS3.orbit), (orbit,), 24,
             (TF("indicator", 1.0),), 0, BLOCK // 2, "grid", 0)
    box = experiment._realized_box(UL.default_lambda, 1e3)
    ul = (experiment.entry_tables(UL.matrix, UL.map_vars), (box,), 256,
          (TF("indicator", 1.0), TF("bump", 1.0)), 0, BLOCK, "jitter", 1)
    assert chunk_peak(heis3) <= 1.25 * chunk_peak(ul)


@pytest.mark.parametrize("method", ["grid", "jitter", "mc"])
@pytest.mark.parametrize("entry", [UL, HEIS3], ids=["ul_product", "heis3"])
def test_a_tie_is_recounted_at_the_point_drawn_for_it(entry, method, monkeypatch):
    # a chunk drops its points once its bases are reduced and draws a tie's
    # point again: sample 17 of a chunk starting at 1,000, marked as a tie,
    # is recounted from the exact matrix at the point the chunk drew
    start, stop, k = 1000, 1064, 17
    region = experiment._realized_box(entry.default_lambda, 20.0)
    real_sums = experiment.siegel_sums
    recounted = []

    def one_tie(*args):
        values, ties = real_sums(*args)
        ties[0, k] = True
        return values, ties

    def record(m, radius):
        recounted.append(m)
        return -1

    monkeypatch.setattr(experiment, "siegel_sums", one_tie)
    monkeypatch.setattr(experiment, "siegel_count_exact", record)
    tables = experiment.entry_tables(entry.matrix, entry.map_vars)
    task = (tables, (region,), 40, (TF("indicator", 1.0),), start, stop, method, 3)
    values = experiment._eval_chunk(task)[1]
    pt = region.sample_points(40, start, stop, method, 3)[k]
    assert recounted == [experiment._exact_matrix(tables, pt)]
    assert values[0, k] == -1


def counting_pools(monkeypatch):
    """Record every process pool that the sweeps open, and the number of
    tasks of each ``map`` call on it: one call per sweep of more than one
    chunk."""
    pools, tasks = [], []

    class Counting(experiment.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

        def map(self, fn, items, **kwargs):
            items = list(items)
            tasks.append(len(items))
            return super().map(fn, items, **kwargs)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", Counting)
    return pools, tasks


def test_heis3_worker_count_independence(monkeypatch):
    # a grid-48 box of 2,304 samples is one 3D chunk; 3D chunks of 1,024
    # (half a _CHUNK of 2,048) make it three tasks, so the pool runs them
    monkeypatch.setattr(experiment, "_CHUNK", 2048)
    pools, tasks = counting_pools(monkeypatch)
    f = TF("indicator", 1.0)
    res1 = convergence_sweep(HEIS3, HEIS3.default_lambda, [20.0], [f], grid=48,
                             workers=1, method="jitter", seed=4)
    res2 = convergence_sweep(HEIS3, HEIS3.default_lambda, [20.0], [f], grid=48,
                             workers=2, method="jitter", seed=4)
    assert len(pools) == 1 and tasks == [3]
    assert res1.csv_text() == res2.csv_text()


def test_one_process_pool_per_sweep(monkeypatch):
    # three boxes of 2,304 samples share one pool and one map call: their
    # 6,912 samples in order are seven 3D chunks of 1,024, two of which span
    # two boxes
    monkeypatch.setattr(experiment, "_CHUNK", 2048)
    pools, tasks = counting_pools(monkeypatch)
    f = TF("indicator", 1.0)
    args = (HEIS3, HEIS3.default_lambda, [10.0, 20.0, 30.0], [f])
    res2 = convergence_sweep(*args, grid=48, workers=2, method="jitter", seed=4)
    assert len(pools) == 1 and tasks == [7]
    res1 = convergence_sweep(*args, grid=48, workers=1, method="jitter", seed=4)
    assert len(pools) == 1
    assert res1.csv_text() == res2.csv_text()


def per_box_csv(run, params):
    """The CSV of ``run(params)`` assembled from one ``run`` per parameter:
    the header once, then each one-box sweep's rows."""
    texts = [run([T]).csv_text().splitlines(keepends=True) for T in params]
    return "".join(texts[0][:1] + [line for text in texts for line in text[1:]])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("method", ["grid", "jitter", "mc"])
@pytest.mark.parametrize("name,grid", [("ul_product", 100), ("heis3", 70), ("u_horo", 3000)])
def test_boxes_sharing_chunks_give_the_csv_of_one_box_per_sweep(name, grid, method, workers):
    # boxes of 10,000 (2D), 4,900 (3D) and 3,000 (1D) samples: a chunk of
    # BLOCK spans the first two boxes; in 3D so do the half-block chunks
    # [4096, 8192) and [8192, 12288), and in 1D the first chunk holds two
    # whole boxes and the head of the third
    entry = get_map(name)
    fs = [TF("indicator", 1.5), TF("bump", 1.5)]

    def run(params):
        return convergence_sweep(entry, entry.default_lambda, params, fs, grid=grid,
                                 method=method, seed=6, workers=workers)

    params = [10.0, 20.0, 30.0]
    assert run(params).csv_text() == per_box_csv(run, params)


@pytest.mark.parametrize("method", ["grid", "jitter", "mc"])
@pytest.mark.parametrize("entry", [UL, HEIS3], ids=["ul_product", "heis3"])
def test_a_tie_in_a_chunk_spanning_boxes_is_recounted_in_its_own_box(entry, method,
                                                                      monkeypatch):
    # samples [1500, 1700) of a sweep over two boxes of 40^2 = 1,600: the
    # chunk's sample 150, marked as a tie, is sample 50 of the second box
    start, stop, k = 1500, 1700, 150
    regions = tuple(experiment._realized_box(entry.default_lambda, T) for T in (20.0, 30.0))
    real_sums = experiment.siegel_sums
    recounted = []

    def one_tie(*args):
        values, ties = real_sums(*args)
        ties[0, k] = True
        return values, ties

    def record(m, radius):
        recounted.append(m)
        return -1

    monkeypatch.setattr(experiment, "siegel_sums", one_tie)
    monkeypatch.setattr(experiment, "siegel_count_exact", record)
    tables = experiment.entry_tables(entry.matrix, entry.map_vars)
    task = (tables, regions, 40, (TF("indicator", 1.0),), start, stop, method, 3)
    values = experiment._eval_chunk(task)[1]
    pt = regions[1].sample_points(40, 50, 51, method, 3)[0]
    assert recounted == [experiment._exact_matrix(tables, pt)]
    assert values[0, k] == -1


def test_the_exact_budget_is_per_box_across_a_spanning_chunk():
    # poly23_lower's grid boxes at T2 = 23, 23.25, 23.5, 23.75 and 25 take
    # 0, 1, 1, 4 and 2 of their 40^2 = 1,600 samples to the exact tier,
    # whose budget is 1.6 a box; two boxes make one chunk
    entry = get_map("poly23_lower")
    fs = [TF("indicator", 1.0)]

    def run(params):
        return twodim_bcondition_sweep(entry, 4, params, fs, grid=40)

    def exact_per_box(params):
        regions = tuple(BoxRegion((0.0, 0.0), (1.01 * T ** 4, T)) for T in params)
        task = (experiment.entry_tables(entry.matrix, entry.map_vars), regions, 40,
                tuple(fs), 0, 1600 * len(params), "grid", 0)
        return experiment._eval_chunk(task)[2].tolist()

    assert exact_per_box([23.0, 23.25, 23.5, 23.75, 25.0]) == [0, 1, 1, 4, 2]
    # 1 and 1: each box within budget, though the chunk's 2 are over one box's
    assert run([23.25, 23.5]).csv_text() == per_box_csv(run, [23.25, 23.5])
    # 0 and 2: the second box is over budget once its samples are all in
    with pytest.raises(PrecisionError) as err:
        run([23.0, 25.0])
    assert (err.value.flagged, err.value.total) == (2, 1600)
    assert str(err.value).startswith("2/1600 samples are beyond floating-point")
    # 1 and 4: the chunk is over its two boxes' budgets, so one of them is
    with pytest.raises(PrecisionError) as err:
        run([23.25, 23.75])
    assert (err.value.flagged, err.value.total) == (5, 3200)
    assert err.value.flagged > 1e-3 * err.value.total
    assert str(err.value) == (
        "5/3200 samples of a chunk are beyond float64 and double-double "
        "certification (exact-tier cost budget 3.2 for the boxes it spans)")


def sweep_peak(params, **kwargs):
    """The tracemalloc peak of a ``ul_product`` sweep over ``params``,
    above what was allocated before it, after one warm-up run."""
    fs = [TF("indicator", 1.0), TF("bump", 1.0)]
    convergence_sweep(UL, UL.default_lambda, params, fs, **kwargs)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        convergence_sweep(UL, UL.default_lambda, params, fs, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_a_sweep_holds_one_box_at_a_time():
    # boxes of 160,000 samples, whose lengths and two observables take
    # 3.84 MB, more than a chunk's kernel, against 0.2 MB for a chunk's
    # results: a sweep that keeps the last box while the next is allocated
    # or filled exceeds the bound
    chunk = 3 * BLOCK * 8
    one = sweep_peak([100.0], grid=400)
    assert sweep_peak([10.0, 100.0, 1000.0], grid=400) <= one + chunk


def test_a_sweep_makes_one_kernel_call_per_chunk_of_its_samples(monkeypatch):
    calls = []
    real = experiment.certified_reduce

    def counting(*args):
        calls.append(args[1].shape[0])
        return real(*args)

    monkeypatch.setattr(experiment, "certified_reduce", counting)
    # the orbit3d_heis3 benchmark sweep: two boxes of 576 samples, one call
    convergence_sweep(HEIS3, HEIS3.default_lambda, [10.0, 20.0], [TF("indicator", 1.0)],
                      grid=24, method="jitter", seed=7)
    assert calls == [1152]
    calls.clear()
    # one heis3 box of 9,216 samples: 3D chunks are half a BLOCK
    convergence_sweep(HEIS3, HEIS3.default_lambda, [20.0], [TF("indicator", 1.0)], grid=96)
    assert calls == [BLOCK // 2] * 2 + [9216 - BLOCK]
    calls.clear()
    # three boxes of 10,000: ceil(30,000 / BLOCK) = 4 calls, not 2 a box
    convergence_sweep(UL, UL.default_lambda, [10.0, 100.0, 1000.0],
                      [TF("indicator", 1.0)], grid=100)
    assert calls == [BLOCK] * 3 + [30000 - 3 * BLOCK]


def test_sampling_methods_agree_statistically():
    f = TF("indicator", 1.0)
    lam = (F(1), F(1, 2))
    grid_avg = average(UL, lam, 100.0, f, 128)
    jit_avg = average(UL, lam, 100.0, f, 128, method="jitter", seed=3)
    mc_avg = average(UL, lam, 100.0, f, 128, method="mc", seed=3)
    assert jit_avg == pytest.approx(grid_avg, rel=0.05)
    assert mc_avg == pytest.approx(grid_avg, rel=0.10)


def test_jitter_deterministic_under_seed():
    f = TF("indicator", 1.0)
    lam = (F(1), F(1, 2))
    a = average(UL, lam, 100.0, f, 64, method="jitter", seed=9)
    b = average(UL, lam, 100.0, f, 64, method="jitter", seed=9)
    c = average(UL, lam, 100.0, f, 64, method="jitter", seed=10)
    assert a == b
    assert a != c


def test_twodim_sweep_rows_and_diagnostics():
    pl = get_map("poly23_lower")
    res = twodim_bcondition_sweep(pl, 4, [5.0], [TF("indicator", 1.0)],
                                  grid=64)
    assert len(res.rows) == 1
    assert res.rows[0].reference == pytest.approx(math.pi)
    assert res.diagnostics
    for _, x, y, residual in res.diagnostics:
        assert residual < 1.0


def test_twodim_sweep_diagnostics_decrease():
    pl = get_map("poly23_lower")
    res = twodim_bcondition_sweep(pl, 4, [5.0, 10.0, 20.0],
                                  [TF("indicator", 1.0)], grid=16)
    per_t = {}
    for t2, x, y, residual in res.diagnostics:
        per_t.setdefault(t2, []).append(residual)
    best = [min(per_t[t]) for t in (5.0, 10.0, 20.0)]
    assert best[0] > best[1] > best[2]


def test_twodim_sweep_uses_the_orbit_reference_on_closed_orbit_maps():
    # poly23 stays on the periodic horocycle, where the indicator count is 2;
    # the Haar value pi is not the limit of its box averages
    poly23 = get_map("poly23")
    f = TF("indicator", 1.0)
    res = twodim_bcondition_sweep(poly23, 4, [5.0], [f], grid=64)
    assert [res.rows[0].reference] == periodic_reference(poly23, [f]) == [2.0]
    assert res.rows[0].average == 2.0 and res.rows[0].rel_gap == 0.0


def test_sweeps_check_the_parameter_list_before_any_reference(monkeypatch):
    def no_reference(*args):
        raise AssertionError("reference computed before the parameter check")

    monkeypatch.setattr(experiment, "periodic_reference", no_reference)
    monkeypatch.setattr(experiment, "haar_expectation", no_reference)
    f = [TF("indicator", 1.0)]
    for T_list, message in (([10.0, 5.0], "box parameter must increase"),
                            ([5.0, math.inf], "box parameter must be positive")):
        for entry in (U_HORO, UL):
            with pytest.raises(DomainError, match=message):
                convergence_sweep(entry, entry.default_lambda, T_list, f, grid=16)
    for T2_list, message in (([5.0, 5.0], "T2 values must increase"),
                             ([-1.0], "T2 values must be positive")):
        for entry in (get_map("poly23"), get_map("poly23_lower")):
            with pytest.raises(DomainError, match=message):
                twodim_bcondition_sweep(entry, 4, T2_list, f, grid=16)


def test_lattice_observables_need_dimension_2_or_3():
    rows = [["1", "x", "0", "0"], ["0", "1", "0", "0"],
            ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    entry = MapEntry(name="sl4", map_vars=("x",),
                     matrix=PolyMatrix.from_text(rows), default_lambda=(F(1),))
    with pytest.raises(DomainError, match="2x2 or 3x3 matrices, not 4x4"):
        average(entry, (F(1),), 10.0, TF("indicator", 1.0), 16)


def test_twodim_sweep_b_must_exceed_p():
    pl = get_map("poly23_lower")
    with pytest.raises(DomainError):
        twodim_bcondition_sweep(pl, 3, [5.0], [TF("indicator", 1.0)], grid=16)


IDENTITY_ENTRY = None


def _identity_entry():
    global IDENTITY_ENTRY
    if IDENTITY_ENTRY is None:
        IDENTITY_ENTRY = MapEntry(
            name="const_identity",
            map_vars=("x",),
            matrix=PolyMatrix.from_text([["1", "0"], ["0", "1"]]),
            default_lambda=(F(1),),
        )
    return IDENTITY_ENTRY


def test_constant_map_average_is_pointwise_value():
    entry = _identity_entry()
    f = TF("indicator", 1.0)
    point_value = oracles.siegel_sum(np.eye(2), f)
    assert point_value == 4.0
    # the orbit of a constant map is its one lattice, not the whole space:
    # the reference is the pointwise value, not the Haar value pi
    rows = convergence_sweep(entry, (F(1),), [10.0, 20.0], [f], grid=64,
                             eps0_list=[1.0]).rows
    assert all(r.average == r.reference == point_value for r in rows)
    assert all(r.nondiv == ((1.0, 1.0),) for r in rows)


def test_a_nonzero_gap_to_a_zero_reference_is_infinite(monkeypatch):
    # no catalog map has a zero reference and a nonzero average, so the
    # reference is patched to 0; a zero gap to a zero reference reads 0
    # (test_cli's constant map)
    monkeypatch.setattr(experiment, "periodic_reference", lambda entry, fs: [0.0] * len(fs))
    [row] = convergence_sweep(U_HORO, (F(1),), [10.0], [TF("indicator", 1.0)], grid=64).rows
    assert row.average > 0 and row.rel_gap == math.inf


def test_monotone_nondivergence_all_catalog_maps():
    from boxflow.catalog import builtin_catalog

    for entry in builtin_catalog().values():
        grid = 512 if entry.k == 1 else 32
        frac = nondiv(entry, entry.default_lambda, 100.0, grid, [0.1, 0.05])
        assert frac[0.05] >= frac[0.1]


def test_product_type_sweep_with_unit_exponent_converges():
    # for product-type maps the box exponent can be taken down to 1
    res = twodim_bcondition_sweep(
        UL, 1, [20.0, 50.0], [TF("indicator", 1.0)], grid=128
    )
    assert res.rows[-1].rel_gap < 0.05


def test_csv_round_trip_significant_digits():
    res = convergence_sweep(UL, (F(1), F(1, 2)), [50.0],
                            [TF("indicator", 1.0)], grid=32)
    text = res.csv_text()
    header, line = text.strip().split("\n")
    cols = dict(zip(header.split(","), line.split(",")))
    assert float(cols["average"]) == res.rows[0].average
    assert float(cols["reference"]) == res.rows[0].reference


def exact_sum_cases(n):
    """Named arrays of n values for ``experiment._average``, drawn from one
    seed: random and integer-valued ones, magnitudes from 1e-300 to 1e300,
    same-sign values near the top of their binade, the same with their
    negatives plus small noise (heavy cancellation), subnormals with signed
    zeros, and non-finite values."""
    rng = np.random.default_rng(2008)
    top = rng.uniform(0.75, 1.0, n - n // 2) * 2.0 ** 30
    cases = {
        "random": rng.standard_normal(n) * 10.0 ** rng.integers(-4, 5, n),
        "integers": rng.integers(-10 ** 6, 10 ** 6, n).astype(float),
        "counts": rng.integers(0, 40, n).astype(float),
        "mixed": rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n),
        "top_of_binade": rng.uniform(0.75, 1.0, n),
        "cancellation": np.concatenate(
            [top, -top[n // 2 - 1::-1] + rng.uniform(-1, 1, n // 2)]),
        "subnormal": np.where(rng.random(n) < 0.2, rng.choice([0.0, -0.0], n),
                              rng.integers(-2 ** 20, 2 ** 20, n) * 5e-324
                              + (rng.random(n) < 0.01) * 1e-300),
        "negative_zeros": np.full(n, -0.0),
    }
    for name, bad in (("nan", math.nan), ("inf", math.inf), ("inf_minus_inf", None),
                      ("overflow", 1e308)):
        v = cases["random"].copy()
        if name == "inf_minus_inf":
            v[[0, -1]] = math.inf, -math.inf
        elif name == "overflow":
            v[:] = bad
        else:
            v[-1] = bad
        cases[name] = v
    return cases


def outcome(average, values):
    """The bits of an average, or the type of the error it raises."""
    try:
        return average(values).hex()
    except (ValueError, OverflowError) as err:
        return type(err)


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK + 1, BLOCK + 6000, 3 * BLOCK])
def test_box_averages_are_the_correctly_rounded_mean(n):
    # experiment._average sums by error-free extraction; the result is
    # math.fsum's, bit for bit, and a non-finite input or a scale beyond
    # float64 takes math.fsum itself (nan, inf, or the same error)
    cases = exact_sum_cases(n)
    for name, values in cases.items():
        want = outcome(lambda v: math.fsum(v) / v.shape[0], values)
        assert outcome(experiment._average, values) == want, name
    if n > BLOCK:
        # a float64 sum would miss it
        assert float(np.sum(cases["cancellation"])) != math.fsum(cases["cancellation"])
