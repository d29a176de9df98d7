"""Sweep engine: periodicity oracle, change of variables, determinism."""

import math
from fractions import Fraction

import numpy as np
import oracles
import pytest

from boxflow import experiment
from boxflow.catalog import get_map
from boxflow.errors import DomainError
from boxflow.experiment import (
    BoxSpec,
    birkhoff_average,
    convergence_sweep,
    nondivergence_fraction,
    periodic_reference,
    subbox_average,
    twodim_bcondition_sweep,
)
from boxflow.goodness import BoxRegion, GridPoly
from boxflow.homspace import TestFunction as TF

F = Fraction

U_HORO = get_map("u_horo")
UL = get_map("ul_product")
HEIS3 = get_map("heis3")


def test_box_spec_validation():
    with pytest.raises(DomainError):
        BoxSpec(lam=(F(1),), T=10.0, grid=4)
    with pytest.raises(DomainError):
        BoxSpec(lam=(F(1),), T=10.0, grid=16,
                J=BoxRegion((0.0,), (1.5,)))


def test_box_spec_realized_region():
    box = BoxSpec(lam=(F(1), F(1, 2)), T=100.0, grid=16)
    region = box.realized_region()
    assert region.lower == (0.0, 0.0)
    assert region.upper == (100.0, 10.0)
    sub = BoxSpec(lam=(F(1),), T=100.0, grid=16,
                  J=BoxRegion((0.5,), (1.0,)))
    assert sub.realized_region().lower == (50.0,)


def test_birkhoff_periodicity_oracle():
    # the horocycle observable has period 1; averages over [0,1] and
    # [0,10] agree
    f = TF("indicator", 1.2)
    a1 = birkhoff_average(U_HORO, BoxSpec(lam=(F(1),), T=1.0, grid=4096), f)
    a10 = birkhoff_average(U_HORO, BoxSpec(lam=(F(1),), T=10.0, grid=4096), f)
    assert a1 == pytest.approx(a10, abs=1e-3)
    f_small = TF("indicator", 0.5)
    b1 = birkhoff_average(U_HORO, BoxSpec(lam=(F(1),), T=1.0, grid=4096), f_small)
    b10 = birkhoff_average(U_HORO, BoxSpec(lam=(F(1),), T=10.0, grid=4096), f_small)
    assert b1 == pytest.approx(b10, abs=1e-3)


def test_birkhoff_grid_precondition():
    with pytest.raises(DomainError):
        BoxSpec(lam=(F(1),), T=1.0, grid=7)


def test_subbox_full_cube_matches_birkhoff():
    # midpoints map to midpoints under the axiswise rescaling, so the two
    # averages agree exactly on the full cube
    f = TF("indicator", 1.0)
    box = BoxSpec(lam=(F(1), F(1, 2)), T=50.0, grid=32)
    direct = birkhoff_average(UL, box, f)
    via_alpha = subbox_average(UL, (F(1), F(1, 2)), 50.0, None, f, grid=32)
    assert via_alpha == direct


def test_subbox_degenerate_cell():
    f = TF("indicator", 1.0)
    tiny = BoxRegion((0.5, 0.5), (0.500001, 0.500001))
    val = subbox_average(UL, (F(1), F(1, 2)), 50.0, tiny, f, grid=8)
    assert val >= 0.0


def test_nondivergence_identity_and_monotone():
    box = BoxSpec(lam=(F(1), F(1, 2)), T=100.0, grid=48)
    fractions = nondivergence_fraction(UL, box, [0.1, 0.05, 0.0])
    assert fractions[0.0] == 1.0
    assert fractions[0.05] >= fractions[0.1] >= 0.9


def test_nondivergence_horocycle():
    box = BoxSpec(lam=(F(1),), T=1000.0, grid=2048)
    fractions = nondivergence_fraction(U_HORO, box, [0.1])
    assert fractions[0.1] >= 0.9


def test_periodic_reference_horocycle():
    # one-period average of the unit-ball count on the closed orbit is 2
    assert periodic_reference(U_HORO, TF("indicator", 1.0)) == pytest.approx(2.0)


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
    ref = periodic_reference(HEIS3, f)
    assert ref == pytest.approx(2.0)
    box = BoxSpec(lam=HEIS3.default_lambda, T=20.0, grid=24)
    avg = birkhoff_average(HEIS3, box, f)
    assert avg == pytest.approx(ref, rel=1e-6)
    res = convergence_sweep(HEIS3, HEIS3.default_lambda, [20.0], [f], grid=24)
    assert res.rows[0].reference == pytest.approx(2.0)


def test_heis3_batch_counts_match_scalar_path_on_benchmark_lattices():
    # the 14,976 lattices of one benchmark heis3 sweep: the 24^3 orbit
    # points of the reference, and 24^2 jittered points at T = 10 and 20
    f = TF("indicator", 1.0)
    cases = [(HEIS3.orbit_map, HEIS3.orbit_vars,
              BoxRegion((0.0,) * 3, (1.0,) * 3), "grid")]
    cases += [(HEIS3.matrix, HEIS3.map_vars,
               BoxSpec(lam=HEIS3.default_lambda, T=T, grid=24).realized_region(),
               "jitter") for T in (10.0, 20.0)]
    checked = 0
    for matrix, map_vars, region, method in cases:
        total = 24 ** region.dim
        task = (matrix, map_vars, region, 24, (f,), 0, total, method, 1, math.inf)
        lam1, (vals,), excluded, n_exact = experiment._eval_chunk(task)
        assert not excluded.any() and n_exact == 0
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


def test_heis3_worker_count_independence():
    # 3D chunks are smaller: three of them per box here
    f = TF("indicator", 1.0)
    res1 = convergence_sweep(HEIS3, HEIS3.default_lambda, [20.0], [f], grid=48,
                             workers=1, method="jitter", seed=4)
    res2 = convergence_sweep(HEIS3, HEIS3.default_lambda, [20.0], [f], grid=48,
                             workers=2, method="jitter", seed=4)
    assert res1.csv_text() == res2.csv_text()


def test_one_process_pool_per_sweep(monkeypatch):
    # three boxes of three chunks each share one pool
    pools = []
    real = experiment.ProcessPoolExecutor

    def counting(*args, **kwargs):
        pools.append(real(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", counting)
    f = TF("indicator", 1.0)
    args = (HEIS3, HEIS3.default_lambda, [10.0, 20.0, 30.0], [f])
    res2 = convergence_sweep(*args, grid=48, workers=2, method="jitter", seed=4)
    assert len(pools) == 1
    res1 = convergence_sweep(*args, grid=48, workers=1, method="jitter", seed=4)
    assert len(pools) == 1
    assert res1.csv_text() == res2.csv_text()


def test_sampling_methods_agree_statistically():
    f = TF("indicator", 1.0)
    box = BoxSpec(lam=(F(1), F(1, 2)), T=100.0, grid=128)
    grid_avg = birkhoff_average(UL, box, f)
    jit_avg = birkhoff_average(UL, box, f, method="jitter", seed=3)
    mc_avg = birkhoff_average(UL, box, f, method="mc", seed=3)
    assert jit_avg == pytest.approx(grid_avg, rel=0.05)
    assert mc_avg == pytest.approx(grid_avg, rel=0.10)


def test_jitter_deterministic_under_seed():
    f = TF("indicator", 1.0)
    box = BoxSpec(lam=(F(1), F(1, 2)), T=100.0, grid=64)
    a = birkhoff_average(UL, box, f, method="jitter", seed=9)
    b = birkhoff_average(UL, box, f, method="jitter", seed=9)
    c = birkhoff_average(UL, box, f, method="jitter", seed=10)
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
    assert res.rows[0].reference == periodic_reference(poly23, f) == 2.0
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
    from boxflow.catalog import MapEntry
    from boxflow.polymatrix import PolyMatrix

    rows = [["1", "x", "0", "0"], ["0", "1", "0", "0"],
            ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    entry = MapEntry(name="sl4", dim=4, map_vars=("x",),
                     matrix=PolyMatrix.from_text(rows), product_type=True,
                     default_lambda=(F(1),))
    box = BoxSpec(lam=(F(1),), T=10.0, grid=16)
    with pytest.raises(DomainError, match="2x2 or 3x3 matrices, not 4x4"):
        birkhoff_average(entry, box, TF("indicator", 1.0))


def test_twodim_sweep_b_must_exceed_p():
    pl = get_map("poly23_lower")
    with pytest.raises(DomainError):
        twodim_bcondition_sweep(pl, 3, [5.0], [TF("indicator", 1.0)], grid=16)


IDENTITY_ENTRY = None


def _identity_entry():
    global IDENTITY_ENTRY
    if IDENTITY_ENTRY is None:
        from boxflow.catalog import MapEntry
        from boxflow.polymatrix import PolyMatrix

        IDENTITY_ENTRY = MapEntry(
            name="const_identity",
            dim=2,
            map_vars=("x",),
            matrix=PolyMatrix.from_text([["1", "0"], ["0", "1"]]),
            product_type=True,
            default_lambda=(F(1),),
        )
    return IDENTITY_ENTRY


def test_constant_map_average_is_pointwise_value():
    entry = _identity_entry()
    f = TF("indicator", 1.0)
    box = BoxSpec(lam=(F(1),), T=10.0, grid=64)
    avg = birkhoff_average(entry, box, f)
    point_value = oracles.siegel_sum(np.eye(2), f)
    assert avg == point_value == 4.0
    fr = nondivergence_fraction(entry, box, [1.0, 0.0])
    assert fr[1.0] == 1.0 and fr[0.0] == 1.0
    rows = convergence_sweep(entry, (F(1),), [10.0, 20.0], [f], grid=64).rows
    assert all(r.average == point_value for r in rows)


def test_monotone_nondivergence_all_catalog_maps():
    from boxflow.catalog import builtin_catalog

    for entry in builtin_catalog().values():
        grid = 512 if entry.k == 1 else 32
        box = BoxSpec(lam=entry.default_lambda, T=100.0, grid=grid)
        frac = nondivergence_fraction(entry, box, [0.1, 0.05])
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
