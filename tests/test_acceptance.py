"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict.
Criterion 10's monotone-gap clause is implemented exactly as stated; its
gaps differ by a few units in the fourth digit, so it measures the stated
trajectory only because every lattice comes from a certified reduction.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from boxflow.catalog import builtin_catalog
from boxflow.cli import main as cli_main
from boxflow.experiment import convergence_sweep, twodim_bcondition_sweep
from boxflow.flowlimit import (
    compute_flow,
    group_law_check,
    limit_residual,
    normalize_exponents,
    rescale,
    twodim_flow,
    twodim_residual,
)
from boxflow.goodness import (
    BoxRegion,
    transfer_delta_grid,
    RelSizeStatus,
    besicovitch_select,
    fit_min_c,
    poly_grid_fn,
    relative_size_check,
    relative_size_neighborhoods,
    sublevel_measure,
    sup_norm,
)
from boxflow.homspace import TestFunction as TF
from boxflow.polyalg import GenPoly, parse_poly
from boxflow.polymatrix import PolyMatrix

F = Fraction
CATALOG = builtin_catalog()


def _criterion(n, desc, ok, detail=""):
    line = f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def catalog_flows():
    flows = {}
    for name, entry in CATALOG.items():
        c, lam = normalize_exponents(entry.default_lambda)
        theta = rescale(entry.matrix, lam, entry.map_vars)
        flows[name] = (theta, compute_flow(theta))
    return flows


def test_criterion_01_symbolic_exactness(catalog_flows):
    ks = {e.k for e in CATALOG.values()}
    dims = {e.dim for e in CATALOG.values()}
    types = {e.product_type for e in CATALOG.values()}
    spanning = (
        len(CATALOG) >= 6 and ks == {1, 2} and dims == {2, 3}
        and types == {True, False}
    )
    t0 = time.time()
    failures = []
    for name, (theta, res) in catalog_flows.items():
        report = group_law_check(res, trials=100, seed=1)
        if not (report.passed and report.symbolic_ok):
            failures.append(f"{name}: {report.failures[:1]}")
        if res.generator != res.limits[0]:
            failures.append(f"{name}: generator != M_1")
    elapsed = time.time() - t0
    _criterion(
        1,
        "group law exact and generator = M_1 on every catalog map, < 10 s",
        spanning and not failures and elapsed < 10.0,
        f"{len(CATALOG)} maps, {elapsed:.2f} s" + "".join(failures),
    )


def test_criterion_02_flow_oracles(catalog_flows):
    _, res52 = catalog_flows["heis52"]
    ok_52 = (
        res52.q == F(3, 2)
        and res52.d == 2
        and res52.limits[0] == PolyMatrix.from_text([["0", "5/2 * a1"], ["0", "0"]])
        and res52.limits[1].is_zero()
    )
    xy = twodim_flow(PolyMatrix.from_text([["1", "x * y"], ["0", "1"]]))
    ok_xy = (
        xy.q == 0
        and xy.d == 1
        and xy.lambda_of_y == PolyMatrix.from_text([["0", "y"], ["0", "0"]])
        and xy.lambda0 == PolyMatrix.from_text([["0", "1"], ["0", "0"]])
    )
    mixed = twodim_flow(
        PolyMatrix.from_text([["1", "x^2 + x * y^3"], ["0", "1"]])
    )
    ok_mixed = (
        mixed.q == 1
        and mixed.p == 3
        and mixed.b == 4
        and mixed.lambda0 == PolyMatrix.from_text([["0", "2"], ["0", "0"]])
        and mixed.ratio_set == ((F(3), F(1)),)
    )
    _criterion(
        2,
        "the three hand-derived flow extractions reproduce exactly",
        ok_52 and ok_xy and ok_mixed,
    )


def test_criterion_03_limit_convergence(catalog_flows):
    bad = []
    worst_final = 0.0
    for name, (theta, res) in catalog_flows.items():
        alphas = {v: 1.0 for v in res.alpha_vars}
        for s in (-2.0, -1.0, 1.0, 2.0):
            r = [limit_residual(theta, res, alphas, s, t)
                 for t in (1e2, 1e3, 1e4)]
            if not (r[0] > r[1] > r[2]):
                bad.append(f"{name} s={s}: not decreasing {r}")
            if r[2] >= 1e-4:
                bad.append(f"{name} s={s}: final residual {r[2]:.2e}")
            worst_final = max(worst_final, r[2])
    mixed = PolyMatrix.from_text([["1", "x^2 + x * y^3"], ["0", "1"]])
    two = twodim_flow(mixed)
    seq = [twodim_residual(mixed, two, 1.0, float(n) ** 4, float(n))
           for n in (10, 100, 1000)]
    if not (seq[0] > seq[1] > seq[2]):
        bad.append(f"twodim residual not decreasing: {seq}")
    _criterion(
        3,
        "residuals decrease along t = 1e2, 1e3, 1e4 and end below 1e-4; "
        "twodim residual decreases along the compliant sequence",
        not bad,
        f"worst final {worst_final:.2e}" + "; ".join(bad[:2]),
    )


def _random_poly_fn(rng, k, degree):
    terms = {}
    var_order = ["x", "y"][:k]
    p = GenPoly.zero()
    for _ in range(rng.integers(2, 5)):
        powers = {v: int(rng.integers(0, degree + 1)) for v in var_order}
        if max(powers.values()) > degree:
            continue
        coeff = F(int(rng.integers(-40, 41)), int(rng.integers(1, 8)))
        p = p + GenPoly.monomial(coeff, powers)
    # force the stated degree to appear
    lead = {v: 0 for v in var_order}
    lead[var_order[0]] = degree
    p = p + GenPoly.monomial(F(int(rng.integers(1, 5))), lead)
    return p, var_order


def test_criterion_04_good_function_suite():
    rng = np.random.default_rng(20260809)
    grid = {1: 512, 2: 80}
    violations = 0
    checked = 0
    while checked < 200:
        k = int(rng.integers(1, 3))
        degree = int(rng.integers(1, 5))
        p, var_order = _random_poly_fn(rng, k, degree)
        box = BoxRegion(
            tuple(float(rng.uniform(-2, 2)) for _ in range(k)),
            tuple(float(rng.uniform(2.5, 4)) for _ in range(k)),
        )
        f = poly_grid_fn(p, var_order)
        n = grid[k]
        fnorm = sup_norm(f, box, n)
        if fnorm < 1e-6:
            continue
        alpha = F(1, k * degree)
        slack = 2.0 * k / n
        # training deltas dense enough (relative to alpha) that the fitted
        # constant controls every delta in the covered range within slack
        train_scale = transfer_delta_grid(alpha, slack)
        test_scale = np.sqrt(train_scale[:-1] * train_scale[1:])[::5]
        c_fit = max(
            1.0, fit_min_c(f, box, alpha, train_scale * fnorm, n)
        )
        for s in test_scale:
            delta = s * fnorm
            lhs = sublevel_measure(f, box, delta, n)
            rhs = c_fit * (delta / fnorm) ** float(alpha) * box.volume
            if lhs > rhs * (1.0 + slack):
                violations += 1
        checked += 1

    unit = BoxRegion((0.0,), (1.0,))
    analytic_ok = True
    for fn, closed in (
        (lambda pts: pts[:, 0], lambda d: d),
        (lambda pts: pts[:, 0] ** 2, lambda d: math.sqrt(d)),
        (
            lambda pts: pts[:, 0] * (1 - pts[:, 0]),
            lambda d: 1 - math.sqrt(max(0.0, 1 - 4 * d)),
        ),
    ):
        for delta in (0.01, 0.04, 0.16):
            est = sublevel_measure(fn, unit, delta, 20000)
            if abs(est - closed(delta)) > 0.01 * max(closed(delta), 0.01):
                analytic_ok = False
    _criterion(
        4,
        "cross-delta constant transfer on 200 random polynomials, analytic "
        "sublevel measures within 1%",
        violations == 0 and analytic_ok,
        f"{violations} violations",
    )


def test_criterion_05_covering_suite():
    rng = np.random.default_rng(77)
    t0 = time.time()
    bad = 0
    for trial in range(500):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 60))
        centers = rng.random((n, k)) * 5.0
        halfwidths = rng.random(n) * 0.9 + 0.02
        cover = besicovitch_select(centers, halfwidths)
        if not cover.covered or cover.max_multiplicity > 2 ** k + 1:
            bad += 1
    elapsed = time.time() - t0
    _criterion(
        5,
        "total coverage and multiplicity <= 2^k + 1 on 500 random "
        "instances, < 30 s",
        bad == 0 and elapsed < 30.0,
        f"{elapsed:.1f} s",
    )


def test_criterion_06_relative_size_suite():
    upper = PolyMatrix.from_text([["1", "x"], ["0", "1"]])
    lower = PolyMatrix.from_text([["1", "0"], ["x", "1"]])
    scenarios = [
        (upper, [0.0, 1.0], parse_poly("v1")),   # orbit (x, 1) near {v1 = 0}
        (lower, [1.0, 0.0], parse_poly("v2")),   # orbit (1, x) near {v2 = 0}
    ]
    box = BoxRegion((0.0,), (1.0,))
    held = []
    for eps in (0.5, 0.25):
        for mat, v0, variety in scenarios:
            spec = relative_size_neighborhoods(
                variety, ["v1", "v2"], r=1.0, eps=eps, k=1, l=1, c=1.0,
                n_cover=3, alpha=F(1, 2),
            )
            chk = relative_size_check(
                mat, ["x"], v0, box, spec, beta=0.1, eps=eps, grid=4000
            )
            held.append(chk.status is RelSizeStatus.HOLDS)
    # vacuous control: the constant map never leaves Phi
    spec = relative_size_neighborhoods(
        parse_poly("v1"), ["v1", "v2"], r=1.0, eps=0.5, k=1, l=1, c=1.0,
        n_cover=3, alpha=F(1, 2),
    )
    vac = relative_size_check(
        PolyMatrix.identity(2), ["x"], [0.0, 1.0], box, spec,
        beta=0.5, eps=0.5, grid=200,
    )
    vacuous_flagged = vac.status is RelSizeStatus.VACUOUS
    _criterion(
        6,
        "relative-size inequality holds at eps in {0.5, 0.25}; vacuous "
        "cases flagged, not passed",
        all(held) and vacuous_flagged,
        f"{sum(held)}/{len(held)} held",
    )


def test_criterion_07_equidistribution_headline():
    entry = CATALOG["ul_product"]
    f = TF("indicator", 1.0)
    t0 = time.time()
    lam = (F(1), F(1, 2))
    rows = convergence_sweep(entry, lam, [1e2, 1e3], [f], grid=1000).rows
    gap100, gap1000 = (abs(r.average - math.pi) / math.pi for r in rows)
    sub = convergence_sweep(entry, lam, [1e3], [f], grid=1000,
                            J=BoxRegion((0.5, 0.5), (1.0, 1.0))).rows[0]
    gap_sub = abs(sub.average - math.pi) / math.pi
    elapsed = time.time() - t0
    _criterion(
        7,
        "headline map: gap to the Haar value < 15% at T = 1e2 and < 5% at "
        "T = 1e3 (grid 1e3 per axis); subbox [1/2,1]^2 gap < 7%; < 10 min",
        gap100 < 0.15 and gap1000 < 0.05 and gap_sub < 0.07 and elapsed < 600,
        f"gaps {gap100:.3%}, {gap1000:.3%}, subbox {gap_sub:.3%}, "
        f"{elapsed:.0f} s",
    )


def test_criterion_08_proper_limit_sanity():
    entry = CATALOG["u_horo"]
    f = TF("indicator", 1.0)
    ok = True
    details = []
    for row in convergence_sweep(entry, (F(1),), [10.0, 100.0, 1000.0], [f],
                                 grid=4096).rows:
        details.append(f"T={row.T:g}: {row.rel_gap:.2e}")
        ok = (ok and row.rel_gap < 1e-3
              and abs(row.average - math.pi) / math.pi > 0.10)
    _criterion(
        8,
        "periodic horocycle averages match the one-period reference within "
        "0.1% and sit > 10% away from the Haar value",
        ok,
        "; ".join(details),
    )


def test_criterion_09_nondivergence():
    # the sweep measures the default observable too; only nondiv is read
    f = TF("indicator", 1.0)
    bad = []
    for name, entry in CATALOG.items():
        grid = 4096 if entry.k == 1 else 64
        for row in convergence_sweep(entry, entry.default_lambda, [1e2, 1e3], [f],
                                     grid=grid, eps0_list=[0.1]).rows:
            [(_, frac)] = row.nondiv
            if frac < 0.9:
                bad.append(f"{name} T={row.T:g}: {frac:.3f}")
    _criterion(
        9,
        "every catalog map keeps >= 90% of samples eps0 = 0.1 deep in the "
        "compact part for T in {1e2, 1e3}",
        not bad,
        "; ".join(bad) or "all >= 0.9",
    )


def test_criterion_10_twodim_bcondition():
    # Implemented exactly as stated.  The b-compliant boxes have x-side
    # T2^4 and entries up to 5e11, so float64 alone gets the lattice wrong
    # on most samples at T2 = 20; with the certified reduction the gaps are
    # 0.2252%, 0.0845% and 0.0813% (exact, ties at |v| = 1 included).
    entry = CATALOG["poly23_lower"]
    f = TF("indicator", 1.0)
    t0 = time.time()
    res = twodim_bcondition_sweep(entry, 4, [5.0, 10.0, 20.0], [f], grid=1024)
    elapsed = time.time() - t0
    gaps = [row.rel_gap for row in res.rows]
    diag = {}
    for t2, x, y, r in res.diagnostics:
        diag[t2] = min(diag.get(t2, float("inf")), r)
    residuals_decrease = diag[5.0] > diag[10.0] > diag[20.0]
    monotone = gaps[0] > gaps[1] > gaps[2]
    _criterion(
        10,
        "box-exponent sweep: gap decreases monotonically along "
        "T2 = 5, 10, 20 within 15 min",
        monotone and elapsed < 900 and residuals_decrease,
        f"gaps {', '.join(f'{g:.4%}' for g in gaps)}; flow residuals "
        f"{', '.join(f'{diag[t]:.3f}' for t in (5.0, 10.0, 20.0))}; "
        f"{elapsed:.0f} s",
    )


def test_criterion_11_reproducibility(tmp_path):
    base = [
        "equi", "--map", "ul_product", "--lambda", "1,1/2", "--T", "20,50",
        "--obs", "siegel:indicator:1,siegel:bump:1", "--grid", "24",
        "--seed", "7",
    ]
    blobs = []
    for tag, workers in (("w1", "1"), ("w2", "2"), ("w8", "8"), ("re", "1")):
        out = tmp_path / tag
        code = cli_main(base + ["--out", str(out), "--workers", workers])
        assert code == 0
        blobs.append(
            (out / "equi.csv").read_bytes()
            + (out / "equi_plot.csv").read_bytes()
            + (out / "equi_config.json").read_bytes()
        )
    flow_blobs = []
    for tag in ("f1", "f2"):
        out = tmp_path / tag
        code = cli_main(["flow", "--map", "heis52", "--lambda", "5/2",
                         "--seed", "3", "--out", str(out)])
        assert code == 0
        flow_blobs.append(
            (out / "flow.json").read_bytes()
            + (out / "flow_config.json").read_bytes()
        )
    ok = len(set(blobs)) == 1 and len(set(flow_blobs)) == 1
    _criterion(
        11,
        "identical config and seed give byte-identical artifacts for "
        "worker counts 1, 2, 8 and across reruns",
        ok,
    )
