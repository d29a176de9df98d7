"""Flow extraction oracles: the hand-derived q/d/M data, the group law,
and the residual decay of the limit statements."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from boxflow.catalog import builtin_catalog
from boxflow.errors import DomainError, NilpotencyError
from boxflow.flowlimit import (
    FlowResult,
    compute_flow,
    flow_of,
    group_law_check,
    limit_residual,
    nilpotent_exp,
    normalize_exponents,
    rescale,
    twodim_flow,
    twodim_residual,
)
from boxflow.polyalg import GenPoly, parse_poly
from boxflow.polymatrix import PolyMatrix

F = Fraction


def M(rows):
    return PolyMatrix.from_text(rows)


UPPER = M([["1", "x"], ["0", "1"]])
PRODUCT_UL = M([["1 + x * y", "x"], ["y", "1"]])


# -- rescale ---------------------------------------------------------------


def test_rescale_single_variable():
    out = rescale(UPPER, [F(5, 2)], ["x"])
    assert out == M([["1", "a1 * t^5/2"], ["0", "1"]])


def test_rescale_two_variables():
    out = rescale(PRODUCT_UL, [F(3, 2), F(1)], ["x", "y"])
    expected = M(
        [
            ["1 + a1 * a2 * t^5/2", "a1 * t^3/2"],
            ["a2 * t", "1"],
        ]
    )
    assert out == expected


def test_rescale_requires_identity_at_origin():
    bad = M([["2", "x"], ["0", "1/2"]])
    with pytest.raises(DomainError):
        rescale(bad, [F(1)], ["x"])


# -- normalize_exponents -----------------------------------------------------


def test_normalize_already_compliant():
    c, lam = normalize_exponents([F(5, 2)])
    assert c == 1 and lam == (F(5, 2),)


def test_normalize_integer_exponent_needs_quarter_grid():
    # every half-integer multiple of 2 is an integer, so the search drops
    # to the quarter grid and lands on 5/4
    c, lam = normalize_exponents([F(2)])
    assert c == F(5, 4) and lam == (F(5, 2),)


def test_normalize_pair_of_ones():
    c, lam = normalize_exponents([F(1), F(1)])
    assert c == F(3, 2) and lam == (F(3, 2), F(3, 2))


def test_normalize_postconditions_random():
    import random

    rng = random.Random(44)
    for _ in range(100):
        lam = [F(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        c, scaled = normalize_exponents(lam)
        assert c > 0
        assert all(v > 1 for v in scaled)
        assert any(v.denominator != 1 for v in scaled)
        assert scaled == tuple(c * v for v in lam)


def map_exponents(entry):
    """The exponent vector of every monomial of a catalog map, in the
    order of its variables."""
    return [[dict(mono).get(v, 0) for v in entry.map_vars]
            for row in entry.matrix.entries for p in row for mono, _ in p.terms()]


def test_normalize_on_the_realized_exponents():
    # u_squared's x^2 at lambda = 1: c = 3/2 makes every t-exponent (0 and
    # 3) an integer, so the search goes on to 5/4, whose t^(5/2) is not
    entry = builtin_catalog()["u_squared"]
    assert normalize_exponents([F(1)]) == (F(3, 2), (F(3, 2),))
    assert normalize_exponents([F(1)], map_exponents(entry)) == (F(5, 4), (F(5, 4),))
    # a constant map keeps the rule on lambda
    assert normalize_exponents([F(1)], [[0], [0]]) == (F(3, 2), (F(3, 2),))


def test_every_catalog_default_lambda_keeps_its_c():
    for entry in builtin_catalog().values():
        lam = entry.default_lambda
        assert normalize_exponents(lam, map_exponents(entry)) == normalize_exponents(lam)


# -- compute_flow: the hand-derived case -------------------------------------


@pytest.fixture(scope="module")
def flow_52() -> FlowResult:
    theta = rescale(UPPER, [F(5, 2)], ["x"])
    return compute_flow(theta)


def test_flow_52_exponent_and_order(flow_52):
    assert flow_52.q == F(3, 2)
    assert flow_52.d == 2


def test_flow_52_limit_matrices(flow_52):
    m1 = M([["0", "5/2 * a1"], ["0", "0"]])
    assert flow_52.limits[0] == m1
    assert flow_52.limits[1].is_zero()
    assert flow_52.generator == m1


def test_flow_52_degenerate_locus(flow_52):
    assert flow_52.degenerate_locus == (parse_poly("5/2 * a1"),)


def test_flow_52_symbolic_flow(flow_52):
    assert flow_of(flow_52) == M([["1", "5/2 * a1 * s"], ["0", "1"]])


def test_flow_of_degenerate_alpha_is_identity(flow_52):
    rho = flow_of(flow_52)
    at_zero = rho.substitute({"a1": GenPoly.zero()})
    assert at_zero == PolyMatrix.identity(2)


def test_compute_flow_rejects_t_constant():
    with pytest.raises(DomainError):
        compute_flow(PolyMatrix.identity(2))


def test_compute_flow_requires_fractional_exponent():
    theta = rescale(UPPER, [F(2)], ["x"])
    with pytest.raises(DomainError):
        compute_flow(theta)


# -- flow_of / nilpotent_exp ---------------------------------------------------


def test_flow_of_identity_when_all_limits_vanish(flow_52):
    degenerate = FlowResult(
        q=flow_52.q,
        d=1,
        limits=(PolyMatrix.zero(2),),
        degenerate_locus=(),
        alpha_vars=flow_52.alpha_vars,
    )
    assert flow_of(degenerate) == PolyMatrix.identity(2)


def test_flow_of_single_jordan_block():
    e12 = PolyMatrix.from_text([["0", "1"], ["0", "0"]])
    res = FlowResult(
        q=F(1),
        d=2,
        limits=(e12, PolyMatrix.zero(2)),
        degenerate_locus=(GenPoly.const(1),),
        alpha_vars=(),
    )
    assert flow_of(res) == M([["1", "s"], ["0", "1"]])


def test_nilpotent_exp_examples():
    y = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert nilpotent_exp(y, 3.0) == pytest.approx(np.array([[1, 3], [0, 1]]))
    assert nilpotent_exp(np.zeros((2, 2)), 5.0) == pytest.approx(np.eye(2))
    y3 = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float)
    expected = np.array([[1, 1, 0.5], [0, 1, 1], [0, 0, 1]])
    assert nilpotent_exp(y3, 1.0) == pytest.approx(expected)


def test_nilpotent_exp_rejects_non_nilpotent():
    with pytest.raises(NilpotencyError):
        nilpotent_exp(np.eye(2), 1.0)


# -- group law ------------------------------------------------------------------


def test_group_law_exact_for_catalog_case(flow_52):
    report = group_law_check(flow_52, trials=100, seed=3)
    assert report.passed
    assert report.symbolic_ok
    assert report.exp_max_err <= 1e-9


def test_group_law_identity_flow(flow_52):
    trivial = FlowResult(
        q=F(1),
        d=1,
        limits=(PolyMatrix.zero(2),),
        degenerate_locus=(),
        alpha_vars=("a1",),
    )
    assert group_law_check(trivial, trials=10, seed=0).passed


def test_group_law_detects_corrupted_limits(flow_52):
    # an M_2 inconsistent with exp(s*M_1) must be caught symbolically
    corrupt = FlowResult(
        q=flow_52.q,
        d=2,
        limits=(flow_52.limits[0], M([["0", "a1"], ["0", "0"]])),
        degenerate_locus=flow_52.degenerate_locus,
        alpha_vars=flow_52.alpha_vars,
    )
    report = group_law_check(corrupt, trials=10, seed=0)
    assert not report.passed
    assert not report.symbolic_ok


def reference_nilpotent_exp(y, s):
    """The one-matrix ``nilpotent_exp`` that the stacked one replaced."""
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    final = np.linalg.matrix_power(y, n)
    if np.max(np.abs(final)) >= 1e-9:
        raise NilpotencyError(
            f"Y^{n} has max entry {np.max(np.abs(final)):.3e} >= 1e-9"
        )
    acc = np.eye(n)
    term = np.eye(n)
    for j in range(1, n):
        term = term @ (s * y) / j
        acc = acc + term
    return acc


def reference_group_law(result, trials, seed):
    """The numeric half of ``group_law_check`` one trial at a time:
    (exp_max_err, failures).  Scalar ``evaluate`` calls follow the same
    operations as the array ones (see test_polyalg)."""
    failures = []
    rho = flow_of(result, "s")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x666C6F77]))
    max_err = 0.0
    for i in range(trials):
        point = {
            v: F(int(rng.integers(0, 128)), 127) for v in result.alpha_vars
        }
        s = F(int(rng.integers(-64, 65)), 32)
        floats = {v: float(x) for v, x in point.items()}
        y0 = result.generator.evaluate(floats)
        try:
            exp_val = reference_nilpotent_exp(y0, float(s))
        except NilpotencyError as err:
            failures.append(f"trial {i}: {err}")
            continue
        direct = rho.evaluate({**floats, "s": float(s)})
        err = float(np.max(np.abs(exp_val - direct)))
        max_err = max(max_err, err)
        if err > 1e-9:
            failures.append(
                f"trial {i}: exp(s*Y) deviates from the flow by {err:.3e}"
            )
    return max_err, failures


def exp_flow(generator, alpha_vars):
    """FlowResult with M_l = Y^l, so flow_of is exp(sY) exactly."""
    limits = [generator]
    for _ in range(generator.dim - 2):
        limits.append(limits[-1] @ generator)
    return FlowResult(q=F(1), d=len(limits), limits=tuple(limits),
                      degenerate_locus=(), alpha_vars=alpha_vars)


def synthetic_flows():
    """Flows whose numeric exp differs from the evaluated flow by rounding
    (inexact coefficients, squares and cubes of s and alpha), one without
    alpha variables, one with an M_2 that is not Y^2, and a non-nilpotent
    generator that fails on some trials only."""
    cases = {}
    cases["inexact3"] = exp_flow(M([
        ["0", "1/3 * a1", "5/7 * a2"],
        ["0", "0", "2/3 * a1^2 + 1/9 * a2"],
        ["0", "0", "0"],
    ]), ("a1", "a2"))
    cases["inexact4"] = exp_flow(M([
        ["0", "3/7 * a1", "1/11 * a1 * a2", "5/3"],
        ["0", "0", "7/5 * a2^3", "1/13 * a1"],
        ["0", "0", "0", "a1^2 + 2/9"],
        ["0", "0", "0", "0"],
    ]), ("a1", "a2"))
    cases["no_alpha"] = exp_flow(M([
        ["0", "1/3", "1/7"], ["0", "0", "5/9"], ["0", "0", "0"],
    ]), ())
    # M_2 is not Y^2: the deviation is continuous in (alpha, s), so
    # exp_max_err depends on every bit of the trial point that attains it
    gen = M([["0", "2/3 * a1", "1/5"], ["0", "0", "3/7 * a1"], ["0", "0", "0"]])
    cases["inconsistent"] = FlowResult(
        q=F(1), d=2, limits=(gen, M([["0", "0", "1/3 * a1^2"], ["0", "0", "0"],
                                     ["0", "0", "0"]])),
        degenerate_locus=(), alpha_vars=("a1",),
    )
    # Y^2 = diag(a1 / 10^8, a1 / 10^8) passes the 1e-9 test only for a1 < 0.1
    cases["not_nilpotent"] = FlowResult(
        q=F(1), d=1, limits=(M([["0", "1"], ["1/100000000 * a1", "0"]]),),
        degenerate_locus=(), alpha_vars=("a1",),
    )
    return cases


def test_group_law_trials_match_the_per_trial_loop():
    cases = {}
    for name, entry in builtin_catalog().items():
        _, lam = normalize_exponents(entry.default_lambda)
        cases[name] = compute_flow(rescale(entry.matrix, lam, entry.map_vars))
    cases.update(synthetic_flows())
    nonzero = set()
    for name, res in cases.items():
        for seed in (0, 1, 3):
            for trials in (0, 100):
                report = group_law_check(res, trials=trials, seed=seed)
                max_err, failures = reference_group_law(res, trials, seed)
                assert report.exp_max_err.hex() == max_err.hex(), (name, seed)
                assert [f for f in report.failures if f.startswith("trial ")] == failures
                assert report.passed == (
                    report.symbolic_ok and not report.failures
                )
                assert report.trials == trials
                if max_err > 0:
                    nonzero.add(name)
    assert {"inexact3", "inexact4", "no_alpha"} <= nonzero
    report = group_law_check(cases["not_nilpotent"], trials=100, seed=1)
    kinds = {f.split(": ")[1][:4] for f in report.failures if f.startswith("trial ")}
    assert kinds == {"Y^2 "}
    assert 5 < sum(f.startswith("trial ") for f in report.failures) < 95


def test_group_law_single_trials_match_the_per_trial_loop():
    # one trial per seed, so exp_max_err is that trial's error and every
    # drawn point shows in it
    res = synthetic_flows()["inconsistent"]
    for seed in range(100):
        report = group_law_check(res, trials=1, seed=seed)
        max_err, failures = reference_group_law(res, 1, seed)
        assert report.exp_max_err.hex() == max_err.hex(), seed
        assert [f for f in report.failures if f.startswith("trial ")] == failures


def test_nilpotent_exp_stack_matches_each_matrix():
    rng = np.random.default_rng(5)
    ys = np.triu(rng.normal(size=(50, 4, 4)), 1)
    ys[7] = np.eye(4)
    ys[30, 3, 0] = 0.5
    s = rng.normal(size=50)
    with pytest.raises(NilpotencyError) as err:
        nilpotent_exp(ys, s)
    failed = dict(err.value.failed)
    assert list(failed) == [(7,), (30,)]
    for i in (7, 30):
        with pytest.raises(NilpotencyError) as one:
            reference_nilpotent_exp(ys[i], s[i])
        assert failed[(i,)] == str(one.value)
    good = np.ones(50, dtype=bool)
    good[[7, 30]] = False
    stack = nilpotent_exp(ys[good], s[good])
    for got, y, si in zip(stack, ys[good], s[good]):
        assert got.tobytes() == reference_nilpotent_exp(y, si).tobytes()


# -- limit residual ----------------------------------------------------------------


def test_limit_residual_scale_at_t_1000(flow_52):
    theta = rescale(UPPER, [F(5, 2)], ["x"])
    res = limit_residual(theta, flow_52, {"a1": 1.0}, s=1.0, t=1e3)
    # dominant discarded term is (15/8) s^2 t^{-5/2}
    assert res <= 2.0 * 1e3 ** -2.5
    assert res == pytest.approx(15 / 8 * 1e3 ** -2.5, rel=1e-2)


def test_limit_residual_zero_shift(flow_52):
    theta = rescale(UPPER, [F(5, 2)], ["x"])
    assert limit_residual(theta, flow_52, {"a1": 1.0}, s=0.0, t=1e3) <= 1e-30


def test_limit_residual_decreases_in_t(flow_52):
    theta = rescale(UPPER, [F(5, 2)], ["x"])
    vals = [
        limit_residual(theta, flow_52, {"a1": 0.8}, s=2.0, t=t)
        for t in (1e2, 1e3, 1e4)
    ]
    assert vals[0] > vals[1] > vals[2]


# -- two-variable flows ---------------------------------------------------------------


def test_twodim_flow_xy():
    res = twodim_flow(M([["1", "x * y"], ["0", "1"]]))
    assert res.q == 0
    assert res.lambda_of_y == M([["0", "y"], ["0", "0"]])
    assert res.d == 1
    assert res.lambda0 == M([["0", "1"], ["0", "0"]])
    assert res.flow() == M([["1", "s"], ["0", "1"]])
    assert res.p == 1 and res.b == 2
    assert res.ratio_set == ()
    assert res.dominant_ratio is None


def test_twodim_flow_product_type():
    res = twodim_flow(PRODUCT_UL)
    assert res.q == 0
    assert res.d == 0
    assert res.lambda0 == M([["0", "1"], ["0", "0"]])
    assert res.p == 0 and res.b == 1
    assert res.ratio_set == ()


def test_twodim_flow_mixed_degrees():
    res = twodim_flow(M([["1", "x^2 + x * y^3"], ["0", "1"]]))
    assert res.q == 1
    assert res.lambda0 == M([["0", "2"], ["0", "0"]])
    assert res.flow() == M([["1", "2 * s"], ["0", "1"]])
    assert res.p == 3 and res.b == 4
    assert res.ratio_set == ((F(3), F(1)),)
    assert res.dominant_ratio == (F(3), F(1))


def test_twodim_flow_requires_x_degree():
    with pytest.raises(DomainError):
        twodim_flow(M([["1", "y"], ["0", "1"]]))


def test_twodim_residual_exact_case():
    theta = M([["1", "x * y"], ["0", "1"]])
    res = twodim_flow(theta)
    for x, y in ((3.0, 5.0), (11.0, 2.0)):
        assert twodim_residual(theta, res, s=1.0, x=x, y=y) <= 1e-40


def test_twodim_residual_zero_shift():
    theta = M([["1", "x^2 + x * y^3"], ["0", "1"]])
    res = twodim_flow(theta)
    assert twodim_residual(theta, res, s=0.0, x=10.0, y=3.0) <= 1e-40


def test_twodim_residual_decreases_along_compliant_sequence():
    theta = M([["1", "x^2 + x * y^3"], ["0", "1"]])
    res = twodim_flow(theta)
    # (x, y) = (n^4, n) respects the b = 4 box condition
    vals = [
        twodim_residual(theta, res, s=1.0, x=float(n) ** 4, y=float(n))
        for n in (10, 100, 1000)
    ]
    assert vals[0] > vals[1] > vals[2]


def reference_twodim_flow(lambda0, s_var="s"):
    """``TwoDimFlowResult.flow`` before it shared ``flow_of``'s series."""
    n = lambda0.dim
    acc = PolyMatrix.identity(n)
    term = PolyMatrix.identity(n)
    for j in range(1, n):
        term = (term @ lambda0).scale(GenPoly.monomial(F(1, j), {s_var: 1}))
        acc = acc + term
    return acc


def test_twodim_flow_text_matches_the_term_loop():
    results = [twodim_flow(e.matrix, *e.map_vars)
               for e in builtin_catalog().values() if e.k == 2]
    base = results[0]
    for lambda0 in (
        M([["0", "1/3", "5/7"], ["0", "0", "-2/9"], ["0", "0", "0"]]),
        M([["0", "3/7", "1/11", "5/3"], ["0", "0", "7/5", "-1/13"],
           ["0", "0", "0", "2/9"], ["0", "0", "0", "0"]]),
        M([["0", "0", "1/3"], ["0", "0", "0"], ["0", "0", "0"]]),
    ):
        results.append(dataclasses.replace(base, lambda0=lambda0))
    assert {r.lambda0.dim for r in results} == {2, 3, 4}
    for res in results:
        for s_var in ("s", "s1"):
            ref = reference_twodim_flow(res.lambda0, s_var)
            assert res.flow(s_var).to_text() == ref.to_text()
            assert str(res.flow(s_var)) == str(ref)


# -- the cocycle table: each product D^l theta . theta^{-1} once ---------------


def count_products(monkeypatch):
    calls = []
    product = PolyMatrix.__matmul__

    def counting(a, b):
        calls.append(None)
        return product(a, b)

    monkeypatch.setattr(PolyMatrix, "__matmul__", counting)
    return calls


@pytest.mark.parametrize("name", sorted(builtin_catalog()))
def test_compute_flow_forms_each_cocycle_once(monkeypatch, name):
    entry = builtin_catalog()[name]
    _, lam = normalize_exponents(entry.default_lambda)
    theta = rescale(entry.matrix, lam, entry.map_vars)
    calls = count_products(monkeypatch)
    res = compute_flow(theta)
    assert len(calls) <= res.d + 1  # d cocycles, at most one shifted product


@pytest.mark.parametrize(
    "name", sorted(n for n, e in builtin_catalog().items() if e.k == 2))
def test_twodim_flow_forms_each_cocycle_once(monkeypatch, name):
    entry = builtin_catalog()[name]
    calls = count_products(monkeypatch)
    res = twodim_flow(entry.matrix, *entry.map_vars)
    # d0 cocycles, then lambda0^2 .. lambda0^N for the nilpotency check
    assert len(calls) == res.d0 + entry.dim - 1
