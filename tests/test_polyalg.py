"""Exact-arithmetic substrate: ring laws, degrees, substitution, text form."""

import math
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import oracles
import pytest

from boxflow.errors import DivergentLimitError, DomainError, ExponentError
from boxflow.polyalg import NEG_INF, GenPoly, _var_key, parse_poly
from boxflow.polymatrix import PolyMatrix

F = Fraction


def P(text):
    return parse_poly(text)


def random_poly(rng, variables=("a1", "a2", "t"), max_terms=4, laurent_t=True):
    terms = {}
    p = GenPoly.zero()
    for _ in range(rng.randint(0, max_terms)):
        coeff = F(rng.randint(-6, 6), rng.randint(1, 5))
        powers = {}
        for v in variables:
            if rng.random() < 0.6:
                if v == "t" and laurent_t:
                    powers[v] = F(rng.randint(-6, 6), rng.choice([1, 2, 4]))
                else:
                    powers[v] = rng.randint(0, 3)
        p = p + GenPoly.monomial(coeff, powers)
    return p


def test_differentiate_power_rule():
    p = GenPoly.monomial(1, {"t": F(5, 2)})
    assert p.differentiate("t") == GenPoly.monomial(F(5, 2), {"t": F(3, 2)})


def test_differentiate_constant():
    assert GenPoly.const(7).differentiate("t") == GenPoly.zero()


def test_differentiate_carries_coefficient():
    p = GenPoly.monomial(1, {"a1": 1, "t": F(5, 2)})
    expected = GenPoly.monomial(F(5, 2), {"a1": 1, "t": F(3, 2)})
    assert p.differentiate("t") == expected


def test_degree_examples():
    assert P("t^3/2 + 2 * t").degree_in("t") == F(3, 2)
    assert GenPoly.zero().degree_in("t") is NEG_INF
    assert NEG_INF == -math.inf
    assert P("a1^2").degree_in("t") == 0


def test_neg_inf_orders_below_all_rationals():
    assert NEG_INF < F(-10**9)
    assert not (NEG_INF > F(0))
    assert NEG_INF == NEG_INF
    assert F(-1, 2) > NEG_INF
    assert not (F(-1, 2) < NEG_INF)


def test_substitute_monomial_bindings():
    # x -> a1*t, y -> a2*t^2 in x*y gives a1*a2*t^3
    p = GenPoly.monomial(1, {"x": 1, "y": 1})
    out = p.substitute(
        {
            "x": GenPoly.monomial(1, {"a1": 1, "t": 1}),
            "y": GenPoly.monomial(1, {"a2": 1, "t": 2}),
        }
    )
    assert out == GenPoly.monomial(1, {"a1": 1, "a2": 1, "t": 3})


def test_substitute_identity_binding():
    p = P("a1 * t^5/2 + 3")
    assert p.substitute({"t": GenPoly.variable("t")}) == p


def test_substitute_rejects_fractional_exponent_leak():
    # t^(1/2) with t bound to a non-monomial would need fractional powers
    # of a plain variable
    p = GenPoly.monomial(1, {"t": F(1, 2)})
    with pytest.raises(ExponentError):
        p.substitute({"t": P("x + 1")})


def test_fractional_power_of_plain_variable_rejected():
    with pytest.raises(ExponentError):
        GenPoly.monomial(1, {"x": F(1, 2)})


def test_evaluate_basic():
    assert P("t^3/2").evaluate({"t": 4.0}) == pytest.approx(8.0)
    assert P("a1 * t").evaluate({"a1": 2.0, "t": 3.0}) == pytest.approx(6.0)


def test_evaluate_pole_is_error():
    with pytest.raises(DomainError):
        P("t^-1").evaluate({"t": 0.0})
    with pytest.raises(DomainError):
        P("t^1/2").evaluate({"t": -2.0})


def test_evaluate_unbound_variable_is_error():
    with pytest.raises(DomainError):
        P("a1 * t").evaluate({"t": 1.0})


def test_limit_t_to_infinity():
    p = P("5/2 * a1 + a1 * t^-5/2")
    lim, rem = p.limit_t_to_infinity()
    assert lim == P("5/2 * a1")
    assert rem == P("a1 * t^-5/2")

    lim, rem = GenPoly.const(3).limit_t_to_infinity()
    assert lim == GenPoly.const(3)
    assert rem.is_zero()

    with pytest.raises(DivergentLimitError):
        P("a1 * t").limit_t_to_infinity()


def test_ring_laws_exact_on_random_triples():
    rng = random.Random(20260809)
    for _ in range(200):
        a = random_poly(rng)
        b = random_poly(rng)
        c = random_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def ring_case_poly(rng, variables):
    """Up to five terms over ``variables`` in random order (so names that tie
    in ``_var_key`` meet in either order), t-exponents +-p/q from a small
    set so that products cancel them, and coefficients from a small set so
    that sums cancel terms."""
    p = GenPoly.zero()
    for _ in range(rng.randint(0, 5)):
        names = rng.sample(variables, rng.randint(0, len(variables)))
        powers = {v: (rng.choice([1, -1]) * F(rng.choice([1, 2, 3]), rng.choice([1, 2, 3]))
                      if v == "t" else rng.randint(1, 2)) for v in names}
        p = p + GenPoly.monomial(rng.choice([-2, -1, F(1, 2), 1, 3]), powers)
    return p


@pytest.mark.parametrize("variables", [
    ("a1", "s", "t", "xi"),            # t exponents +-p/q that cancel
    ("x", "y", "a2"),                  # integer exponents only
    ("a1", "a01", "a001", "t", "x"),   # a1, a01 and a001 tie in _var_key
])
def test_ring_operations_equal_the_concatenate_and_sort_reference(variables):
    rng = random.Random(f"ring {variables}")
    variables = list(variables)

    def check(got, want):
        assert dict(got.terms()) == want
        assert list(got.terms()) == list(want.items())

    for _ in range(300):
        p, q = ring_case_poly(rng, variables), ring_case_poly(rng, variables)
        a, b = dict(p.terms()), dict(q.terms())
        check(p * q, oracles.poly_mul(a, b))
        check(p + q, oracles.poly_add(a, b))
        check(p - q, oracles.poly_sub(a, b))
    for n in (2, 3):
        for _ in range(20):
            a, b = ([[ring_case_poly(rng, variables) for _ in range(n)] for _ in range(n)]
                    for _ in range(2))
            want = oracles.poly_matmul(*([[dict(e.terms()) for e in row] for row in m]
                                         for m in (a, b)))
            got = PolyMatrix(a) @ PolyMatrix(b)
            for got_row, want_row in zip(got.entries, want):
                for g, w in zip(got_row, want_row):
                    check(g, w)


def test_derivative_linear_and_leibniz_exact():
    rng = random.Random(7)
    for _ in range(200):
        a = random_poly(rng)
        b = random_poly(rng)
        da, db = a.differentiate("t"), b.differentiate("t")
        assert (a + b).differentiate("t") == da + db
        assert (a * b).differentiate("t") == da * b + a * db


def test_degree_multiplicative_when_nonzero():
    rng = random.Random(99)
    for _ in range(200):
        a = random_poly(rng)
        b = random_poly(rng)
        if a.is_zero() or b.is_zero():
            continue
        for v in ("t", "a1"):
            da, db = a.degree_in(v), b.degree_in(v)
            prod = a * b
            if prod.is_zero():
                continue
            # leading coefficients over the other variables cannot cancel
            # for the top exponent pair, so degrees add
            assert prod.degree_in(v) == da + db


def test_substitute_evaluate_consistency():
    rng = random.Random(13)
    for _ in range(100):
        p = random_poly(rng, variables=("x", "y"), laurent_t=False)
        bindings = {
            "x": GenPoly.monomial(F(rng.randint(1, 3)), {"a1": 1, "t": F(3, 2)}),
            "y": GenPoly.monomial(F(rng.randint(1, 3), 2), {"a2": 1, "t": 1}),
        }
        q = p.substitute(bindings)
        point = {"a1": 0.7, "a2": 1.3, "t": 2.25}
        composed = {
            "x": bindings["x"].evaluate(point),
            "y": bindings["y"].evaluate(point),
        }
        lhs = q.evaluate(point)
        rhs = p.evaluate(composed)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_evaluate_exact_rational_points():
    p = P("a1^2 * a2 - 3 * a1 + 1/2")
    val = p.evaluate_exact({"a1": F(1, 2), "a2": F(4)})
    assert val == F(1, 4) * 4 - F(3, 2) + F(1, 2)


def test_text_round_trip_exact():
    rng = random.Random(31337)
    for _ in range(300):
        p = random_poly(rng, variables=("a1", "a2", "s", "t", "x", "xi", "y"))
        assert parse_poly(p.to_text()) == p


def test_parse_specific_forms():
    assert P("0").is_zero()
    assert P("-5/2 * a1 * t^-5/2") == GenPoly.monomial(F(-5, 2), {"a1": 1, "t": F(-5, 2)})
    assert P("1 - t") == GenPoly.const(1) - GenPoly.variable("t")


def test_hash_consistency():
    a = P("a1 * t^1/2 + 2")
    b = P("2 + a1 * t^1/2")
    assert a == b
    assert hash(a) == hash(b)


# -- cached term order and array evaluation ---------------------------------------


def fresh_order(p):
    """The canonical term order, sorted afresh."""
    var_order = sorted({v for mono, _ in p.terms() for v, _ in mono}, key=_var_key)

    def key(item):
        powers = dict(item[0])
        return tuple(powers.get(v, F(0)) for v in var_order)

    return sorted(p.terms(), key=key, reverse=True)


def reference_evaluate(p, point):
    """Scalar evaluation as it was before the term order was cached and
    arrays were accepted: sort, then Python float arithmetic."""
    total = 0.0
    for mono, coeff in fresh_order(p):
        val = float(coeff)
        for var, exp in mono:
            base = float(point[var])
            if exp.denominator == 1:
                val *= base ** int(exp)
            else:
                val *= base ** float(exp)
        total += val
    return total


def built_polys():
    """Polynomials from parse, +, *, ** and substitute."""
    rng = random.Random(77)
    polys = [P("a1^3 * t^-1/2 - 2/3 * a2 * t^5/4 + 7 + a1 * a2^2"),
             P("x^4 - 3 * x^2 * y + 1/5 * y^3 - x")]
    for _ in range(40):
        a = random_poly(rng)
        b = random_poly(rng)
        polys += [a + b, a * b, (a + 1) ** rng.randint(0, 4)]
        c = random_poly(rng, variables=("x", "y"), laurent_t=False)
        polys.append(c.substitute({
            "x": GenPoly.monomial(F(rng.randint(1, 3)), {"a1": 1, "t": F(3, 2)}),
            "y": a,
        }))
    return polys


def test_cached_term_order_equals_a_fresh_sort():
    for p in built_polys():
        assert list(p._sorted_terms()) == fresh_order(p)
        assert p._sorted_terms() is p._sorted_terms()
        assert parse_poly(p.to_text()) == p


def test_array_evaluate_equals_scalar_evaluate_bitwise():
    rng = np.random.default_rng(3)
    n = 64
    point = {
        "a1": rng.normal(size=n) * 3, "a2": rng.random(n) * 200 - 100,
        "t": rng.random(n) * 50 + 1e-3, "x": rng.normal(size=n),
        "y": np.arange(n) / 127,
    }
    for p in built_polys():
        if not set(p.variables()) <= set(point):
            continue
        got = np.broadcast_to(p.evaluate(point), (n,))
        for i in range(n):
            at = {v: float(a[i]) for v, a in point.items()}
            assert got[i].tobytes() == np.float64(p.evaluate(at)).tobytes()
            assert got[i].tobytes() == np.float64(reference_evaluate(p, at)).tobytes()


def test_array_evaluate_checks_every_element():
    p = P("a1 * t^-1/2")
    ok = {"a1": np.ones(3), "t": np.array([1.0, 2.0, 3.0])}
    assert p.evaluate(ok).shape == (3,)
    with pytest.raises(DomainError, match="positive"):
        p.evaluate({"a1": np.ones(3), "t": np.array([1.0, 0.0, 3.0])})
    with pytest.raises(DomainError, match="positive"):
        P("t^-2 + a1").evaluate({"a1": 1.0, "t": np.array([0.5, -0.0])})
    assert P("3/4").evaluate(ok) == 0.75


def test_polymatrix_array_evaluate_broadcasts_constant_entries():
    m = PolyMatrix.from_text([["1 + a1^2 * s", "a1 * s^3"], ["0", "1"]])
    a1 = np.linspace(-1, 1, 9)
    s = np.arange(-4, 5) / 3
    stack = m.evaluate({"a1": a1, "s": s})
    assert stack.shape == (9, 2, 2)
    for i in range(9):
        one = m.evaluate({"a1": float(a1[i]), "s": float(s[i])})
        assert stack[i].tobytes() == one.tobytes()


def test_pickled_polymatrix_keeps_its_results():
    m = PolyMatrix.from_text([["1 + a1^2 * t^3/2", "a1 * t^-1/2"],
                              ["2/3 * a2 * t^5/4", "1 + 7 * a1 * a2"]])
    point = {"a1": np.linspace(0.1, 2, 5), "a2": -1.5, "t": np.linspace(1, 9, 5)}
    before = m.evaluate(point)
    again = pickle.loads(pickle.dumps(m))
    assert again == m
    assert again.evaluate(point).tobytes() == before.tobytes()
    assert again.to_text() == m.to_text()


def test_pickled_polynomial_hashes_in_a_process_with_another_hash_seed(tmp_path):
    p = P("x + 2 * y - 1/3 * a1 * t^1/2")
    hash(p)
    (tmp_path / "p.pkl").write_bytes(pickle.dumps(p))
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import pickle, sys\n"
        "from boxflow.polyalg import parse_poly\n"
        "q = pickle.loads(open(sys.argv[1], 'rb').read())\n"
        "print(q in {parse_poly(sys.argv[2])})\n"
    )
    for seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "p.pkl"), p.to_text()],
            env={"PYTHONHASHSEED": seed, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "True"
