"""Matrix layer: exact products, unimodular inverses, evaluation."""

import random
from fractions import Fraction

import numpy as np
import pytest

from boxflow.errors import DeterminantError, DimensionError
from boxflow.polyalg import NEG_INF, GenPoly
from boxflow.polymatrix import PolyMatrix

F = Fraction


def M(rows):
    return PolyMatrix.from_text(rows)


UPPER_52 = M([["1", "a1 * t^5/2"], ["0", "1"]])
UPPER_52_INV = M([["1", "-1 * a1 * t^5/2"], ["0", "1"]])


def test_exponent_addition_in_product():
    half = M([["t^1/2"]])
    assert half @ half == M([["t"]])


def test_identity_product():
    rng = random.Random(5)
    for _ in range(20):
        rows = [
            [
                GenPoly.monomial(F(rng.randint(-3, 3)), {"a1": rng.randint(0, 2)})
                for _ in range(2)
            ]
            for _ in range(2)
        ]
        m = PolyMatrix(rows)
        assert PolyMatrix.identity(2) @ m == m
        assert m @ PolyMatrix.identity(2) == m


def test_unipotent_pair_multiplies_to_identity():
    # expanding the four entry products by hand gives the identity
    assert UPPER_52 @ UPPER_52_INV == PolyMatrix.identity(2)


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        M([["1"]]) @ UPPER_52


def test_inverse_sl_unipotent():
    assert UPPER_52.inverse_sl() == UPPER_52_INV
    assert PolyMatrix.identity(3).inverse_sl() == PolyMatrix.identity(3)


def test_inverse_sl_product_type_map():
    m = M([["1 + x * y", "x"], ["y", "1"]])
    inv = m.inverse_sl()
    assert inv == M([["1", "-1 * x"], ["-1 * y", "1 + x * y"]])
    assert m @ inv == PolyMatrix.identity(2)


def test_inverse_sl_rejects_non_unimodular():
    bad = M([["2", "x"], ["0", "1/2"]])
    # det = 1 here, so use a genuinely bad one
    assert bad.determinant() == GenPoly.const(1)
    worse = M([["2", "x"], ["0", "1"]])
    with pytest.raises(DeterminantError) as err:
        worse.inverse_sl()
    assert "2" in err.value.det_text


def test_inverse_sl_three_by_three():
    m = M(
        [
            ["1", "x", "x * y"],
            ["0", "1", "y"],
            ["0", "0", "1"],
        ]
    )
    inv = m.inverse_sl()
    assert m @ inv == PolyMatrix.identity(3)
    assert inv @ m == PolyMatrix.identity(3)


def test_random_sl_inverse_round_trip():
    # products of elementary unipotents are unimodular by construction
    rng = random.Random(2024)
    gens = [
        M([["1", "x"], ["0", "1"]]),
        M([["1", "0"], ["y", "1"]]),
        M([["1", "x * y"], ["0", "1"]]),
    ]
    for _ in range(25):
        m = PolyMatrix.identity(2)
        for _ in range(rng.randint(1, 4)):
            m = m @ rng.choice(gens)
        inv = m.inverse_sl()
        assert m @ inv == PolyMatrix.identity(2)
        assert inv @ m == PolyMatrix.identity(2)


def test_evaluate_matches_entrywise():
    pt = {"a1": 0.5, "t": 4.0}
    arr = UPPER_52.evaluate(pt)
    assert arr == pytest.approx(np.array([[1.0, 0.5 * 32.0], [0.0, 1.0]]))


def test_degree_in_over_entries():
    assert UPPER_52.degree_in("t") == F(5, 2)
    assert PolyMatrix.identity(2).degree_in("t") == 0
    assert PolyMatrix.zero(2).degree_in("t") is NEG_INF


def test_text_round_trip():
    again = PolyMatrix.from_text(UPPER_52.to_text())
    assert again == UPPER_52
