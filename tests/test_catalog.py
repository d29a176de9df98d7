"""Catalog integrity: spans, unimodularity, file round trip, and the
reference rule and product type derived from the map."""

import json

import pytest

from boxflow.catalog import MapEntry, builtin_catalog, dump_catalog, get_map, load_catalog
from boxflow.errors import CatalogError
from boxflow.flowlimit import compute_flow, normalize_exponents, rescale, twodim_flow
from boxflow.polyalg import GenPoly
from boxflow.polymatrix import PolyMatrix


def test_builtins_validate_and_span():
    cat = builtin_catalog()
    assert len(cat) >= 6
    assert {e.k for e in cat.values()} == {1, 2}
    assert {e.dim for e in cat.values()} == {2, 3}
    assert {e.product_type for e in cat.values()} == {True, False}
    for entry in cat.values():
        assert entry.matrix.determinant() == GenPoly.const(1)


def test_every_map_has_positive_critical_exponent():
    for entry in builtin_catalog().values():
        _, lam = normalize_exponents(entry.default_lambda)
        res = compute_flow(rescale(entry.matrix, lam, entry.map_vars))
        assert res.q > 0


def test_product_type_two_variable_maps_have_p_zero():
    # product structure keeps the derivative cocycle free of the second
    # variable, so the box exponent can be taken arbitrarily close to zero
    cat = builtin_catalog()
    checked = 0
    for entry in cat.values():
        if entry.k == 2 and entry.product_type:
            res = twodim_flow(entry.matrix, *entry.map_vars)
            assert res.p == 0
            assert res.b == 1
            checked += 1
    assert checked >= 2


def test_get_map_unknown():
    with pytest.raises(CatalogError):
        get_map("missing_map")


def test_file_round_trip(tmp_path):
    cat = builtin_catalog()
    path = tmp_path / "catalog.json"
    dump_catalog(str(path), cat)
    assert load_catalog(str(path)) == cat
    # no hand-set field is written: the matrix size, product type and
    # reference are derived from the map
    data = json.loads(path.read_text())
    keys = {"name", "vars", "entries", "default_lambda", "notes"}
    assert all(set(item) == keys for item in data["maps"])
    # a catalog written with the retired dim key loads unchanged
    for item in data["maps"]:
        item["dim"] = len(item["entries"])
    path.write_text(json.dumps(data))
    assert load_catalog(str(path)) == cat


def test_malformed_catalog(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(CatalogError):
        load_catalog(str(path))
    path.write_text('{"maps": [{"name": "x"}]}')
    with pytest.raises(CatalogError):
        load_catalog(str(path))


def test_maps_must_be_unimodular():
    entry = MapEntry(
        name="custom",
        map_vars=("x",),
        matrix=PolyMatrix.from_text([["2", "x"], ["0", "1"]]),
        default_lambda=(1,),
    )
    with pytest.raises(CatalogError, match="map is not unimodular, det = 2"):
        entry.validate()


@pytest.mark.parametrize("item,message", [
    ({"entries": [["2", "x"], ["0", "1"]]}, "map is not unimodular, det = 2"),
    ({"default_lambda": ["1", "1/2"]}, "one box exponent per variable"),
], ids=["det-2", "two-exponents-one-variable"])
def test_a_catalog_file_is_validated_on_load(tmp_path, item, message):
    item = {"name": "custom", "vars": ["x"], "entries": [["1", "x"], ["0", "1"]],
            "default_lambda": ["1"], **item}
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"maps": [item]}))
    with pytest.raises(CatalogError, match=f"custom: {message}"):
        load_catalog(str(path))


# the hand-set flags the built-ins carried before both were derived: the
# orbit support S (None for Haar) and the product type
FORMER_FLAGS = {
    "heis52": ([(0, 1)], True),
    "u_horo": ([(0, 1)], True),
    "u_squared": ([(0, 1)], True),
    "ul_product": (None, True),
    "poly23": ([(0, 1)], False),
    "poly23_lower": (None, False),
    "heis3": ([(0, 1), (1, 2), (0, 2)], True),
}


def test_derived_reference_rule_and_product_type_match_the_former_flags():
    cat = builtin_catalog()
    assert set(cat) == set(FORMER_FLAGS)
    for name, (support, product_type) in FORMER_FLAGS.items():
        entry = cat[name]
        assert entry.product_type is product_type, name
        if support is None:
            assert entry.orbit is None, name
            continue
        orbit, names = entry.orbit
        expected = [[1 if i == j else 0 for j in range(entry.dim)]
                    for i in range(entry.dim)]
        for (i, j), v in zip(support, names):
            expected[i][j] = GenPoly.variable(v)
        assert orbit == PolyMatrix(expected), name


def test_the_orbit_is_computed_once_per_entry(monkeypatch):
    import boxflow.catalog as catalog

    calls = []
    real = catalog.lie_algebra
    monkeypatch.setattr(catalog, "lie_algebra", lambda *a: calls.append(a) or real(*a))
    entry = builtin_catalog()["heis3"]
    assert not calls
    assert entry.orbit is entry.orbit
    assert len(calls) == 1


def test_orbits_of_maps_outside_the_catalog():
    # g(0) = diag(2, 1/2) times the horocycle: the orbit map is g(0) u(x1)
    entry = MapEntry(name="shifted", map_vars=("x",),
                     matrix=PolyMatrix.from_text([["2", "2 * x"], ["0", "1/2"]]),
                     default_lambda=(1,))
    assert entry.orbit == (PolyMatrix.from_text([["2", "2 * x1"], ["0", "1/2"]]), ("x1",))
    # g^-1 g' = E12 + x E23: its coefficients span no Lie algebra, and their
    # bracket E13 completes the upper unipotent group
    entry = MapEntry(name="bracket", map_vars=("x",), default_lambda=(1,),
                     matrix=PolyMatrix.from_text([["1", "x", "1/3 * x^3"],
                                                  ["0", "1", "1/2 * x^2"], ["0", "0", "1"]]))
    assert entry.orbit == (PolyMatrix.from_text([["1", "x1", "x2"], ["0", "1", "x5"],
                                                 ["0", "0", "1"]]), ("x1", "x5", "x2"))
    # upper times lower unipotents in SL(3) generate sl(3): Haar
    ul3 = PolyMatrix.from_text([["1", "x", "0"], ["0", "1", "x"], ["0", "0", "1"]]) @ \
        PolyMatrix.from_text([["1", "0", "0"], ["y", "1", "0"], ["0", "y", "1"]])
    entry = MapEntry(name="ul3", map_vars=("x", "y"), matrix=ul3,
                     default_lambda=(1, 1))
    assert entry.orbit is None
