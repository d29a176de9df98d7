"""Catalog integrity: spans, unimodularity, file round trip."""

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
    assert all("sl" not in item for item in json.loads(path.read_text())["maps"])


def test_malformed_catalog(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(CatalogError):
        load_catalog(str(path))
    path.write_text('{"maps": [{"name": "x"}]}')
    with pytest.raises(CatalogError):
        load_catalog(str(path))


UPPER = [["1", "x"], ["0", "1"]]
DET2 = [["2", "x"], ["0", "1"]]


@pytest.mark.parametrize("rows,orbit_rows,message", [
    (UPPER, [["1", "x", "z"], ["0", "1", "y"], ["0", "0", "1"]],
     "orbit map is 3x3, dim field is 2"),
    (UPPER, DET2, "orbit map is not unimodular, det = 2"),
    (DET2, None, "map is not unimodular, det = 2"),
])
def test_maps_must_be_unimodular_of_the_entry_dimension(rows, orbit_rows, message):
    entry = MapEntry(
        name="custom",
        dim=2,
        map_vars=("x",),
        matrix=PolyMatrix.from_text(rows),
        product_type=True,
        default_lambda=(1,),
        closed_orbit=orbit_rows is not None,
        period=1.0,
        orbit_map=PolyMatrix.from_text(orbit_rows) if orbit_rows else None,
    )
    with pytest.raises(CatalogError, match=message):
        entry.validate()
