"""Named trajectory maps used by the symbolic checks and the experiments.

The built-in maps span one and two parameters, matrix sizes 2 and 3, and
product / non-product type.  Catalogs can also be loaded from a JSON file
with the same fields as :class:`MapEntry`; entries are serialized as text
matrices of generalized polynomials.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import CatalogError
from .polyalg import GenPoly
from .polymatrix import PolyMatrix

F = Fraction


@dataclass(frozen=True)
class MapEntry:
    name: str
    dim: int
    map_vars: tuple
    matrix: PolyMatrix
    product_type: bool
    default_lambda: tuple
    closed_orbit: bool = False
    period: Optional[float] = None
    # map whose per-period average over orbit_vars defines the reference
    # measure when the orbit closure is proper (a circle orbit for the
    # horocycle entries, a compact nilmanifold for the dimension-3 one)
    orbit_map: Optional[PolyMatrix] = None
    orbit_vars: tuple = ("x",)
    notes: str = ""

    @property
    def k(self) -> int:
        return len(self.map_vars)

    def validate(self) -> None:
        for label, m in (("map", self.matrix), ("orbit map", self.orbit_map)):
            if m is None:
                continue
            if m.dim != self.dim:
                raise CatalogError(
                    f"{self.name}: {label} is {m.dim}x{m.dim}, dim field is {self.dim}")
            if m.determinant() != GenPoly.const(1):
                raise CatalogError(
                    f"{self.name}: {label} is not unimodular, det = "
                    f"{m.determinant().to_text()}"
                )
        if len(self.default_lambda) != len(self.map_vars):
            raise CatalogError(f"{self.name}: one box exponent per variable")
        if self.closed_orbit and (self.period is None or self.orbit_map is None):
            raise CatalogError(
                f"{self.name}: closed-orbit entries need a period and an "
                "orbit map"
            )


def _entry(name, rows, lam, *, dim=2, map_vars=("x",), product_type=False,
           closed_orbit=False, period=None, orbit_rows=None,
           orbit_vars=("x",), notes=""):
    e = MapEntry(
        name=name,
        dim=dim,
        map_vars=tuple(map_vars),
        matrix=PolyMatrix.from_text(rows),
        product_type=product_type,
        default_lambda=tuple(Fraction(v) for v in lam),
        closed_orbit=closed_orbit,
        period=period,
        orbit_map=PolyMatrix.from_text(orbit_rows) if orbit_rows else None,
        orbit_vars=tuple(orbit_vars),
        notes=notes,
    )
    e.validate()
    return e


def builtin_catalog() -> dict:
    entries = [
        _entry(
            "heis52",
            [["1", "x"], ["0", "1"]],
            [F(5, 2)],
            product_type=True,
            closed_orbit=True,
            period=1.0,
            orbit_rows=[["1", "x"], ["0", "1"]],
            notes="upper unipotent under the 5/2 box family; the periodic "
            "horocycle of u_horo",
        ),
        _entry(
            "u_horo",
            [["1", "x"], ["0", "1"]],
            [F(1)],
            product_type=True,
            closed_orbit=True,
            period=1.0,
            orbit_rows=[["1", "x"], ["0", "1"]],
            notes="periodic horocycle through the standard lattice",
        ),
        _entry(
            "u_squared",
            [["1", "x^2"], ["0", "1"]],
            [F(5, 4)],
            product_type=True,
            closed_orbit=True,
            period=1.0,
            orbit_rows=[["1", "x"], ["0", "1"]],
            notes="quadratic reparametrization of the periodic horocycle",
        ),
        _entry(
            "ul_product",
            [["1 + x * y", "x"], ["y", "1"]],
            [F(1), F(1, 2)],
            map_vars=("x", "y"),
            product_type=True,
            notes="upper times lower unipotent; limit group SL(2,R) "
            "(semisimple), asserted by the catalog author",
        ),
        _entry(
            "poly23",
            [["1", "x^2 + x * y^3"], ["0", "1"]],
            [F(1, 2), F(1)],
            map_vars=("x", "y"),
            closed_orbit=True,
            period=1.0,
            orbit_rows=[["1", "x"], ["0", "1"]],
            notes="mixed-degree upper unipotent; orbit stays on the "
            "periodic horocycle",
        ),
        _entry(
            "poly23_lower",
            [
                ["1 + x^2 * y + x * y^4", "x^2 + x * y^3"],
                ["y", "1"],
            ],
            [F(1), F(1, 2)],
            map_vars=("x", "y"),
            notes="mixed-degree map seeded with a lower unipotent; limit "
            "group SL(2,R) (semisimple), asserted by the catalog author",
        ),
        _entry(
            "heis3",
            [
                ["1", "x", "x * y"],
                ["0", "1", "y"],
                ["0", "0", "1"],
            ],
            [F(3, 2), F(5, 4)],
            dim=3,
            map_vars=("x", "y"),
            product_type=True,
            closed_orbit=True,
            period=1.0,
            orbit_rows=[
                ["1", "x", "z"],
                ["0", "1", "y"],
                ["0", "0", "1"],
            ],
            orbit_vars=("x", "y", "z"),
            notes="two elementary unipotents in SL(3); orbit closure is "
            "the compact nilmanifold of the full upper unipotent group",
        ),
    ]
    return {e.name: e for e in entries}


def get_map(name: str, path: Optional[str] = None) -> MapEntry:
    cat = load_catalog(path) if path else builtin_catalog()
    try:
        return cat[name]
    except KeyError:
        raise CatalogError(
            f"unknown map {name!r}; available: {', '.join(sorted(cat))}"
        ) from None


def dump_catalog(path: str, entries: dict) -> None:
    data = []
    for e in entries.values():
        data.append(
            {
                "name": e.name,
                "dim": e.dim,
                "vars": list(e.map_vars),
                "entries": e.matrix.to_text(),
                "product_type": e.product_type,
                "default_lambda": [str(v) for v in e.default_lambda],
                "closed_orbit": e.closed_orbit,
                "period": e.period,
                "orbit_entries": e.orbit_map.to_text() if e.orbit_map else None,
                "orbit_vars": list(e.orbit_vars),
                "notes": e.notes,
            }
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"maps": data}, fh, indent=2)
        fh.write("\n")


def load_catalog(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise CatalogError(f"cannot read catalog {path}: {err}") from err
    out = {}
    try:
        for item in raw["maps"]:
            entry = MapEntry(
                name=item["name"],
                dim=item["dim"],
                map_vars=tuple(item["vars"]),
                matrix=PolyMatrix.from_text(item["entries"]),
                product_type=bool(item.get("product_type", False)),
                default_lambda=tuple(
                    Fraction(v) for v in item["default_lambda"]
                ),
                closed_orbit=bool(item.get("closed_orbit", False)),
                period=item.get("period"),
                orbit_map=(
                    PolyMatrix.from_text(item["orbit_entries"])
                    if item.get("orbit_entries")
                    else None
                ),
                orbit_vars=tuple(item.get("orbit_vars", ("x",))),
                notes=item.get("notes", ""),
            )
            entry.validate()
            out[entry.name] = entry
    except (KeyError, TypeError, ValueError) as err:
        raise CatalogError(f"malformed catalog {path}: {err}") from err
    return out
