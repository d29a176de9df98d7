"""Named trajectory maps used by the symbolic checks and the experiments.

The built-in maps span one and two parameters, matrix sizes 2 and 3, and
product / non-product type; both that type and the limit's reference are
derived from the map.  Catalogs can also be loaded from a JSON file with
the same fields as :class:`MapEntry`; entries are serialized as text
matrices of generalized polynomials.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import CatalogError, DomainError
from .polyalg import GenPoly
from .polymatrix import PolyMatrix, lie_algebra

F = Fraction


@dataclass(frozen=True)
class MapEntry:
    name: str
    map_vars: tuple
    matrix: PolyMatrix
    default_lambda: tuple
    notes: str = ""

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def k(self) -> int:
        return len(self.map_vars)

    @property
    def product_type(self) -> bool:
        """Whether g(x) = g(x_1 e_1) ... g(x_k e_k), the product taken in
        the order of ``map_vars``."""
        factors = [self.matrix.substitute({w: 0 for w in self.map_vars if w != v})
                   for v in self.map_vars]
        product = functools.reduce(operator.matmul, factors, PolyMatrix.identity(self.dim))
        return product == self.matrix

    @functools.cached_property
    def orbit(self):
        """The closed orbit that carries the limit measure, by the Lie algebra
        h the map generates (``lie_algebra``): None for h = sl(N), the Haar
        case.  For h spanned by off-diagonal E_s, s in S (empty for a constant
        map), the orbit map g(0) (I + sum x_s E_s) on the fundamental domain
        [0, 1)^S of its integer points, and its variables.  Else DomainError."""
        n = self.dim
        basis = lie_algebra(self.matrix, self.map_vars)
        if len(basis) == n * n - 1:
            return None
        # |S| = dim h: h is the span of the E_s, none diagonal as h is in
        # sl(N); S runs by superdiagonal, as E12, E23, E13 in SL(3)
        support = sorted({s for b in basis for s, c in enumerate(b) if c},
                         key=lambda s: (s % n - s // n, s))
        if len(support) != len(basis):
            raise DomainError(
                f"{self.name}: no limit reference for a Lie algebra of dimension {len(basis)}"
                f" that is neither sl({n}) nor spanned by off-diagonal elementary matrices")
        # x_s for the flat position s = i N + j of E_ij
        u = PolyMatrix([[GenPoly.variable(f"x{i * n + j}") if i * n + j in support
                         else int(i == j) for j in range(n)] for i in range(n)])
        g0 = self.matrix.substitute({v: 0 for v in self.map_vars})
        return g0 @ u, tuple(f"x{s}" for s in support)

    def validate(self) -> None:
        if self.matrix.determinant() != GenPoly.const(1):
            raise CatalogError(
                f"{self.name}: map is not unimodular, det = "
                f"{self.matrix.determinant().to_text()}"
            )
        if len(self.default_lambda) != len(self.map_vars):
            raise CatalogError(f"{self.name}: one box exponent per variable")


def _entry(name, rows, lam, *, map_vars=("x",), notes=""):
    e = MapEntry(
        name=name,
        map_vars=tuple(map_vars),
        matrix=PolyMatrix.from_text(rows),
        default_lambda=tuple(Fraction(v) for v in lam),
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
            notes="upper unipotent under the 5/2 box family; the periodic "
            "horocycle of u_horo",
        ),
        _entry(
            "u_horo",
            [["1", "x"], ["0", "1"]],
            [F(1)],
            notes="periodic horocycle through the standard lattice",
        ),
        _entry(
            "u_squared",
            [["1", "x^2"], ["0", "1"]],
            [F(5, 4)],
            notes="quadratic reparametrization of the periodic horocycle",
        ),
        _entry(
            "ul_product",
            [["1 + x * y", "x"], ["y", "1"]],
            [F(1), F(1, 2)],
            map_vars=("x", "y"),
            notes="upper times lower unipotent; limit group SL(2,R)",
        ),
        _entry(
            "poly23",
            [["1", "x^2 + x * y^3"], ["0", "1"]],
            [F(1, 2), F(1)],
            map_vars=("x", "y"),
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
            "group SL(2,R)",
        ),
        _entry(
            "heis3",
            [
                ["1", "x", "x * y"],
                ["0", "1", "y"],
                ["0", "0", "1"],
            ],
            [F(3, 2), F(5, 4)],
            map_vars=("x", "y"),
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
                "vars": list(e.map_vars),
                "entries": e.matrix.to_text(),
                "default_lambda": [str(v) for v in e.default_lambda],
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
            entry = _entry(item["name"], item["entries"], item["default_lambda"],
                           map_vars=item["vars"], notes=item.get("notes", ""))
            out[entry.name] = entry
    except (KeyError, TypeError, ValueError) as err:
        raise CatalogError(f"malformed catalog {path}: {err}") from err
    return out
