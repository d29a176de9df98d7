"""Square matrices over the ring of generalized polynomials.

The asymptotic pipeline works with matrices that are declared unimodular
(symbolic determinant identically 1), so the inverse is the adjugate and
stays polynomial; general algebraic-group inverses are rational functions
and out of scope.  ``determinant`` and ``adjugate`` expand by Laplace on rows
of any ring, so the exact matrices here and the 60-digit evaluations of the
residuals in ``flowlimit`` share them.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DeterminantError, DimensionError
from .polyalg import NEG_INF, GenPoly, parse_poly


class PolyMatrix:
    """Immutable N x N matrix of :class:`GenPoly` entries."""

    __slots__ = ("dim", "entries")

    def __init__(self, rows: Sequence[Sequence]):
        n = len(rows)
        entries = []
        for row in rows:
            if len(row) != n:
                raise DimensionError("matrix rows must all have length N")
            entries.append(tuple(GenPoly._coerce(e) for e in row))
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "entries", tuple(entries))

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def __reduce__(self):
        return (PolyMatrix, ([list(row) for row in self.entries],))

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n: int) -> "PolyMatrix":
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def from_text(cls, rows: Sequence[Sequence[str]]) -> "PolyMatrix":
        return cls([[parse_poly(e) for e in row] for row in rows])

    def to_text(self):
        return [[e.to_text() for e in row] for row in self.entries]

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __str__(self) -> str:
        rows = ", ".join(
            "[" + ", ".join(e.to_text() for e in row) + "]" for row in self.entries
        )
        return f"[{rows}]"

    __repr__ = __str__

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    # -- arithmetic ----------------------------------------------------------

    def _require_same_dim(self, other: "PolyMatrix") -> None:
        if self.dim != other.dim:
            raise DimensionError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._require_same_dim(other)
        return PolyMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._require_same_dim(other)
        return PolyMatrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """Exact matrix product in canonical form."""
        self._require_same_dim(other)
        n = self.dim
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = GenPoly.zero()
                for k in range(n):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            rows.append(row)
        return PolyMatrix(rows)

    def scale(self, factor) -> "PolyMatrix":
        f = GenPoly._coerce(factor)
        return self.map_entries(lambda e: e * f)

    def map_entries(self, fn: Callable[[GenPoly], GenPoly]) -> "PolyMatrix":
        return PolyMatrix([[fn(e) for e in row] for row in self.entries])

    # -- calculus / composition ------------------------------------------------

    def differentiate(self, var: str) -> "PolyMatrix":
        return self.map_entries(lambda e: e.differentiate(var))

    def substitute(self, bindings: Mapping[str, object]) -> "PolyMatrix":
        return self.map_entries(lambda e: e.substitute(bindings))

    def degree_in(self, var: str):
        """Max degree over all entries; NEG_INF for the zero matrix."""
        best = NEG_INF
        for row in self.entries:
            for e in row:
                d = e.degree_in(var)
                if d is not NEG_INF and (best is NEG_INF or d > best):
                    best = d
        return best

    def variables(self) -> tuple:
        seen = set()
        for row in self.entries:
            for e in row:
                seen.update(e.variables())
        from .polyalg import _var_key

        return tuple(sorted(seen, key=_var_key))

    # -- determinant and unimodular inverse -------------------------------------

    def determinant(self) -> GenPoly:
        return determinant(self.entries)

    def inverse_sl(self) -> "PolyMatrix":
        """Inverse of a matrix with symbolic determinant 1 (the adjugate).

        Raises :class:`DeterminantError` carrying the symbolic determinant
        otherwise.
        """
        det = self.determinant()
        if det != GenPoly.const(1):
            raise DeterminantError(det.to_text())
        return PolyMatrix(adjugate(self.entries))

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, point: Mapping[str, object]) -> np.ndarray:
        """Float matrix at ``point``.  Array coordinates broadcast to a
        shape S and give an S + (N, N) stack whose matrices equal the
        scalar evaluations, bit for bit (see ``GenPoly.evaluate``)."""
        shape = np.broadcast_shapes(*(np.shape(v) for v in point.values()))
        out = np.empty(shape + (self.dim, self.dim))
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                out[..., i, j] = e.evaluate(point)
        return out

    def evaluate_exact(self, point: Mapping[str, object]):
        return [
            [e.evaluate_exact(point) for e in row] for row in self.entries
        ]

    def evaluate_mp(self, point: Mapping[str, object]):
        import mpmath

        return mpmath.matrix(
            [[e.evaluate_mp(point) for e in row] for row in self.entries]
        )


def determinant(rows):
    """Determinant of a square list of rows by Laplace expansion along the
    first row.  The entries may come from any ring whose elements take
    ``+``, ``-`` and ``*`` with each other and with the integers 0 and 1:
    GenPoly, Fraction, or mpmath numbers."""
    if len(rows) < 2:  # 0 x 0 minors come from the adjugate of a 1 x 1 matrix
        return rows[0][0] if rows else 1
    total = 0
    for j, x in enumerate(rows[0]):
        term = x * determinant([r[:j] + r[j + 1:] for r in rows[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


def adjugate(rows) -> list:
    """Adjugate of a square list of rows, as a list of rows: the inverse
    of a matrix of determinant 1.  Every entry is a ``determinant``, with
    no pivot step that could call a matrix with entries of very different
    sizes numerically singular."""
    n = len(rows)
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            d = determinant([r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j])
            adj[i][j] = d if (i + j) % 2 == 0 else -d
    return adj


def lie_algebra(g: PolyMatrix, map_vars) -> list:
    """A basis of the Lie algebra h of the group that the values g(0)^-1 g(x)
    generate, as flattened N*N rows of Fractions kept independent by exact
    row reduction: the coefficient matrices of g^-1 dg/dx_i (g(0)^-1 cancels)
    closed under brackets.  Conjugation by those values, which lie in the
    group of h, adds nothing; h lies in sl(N), where the closure stops."""
    n = g.dim
    g_inv = g.inverse_sl()
    rows, mats = [], []  # the basis with its pivots, and as matrices

    def add(m: PolyMatrix) -> None:
        coeffs = {}
        for s, p in enumerate(p for row in m.entries for p in row):
            for mono, c in p.terms():
                coeffs.setdefault(mono, [0] * (n * n))[s] = c
        for v in coeffs.values():
            for p, b in rows:
                f = v[p]
                v = [a - f * c for a, c in zip(v, b)]
            p = next((s for s, a in enumerate(v) if a), None)
            if p is not None:
                b = [a / v[p] for a in v]
                rows.append((p, b))
                mats.append(PolyMatrix([b[s:s + n] for s in range(0, n * n, n)]))

    for v in map_vars:
        add(g_inv @ g.differentiate(v))
    # mats grows as it is walked, so each element meets every earlier one
    for i, x in enumerate(mats):
        if len(rows) == n * n - 1:
            break
        for y in mats[:i]:
            add(x @ y - y @ x)
    return [b for _, b in rows]
