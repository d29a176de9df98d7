"""The space of unimodular lattices in dimension 2 and 3: reduction,
Siegel-transform observables, Haar references, and compactness tests.

Observables are Siegel transforms g -> sum over nonzero v in Z^N of
f(g v) for compactly supported radial f; their Haar integral is the
plain integral of f over R^N, which gives the equidistribution
experiments a closed-form reference.

The batch helpers at the bottom vectorize the dimension-2 pipeline over
large sample arrays.  The batch Lagrange reduction runs in float64 or
double-double arithmetic and carries a forward-error bound, so callers
can certify the reduced basis against ``PREC_TOL``; ``sl2_reduce_exact``
is the exact rational last resort.  ``siegel_batch`` sums each observable
in closed form over the rows of lattice vectors inside the ball, with no
enumeration and no per-sample fallback: indicator counts equal the
scalar path's, bump values agree with it to rounding.  ``indicator_ties``
marks the counts that the certified basis's error could change, and
``siegel_count_exact`` recounts them in integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .doubledouble import ADD_ERR, MUL_D_ERR, U, U2, dd_add, dd_mul_d
from .errors import CuspExcursionError, DeterminantError, DomainError

DET_TOL = 1e-9
CUSP_GUARD = 1e-6
# a certified reduced basis lies within this 2-norm distance, per column,
# of an exact basis of the stated lattice
PREC_TOL = 1e-6

INDICATOR_BALL = "indicator"
SMOOTH_BUMP = "bump"


@dataclass(frozen=True)
class TestFunction:
    """Radial compactly supported profile inducing a Siegel observable."""

    kind: str
    radius: float

    def __post_init__(self):
        if self.kind not in (INDICATOR_BALL, SMOOTH_BUMP):
            raise DomainError(f"unknown test function kind {self.kind!r}")
        if self.radius <= 0:
            raise DomainError("radius must be positive")

    @property
    def name(self) -> str:
        return f"siegel:{self.kind}:{self.radius:g}"

    def profile(self, r):
        """Radial profile value(s); vanishes for r > radius."""
        r = np.asarray(r, dtype=float)
        if self.kind == INDICATOR_BALL:
            return (r <= self.radius).astype(float)
        inside = np.clip(1.0 - (r / self.radius) ** 2, 0.0, None)
        return inside ** 2


def parse_observable(text: str) -> TestFunction:
    """Parse names of the form siegel:indicator:R or siegel:bump:R."""
    parts = text.split(":")
    if len(parts) != 3 or parts[0] != "siegel":
        raise DomainError(f"malformed observable {text!r}")
    return TestFunction(kind=parts[1], radius=float(parts[2]))


@dataclass(frozen=True)
class UnimodularLattice:
    """A point of the space of covolume-1 lattices with a cached reduced
    basis (columns) and its shortest length."""

    g: np.ndarray
    reduced: np.ndarray
    shortest: float

    @property
    def dim(self) -> int:
        return self.g.shape[0]


def _check_det(g: np.ndarray) -> None:
    det = float(np.linalg.det(g))
    if abs(det - 1.0) > DET_TOL:
        raise DeterminantError(f"{det:.12g}")


def reduce_basis(g) -> UnimodularLattice:
    """Reduce the column basis: Lagrange swap/shift for N=2, size-reduction
    sweeps with length sorting for N=3.  The change of basis is integer
    unimodular, so the lattice is unchanged."""
    g = np.asarray(g, dtype=float)
    if g.shape not in ((2, 2), (3, 3)):
        raise DomainError("only dimensions 2 and 3 are supported")
    _check_det(g)
    n = g.shape[0]
    basis = g.copy()
    if n == 2:
        u, v = basis[:, 0].copy(), basis[:, 1].copy()
        for _ in range(256):
            if u @ u > v @ v:
                u, v = v, u
            mu = round((u @ v) / (u @ u))
            if mu == 0:
                break
            v = v - mu * u
        else:
            raise DomainError("lattice reduction did not converge")
        reduced = np.column_stack([u, v])
    else:
        reduced = basis
        for _ in range(256):
            before = reduced.copy()
            order = np.argsort([reduced[:, i] @ reduced[:, i] for i in range(3)],
                               kind="stable")
            reduced = reduced[:, order]
            for i in range(3):
                for j in range(3):
                    if i == j:
                        continue
                    denom = reduced[:, i] @ reduced[:, i]
                    mu = round((reduced[:, i] @ reduced[:, j]) / denom)
                    if mu:
                        reduced[:, j] = reduced[:, j] - mu * reduced[:, i]
            if np.array_equal(before, reduced):
                break
        else:
            raise DomainError("lattice reduction did not converge")
        order = np.argsort([reduced[:, i] @ reduced[:, i] for i in range(3)],
                           kind="stable")
        reduced = reduced[:, order]
    lam1_sq = float(reduced[:, 0] @ reduced[:, 0])
    if n == 3:
        # size-reduction alone does not certify the first vector shortest;
        # small-coefficient enumeration over the reduced basis does
        rng = range(-2, 3)
        for c1 in rng:
            for c2 in rng:
                for c3 in rng:
                    if c1 == c2 == c3 == 0:
                        continue
                    v = c1 * reduced[:, 0] + c2 * reduced[:, 1] + c3 * reduced[:, 2]
                    lam1_sq = min(lam1_sq, float(v @ v))
    return UnimodularLattice(g=g, reduced=reduced, shortest=math.sqrt(lam1_sq))


def shortest_vector_length(lattice: UnimodularLattice) -> float:
    return lattice.shortest


def in_compact(lattice: UnimodularLattice, eps0: float) -> bool:
    """Mahler-type compactness test: shortest vector at least eps0."""
    return lattice.shortest >= eps0


def _gram_schmidt(basis: np.ndarray):
    n = basis.shape[1]
    ortho = basis.astype(float).copy()
    mu = np.eye(n)
    for j in range(n):
        for i in range(j):
            denom = ortho[:, i] @ ortho[:, i]
            mu[i, j] = (basis[:, j] @ ortho[:, i]) / denom
            ortho[:, j] = ortho[:, j] - mu[i, j] * ortho[:, i]
    return ortho, mu


def siegel_transform(lattice: UnimodularLattice, f: TestFunction) -> float:
    """Sum of the profile over all nonzero lattice vectors of length at
    most the support radius, enumerated with coefficient bounds from the
    orthogonalized reduced basis."""
    if lattice.shortest < CUSP_GUARD:
        raise CuspExcursionError(
            f"shortest vector {lattice.shortest:.3e} below the enumeration guard"
        )
    basis = lattice.reduced
    n = basis.shape[1]
    ortho, mu = _gram_schmidt(basis)
    ortho_norms = np.sqrt(np.sum(ortho * ortho, axis=0))
    r = f.radius
    total = 0.0
    coeffs = [0] * n

    def recurse(level: int, partial: np.ndarray, budget: float) -> None:
        nonlocal total
        if level < 0:
            norm = float(np.linalg.norm(partial))
            if 0 < norm <= r:
                total += float(f.profile(norm))
            return
        # offset of the level coordinate induced by already fixed coeffs
        shift = sum(mu[level, j] * coeffs[j] for j in range(level + 1, n))
        half = math.sqrt(budget) / ortho_norms[level]
        lo = math.ceil(-half - shift - 1e-12)
        hi = math.floor(half - shift + 1e-12)
        for c in range(lo, hi + 1):
            coeffs[level] = c
            used = (c + shift) ** 2 * ortho_norms[level] ** 2
            recurse(
                level - 1,
                partial + c * basis[:, level],
                max(budget - used, 0.0) + 1e-12,
            )
        coeffs[level] = 0

    recurse(n - 1, np.zeros(n), r * r)
    return total


def haar_expectation(f: TestFunction, n: int) -> float:
    """Integral of the profile over R^n - the Haar reference value of the
    Siegel observable."""
    if n not in (2, 3):
        raise DomainError("only dimensions 2 and 3 are supported")
    if f.kind == INDICATOR_BALL:
        if n == 2:
            return math.pi * f.radius ** 2
        return 4.0 / 3.0 * math.pi * f.radius ** 3
    # the bump (1 - (r/R)^2)^2 integrates to pi R^2/3 and 32 pi R^3/105
    if n == 2:
        return math.pi * f.radius ** 2 / 3.0
    return 32.0 * math.pi * f.radius ** 3 / 105.0


def haar_sample(n: int, seed: int) -> list:
    """I.i.d. Haar-distributed unimodular lattices in dimension 2.

    Each sample draws from its own seed-derived stream: the hyperbolic
    coordinate (x, y) by rejection from {|x| <= 1/2, y >= sqrt(3)/2} with
    density proportional to y^-2 (draw x, then y by inverse CDF, accept
    when x^2 + y^2 >= 1), then a uniform rotation angle.
    """
    if n < 1:
        raise DomainError("need at least one sample")
    out = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        while True:
            x = rng.random() - 0.5
            y = (math.sqrt(3) / 2) / (1.0 - rng.random())
            if x * x + y * y >= 1.0:
                break
        phi = 2.0 * math.pi * rng.random()
        sy = math.sqrt(y)
        frame = np.array([[1.0 / sy, x / sy], [0.0, sy]])
        rot = np.array(
            [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
        )
        out.append(reduce_basis(rot @ frame))
    return out


# ---------------------------------------------------------------------------
# vectorized dimension-2 pipeline
# ---------------------------------------------------------------------------

def sl2_lagrange(u, v, eu, ev, u_lo=None, v_lo=None):
    """Lagrange-reduce a batch of column pairs (u, v), carrying a
    forward-error bound for each column.

    ``u`` and ``v`` are (m, 2) float64 columns, or the high parts of
    double-double columns whose low parts are ``u_lo`` and ``v_lo``.
    ``eu`` and ``ev`` bound the 2-norm distance of each column to the exact
    column it stands for.  Every step v <- v - mu u uses an integer mu, so
    the exact columns remain a basis of the same lattice whatever mu the
    rounded arithmetic picks; the bounds follow them with
    ev <- ev + |mu| eu + (rounding of the step), the a-priori analysis of
    Higham (2002).

    Returns (u, v, eu, ev, done): float64 columns with |u| <= |v| (low
    parts rounded in, that rounding included in the bounds), the bounds,
    and the mask of samples whose reduction converged.
    """
    dd = u_lo is not None
    if dd:
        c_mul, c_add = MUL_D_ERR * U2 * 1.01, ADD_ERR * U2 * 1.01
    else:
        c_mul = c_add = U * 1.01
    # the active samples' columns, bounds and (double-double) low parts
    state = [u, v, np.asarray(eu, float), np.asarray(ev, float)]
    state += [u_lo, v_lo] if dd else []
    out = [np.empty_like(a) for a in state]
    idx = np.arange(u.shape[0])
    for _ in range(256):
        if idx.size == 0:
            break
        u, v, eu, ev, *lo = state
        uu = np.sum(u * u, axis=1)
        vv = np.sum(v * v, axis=1)
        swap = uu > vv
        if swap.any():
            s2 = swap[:, None]
            u, v = np.where(s2, v, u), np.where(s2, u, v)
            eu, ev = np.where(swap, ev, eu), np.where(swap, eu, ev)
            if dd:
                lo = [np.where(s2, lo[1], lo[0]), np.where(s2, lo[0], lo[1])]
            uu = np.where(swap, vv, uu)
        mu = np.round(np.sum(u * v, axis=1) / uu)
        if dd:
            ph, pl = dd_mul_d(u, lo[0], mu[:, None])
            v, lo[1] = dd_add(v, lo[1], -ph, -pl)
        else:
            v = v - mu[:, None] * u
        amu = np.abs(mu)
        ev = ev + amu * eu + c_mul * amu * np.sqrt(uu) + c_add * np.sqrt(
            np.sum(v * v, axis=1)
        )
        state = [u, v, eu, ev] + lo
        fin = mu == 0
        if fin.any():
            for o, a in zip(out, state):
                o[idx[fin]] = a[fin]
            keep = ~fin
            state = [a[keep] for a in state]
            idx = idx[keep]
    for o, a in zip(out, state):
        o[idx] = a
    u, v, eu, ev = out[:4]
    done = np.ones(u.shape[0], dtype=bool)
    done[idx] = False
    if dd:
        # the high part is the float64 rounding of the double-double value
        eu += U * np.sqrt(np.sum(u * u, axis=1))
        ev += U * np.sqrt(np.sum(v * v, axis=1))
    return u, v, eu, ev, done


def sl2_reduce_batch(mats: np.ndarray):
    """Lagrange-reduce a batch of float64 column bases.  Returns
    (b1, b2, lam1) with b1 the shortest basis vector per sample.

    This is the float64 tier of ``sl2_lagrange`` taking the entries as
    exact; per-sample results match the scalar path exactly."""
    zero = np.zeros(mats.shape[0])
    u, v, _, _, done = sl2_lagrange(mats[:, :, 0], mats[:, :, 1], zero, zero)
    if not done.all():
        raise DomainError("batch reduction did not converge")
    return u, v, np.sqrt(np.sum(u * u, axis=1))


def _lagrange_exact(m):
    """Lagrange reduction in exact arithmetic of the column basis of a 2x2
    matrix of rationals.  Returns the reduced integer columns (u, v) of
    D m, shortest first, and the common denominator D.

    The rounded quotient (u.v)/(u.u) is invariant under scaling, so the
    reduction runs on the integer matrix D m."""
    den = math.lcm(*(Fraction(x).denominator for row in m for x in row))
    (a, b), (c, d) = ((int(Fraction(x) * den) for x in row) for row in m)
    u, v = (a, c), (b, d)
    while True:
        uu = u[0] * u[0] + u[1] * u[1]
        if uu > v[0] * v[0] + v[1] * v[1]:
            u, v = v, u
            uu = u[0] * u[0] + u[1] * u[1]
        mu = (2 * (u[0] * v[0] + u[1] * v[1]) + uu) // (2 * uu)
        if mu == 0:
            return u, v, den
        v = (v[0] - mu * u[0], v[1] - mu * u[1])


def sl2_reduce_exact(m):
    """Exactly Lagrange-reduced columns (shortest first) of a 2x2 matrix of
    rationals, as float64 arrays, each entry the rounding of the exact one."""
    u, v, den = _lagrange_exact(m)
    return np.array([u[0] / den, u[1] / den]), np.array([v[0] / den, v[1] / den])


def siegel_count_exact(m, radius: float) -> int:
    """Nonzero vectors of norm at most ``radius`` in the column lattice of a
    2x2 matrix of rationals, counted in integer arithmetic.

    With (u, v) the reduced columns of D m, Gram entries a, b, c and
    det = ac - b^2, the vector c1 u + c2 v lies in the ball of radius D R
    iff (a c1 + b c2)^2 <= a (D R)^2 - det c2^2."""
    u, v, den = _lagrange_exact(m)
    a = u[0] * u[0] + u[1] * u[1]
    b = u[0] * v[0] + u[1] * v[1]
    det = a * (v[0] * v[0] + v[1] * v[1]) - b * b
    r2 = (Fraction(radius) * den) ** 2
    p, q = r2.numerator, r2.denominator
    c2_max = math.isqrt(a * p // (q * det))
    count = -1  # the origin
    for c2 in range(-c2_max, c2_max + 1):
        s = math.isqrt((a * p - q * det * c2 * c2) // q)
        # c1 from ceil((-s - b c2)/a) to floor((s - b c2)/a)
        count += (s - b * c2) // a + (s + b * c2) // a + 1
    return count


def _shape(b1, b2):
    """|b1|^2, mu = b1.b2/|b1|^2 and the height h = |det(b1, b2)|/|b1| of b2
    over the line of b1, per sample.  The height comes from the 2x2
    determinant: |b1|^2 |b2|^2 - (b1.b2)^2 would cancel."""
    b11 = np.sum(b1 * b1, axis=1)
    h = np.abs(b1[:, 0] * b2[:, 1] - b1[:, 1] * b2[:, 0]) / np.sqrt(b11)
    return b11, np.sum(b1 * b2, axis=1) / b11, h


def _ball_rows(shape, r):
    """The lattice vectors c1 b1 + c2 b2 of norm at most r, row by row.

    |c1 b1 + c2 b2|^2 = |b1|^2 (c1 + c2 mu)^2 + (c2 h)^2, so for each c2 with
    |c2| h <= r the c1 fill the interval of centre -c2 mu and half-width
    sqrt(r^2 - (c2 h)^2)/|b1|.  Yields, for c2 = 0, 1, ..., the number n of
    integers in it, the offset d of their midpoint from the centre, and
    disc = r^2 - (c2 h)^2, per sample (r a scalar or one radius per
    sample).  Row -c2 mirrors row c2 exactly, rounding included.  Every
    step is monotone in r, so n never decreases as r grows."""
    b11, mu, h = shape
    norm1 = np.sqrt(b11)
    r = np.broadcast_to(r, h.shape)
    for c2 in range(int(np.max(r / h, initial=0.0)) + 1):
        disc = r * r - (c2 * h) ** 2
        centre = -c2 * mu
        half = np.sqrt(np.maximum(disc, 0.0)) / norm1
        lo = np.ceil(centre - half)
        n = np.where(disc >= 0.0,
                     np.maximum(np.floor(centre + half) - lo + 1.0, 0.0), 0.0)
        yield c2, n, lo + (n - 1.0) / 2.0 - centre, disc


def _ball_count(shape, r):
    """Lattice vectors of norm at most r, the origin included."""
    return sum(n if c2 == 0 else 2.0 * n for c2, n, _, _ in _ball_rows(shape, r))


def siegel_batch(b1: np.ndarray, b2: np.ndarray, lam1: np.ndarray, f: TestFunction):
    """Siegel observable over a batch of Lagrange-reduced bases, in closed
    form over the rows of ``_ball_rows``.

    The indicator adds up the rows' counts.  The bump sums, per row,
    (A - B t^2)^2 over its n integers c1, with A = disc/R^2, B = |b1|^2/R^2
    and t = c1 + c2 mu = s + d, s running over the n points centred on their
    midpoint; the power sums of s are n(n^2 - 1)/12 and
    n(n^2 - 1)(3n^2 - 7)/240, and the odd ones vanish.  Centring keeps
    the terms of the size of the sum when lambda_1 is small.  Samples under
    the enumeration guard are flagged excluded and contribute zero.
    """
    excluded = lam1 < CUSP_GUARD
    shape = _shape(b1, b2)
    if f.kind == INDICATOR_BALL:
        total = _ball_count(shape, f.radius)
    else:
        r2 = f.radius ** 2
        bq = shape[0] / r2
        total = np.zeros(b1.shape[0])
        for c2, n, d, disc in _ball_rows(shape, f.radius):
            a = disc / r2
            s2 = n * (n * n - 1.0) / 12.0
            s4 = s2 * (3.0 * n * n - 7.0) / 20.0
            d2 = d * d
            row = (n * a * a - 2.0 * a * bq * (s2 + n * d2)
                   + bq * bq * (s4 + 6.0 * d2 * s2 + n * d2 * d2))
            total += row if c2 == 0 else 2.0 * row
    # the origin, in row 0, has profile value 1 for both kinds
    return np.where(excluded, 0.0, total - 1.0), excluded


def indicator_ties(b1: np.ndarray, b2: np.ndarray, radius: float) -> np.ndarray:
    """Mask of the samples whose ball count ``siegel_batch`` cannot certify
    for bases within ``PREC_TOL`` per column of the exact ones.

    The norm of c1 b1 + c2 b2 is then within (|c1| + |c2|) PREC_TOL of the
    exact vector's, and vectors of norm at most R + 1 have
    |c2| <= (R + 1)/h and |c1| <= (R + 1)/|b1| + |mu c2|, which bounds that
    margin by rho.  A count is certain when it is the same at radius
    R - rho and R + rho: no interval endpoint and no limit of c2 moves
    across an integer.  The interval arithmetic rounds at relative 1e-16,
    far inside the margin."""
    shape = _shape(b1, b2)
    b11, mu, h = shape
    big = radius + 1.0
    rho = PREC_TOL * big * (1.0 / np.sqrt(b11) + (1.0 + np.abs(mu)) / h)
    inner = _ball_count(shape, np.maximum(radius - rho, 0.0))
    return (rho > 1.0) | (inner != _ball_count(shape, radius + rho))
