"""The space of unimodular lattices in dimension 2 and 3: reduction,
Siegel-transform observables and Haar references.  A lattice lies in
Mahler's compact set {shortest vector >= eps0} when the first column of
its reduced basis, a shortest vector, has length lambda_1 >= eps0.

Observables are Siegel transforms g -> sum over nonzero v in Z^N of
f(g v) for compactly supported radial f; their Haar integral is the
plain integral of f over R^N, which gives the equidistribution
experiments a closed-form reference.

The batch reductions, Lagrange in dimension 2 (``lagrange_reduce``) and
greedy in dimension 3 (``sl3_greedy``), change one row state in place
(``row_state``: per column of the bases, one contiguous row of samples
per coordinate, then its squared norm and its bound).  They carry a
forward-error bound per column, so callers can certify the reduced basis
against ``PREC_TOL``; ``reduce_exact`` is the exact rational last resort
for both.  ``siegel_sums``, one kernel for both dimensions, sums each
observable in closed form over the rows of lattice vectors inside the
ball, with no enumeration and no per-sample fallback.
It counts the rows that the bases' error could change exactly from
columns that are exact as stored, and marks the other doubtful counts as
ties, which ``siegel_count_exact`` recounts in integer arithmetic, so
every indicator count is the exact lattice's, however deep in the cusp.
``experiment.certified_reduce`` and ``experiment.certified_observables``
put these pieces together into one kernel for both dimensions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .doubledouble import ADD_MUL_ERR, U, U2, dd_add_mul_into, split
from .errors import CuspExcursionError, DomainError

# a certified reduced basis lies within this 2-norm distance, per column,
# of an exact basis of the stated lattice
PREC_TOL = 1e-6

INDICATOR_BALL = "indicator"
SMOOTH_BUMP = "bump"


@dataclass(frozen=True)
class TestFunction:
    """Radial compactly supported profile inducing a Siegel observable: the
    indicator of the ball of radius R, or the bump (1 - (r/R)^2)^2 on it."""

    kind: str
    radius: float

    def __post_init__(self):
        if self.kind not in (INDICATOR_BALL, SMOOTH_BUMP):
            raise DomainError(f"unknown test function kind {self.kind!r}")
        if not 0 < self.radius < math.inf:
            raise DomainError("radius must be positive and finite")

    @property
    def name(self) -> str:
        return f"siegel:{self.kind}:{self.radius:g}"


def parse_observable(text: str) -> TestFunction:
    """Parse names of the form siegel:indicator:R or siegel:bump:R."""
    parts = text.split(":")
    if len(parts) != 3 or parts[0] != "siegel":
        raise DomainError(f"malformed observable {text!r}")
    return TestFunction(kind=parts[1], radius=float(parts[2]))


# the integrals over R^k, k = 0..3, of the indicator of the ball of radius
# rho, a_k rho^k, and of ((rho^2 - |z|^2)/rho^2)^2 on it, b_k rho^k / c_k
_BALL = (1.0, 2.0, math.pi, 4.0 / 3.0 * math.pi)
_BUMP = ((1.0, 1.0), (16.0, 15.0), (math.pi, 3.0), (32.0 * math.pi, 105.0))


def slice_integral(f: TestFunction, k: int, rho: float) -> float:
    """Integral of the profile of f over a k-dimensional affine subspace
    (k = 0..3) at distance sqrt(R^2 - rho^2) from the origin, rho <= R: on
    it |y|^2 = R^2 - rho^2 + |z|^2, so the ball leaves the k-ball of radius
    rho, and the bump ((rho^2 - |z|^2)/R^2)^2 on it."""
    if f.kind == INDICATOR_BALL:
        return _BALL[k] * rho ** k
    b, c = _BUMP[k]
    return b * rho ** k / c * (rho / f.radius) ** 4


def haar_expectation(f: TestFunction, n: int) -> float:
    """Integral of the profile over R^n - the Haar reference value of the
    Siegel observable: the slice of every coordinate, through the origin."""
    if n not in (2, 3):
        raise DomainError("only dimensions 2 and 3 are supported")
    return slice_integral(f, n, f.radius)


# ---------------------------------------------------------------------------
# vectorized dimension-2 pipeline
# ---------------------------------------------------------------------------

def _coord_dot(x, y, out=None):
    """Per-sample dot products of (d, m) coordinate rows, summed in
    coordinate order; ``out`` is an optional (d, m) scratch array.  The
    result is a view of the products' first row, ``out[0]`` when ``out``
    is given, which the next call on the same ``out`` overwrites."""
    p = np.multiply(x, y, out=out)
    for row in p[1:]:
        p[0] += row
    return p[0]


# The row state of a batch of bases, which the reductions below change in
# place: an (n, h, m) float64 array, block j for column j of the m
# samples, one contiguous row per entry of the block: the d coordinates,
# in double-double their d low parts, then the squared norm (row NORM) and
# the forward-error bound (row BOUND) of the column.
NORM, BOUND = -2, -1


def row_state(n, d, m, dd):
    """An uninitialised row state of m bases of n columns of d coordinates,
    with low parts if ``dd``."""
    return np.empty((n, d * (2 if dd else 1) + 2, m))


def _set_norms(s, d):
    """The squared norm of every column of the row state ``s``."""
    for c in s:
        c[NORM] = _coord_dot(c[:d], c[:d])


def lagrange_reduce(s, d, dd):
    """Lagrange-reduce in place a batch of column pairs (u, v), carrying a
    forward-error bound for each column.

    ``s`` is their row state (``row_state``, two columns of d
    coordinates), with the coordinates, the low parts of double-double
    columns if ``dd``, and the bounds set: each bounds the 2-norm distance
    of the column to the exact column it stands for.  Every step
    v <- v - mu u uses an integer mu, so the exact columns remain a basis
    of the same lattice whatever mu the rounded arithmetic picks; the
    bounds follow them with ev <- ev + |mu| eu + (rounding of the step),
    the a-priori analysis of Higham (2002).  A step with mu = 0 is exact
    and charges nothing.

    The squared norms are computed here, and ``lagrange_rows`` runs the
    passes.  Each column is left with |u| <= |v| as it was on the pass
    where its mu first became 0; in double-double its bound then includes
    the rounding of the value to its high part.  A sample whose state is
    not finite on entry (a coordinate, low part or bound, or a squared
    norm beyond float64), or that has a column of squared norm 0, is left
    as it came, not converged.  Returns the mask of the samples whose
    reduction converged."""
    _set_norms(s, d)
    done = lagrange_rows(s, d, dd)
    if dd:
        # the high part is the float64 rounding of the double-double value
        for c in s:
            c[BOUND] += U * np.sqrt(c[NORM])
    return done


def lagrange_rows(s, d, dd, w=None):
    """The passes of ``lagrange_reduce`` on the row state ``s`` of column
    pairs with their squared norms set, in place.  Each column is left as
    it was on the pass where its mu first became 0, or as it came if it
    was not finite or had a zero column on entry.  Returns the mask of the
    samples whose reduction converged.  ``w``, contiguous, may hold the
    scratch rows."""
    # a step's rounding: c_mul |mu u| + c_add |v - mu u| (``dd_add_mul_into``)
    if dd:
        c_mul, c_add = (c * U2 * 1.01 for c in ADD_MUL_ERR)
    else:
        c_mul = c_add = U * 1.01
    done = np.isfinite(s).all(axis=(0, 1)) & (s[0, NORM] != 0) & (s[1, NORM] != 0)
    # the active samples.  A step with mu = 0 is exact and keeps every bit
    # of a finished pair but a zero's sign (double-doubles normalized as
    # two_sum leaves them), so finished pairs stay in place until they are
    # half of the state; then the moving ones are gathered into a level of
    # their own, written back once after the passes (np.compress keeps the
    # rows contiguous, where s[..., mask] would not)
    t = s if done.all() else np.compress(done, s, axis=2)
    levels = []
    # scratch rows of a pass, a column block for the swap: the dot products
    # (mu in row 0), then mu u or the five temporaries of the double-double
    # step.  Eight rows in double-double: with six, glibc mapped fresh pages
    # for later chunks, 18,987 minor faults per seed-7 bcond2d_poly23
    # iteration against 12,770 (2-core Xeon)
    if w is None:
        w = np.empty((8 if dd else 2, d, t.shape[2]))
    for _ in range(256):
        moved = _lagrange_pass(t, d, c_mul, c_add, dd, w)
        n = np.count_nonzero(moved)
        if n == 0:
            break
        if 2 * n <= moved.size:
            levels.append((t, moved))
            t, moved = np.compress(moved, t, axis=2), moved[moved]
    # a sample still moving after the last pass did not converge
    for parent, keep in reversed(levels):
        parent[..., keep] = t
        keep[keep] = moved
        t, moved = parent, keep
    if t is not s:
        s[..., done] = t
    done[done] = ~moved
    return done


def _lagrange_pass(s, d, c_mul, c_add, dd, w):
    """One pass of ``lagrange_rows`` on the row state ``s``, in place: swap
    so that |u| <= |v|, then v <- v - mu u and the bound of v, with the
    scratch rows ``w``.  Returns the mask of the columns whose step moved
    v (mu != 0)."""
    u, v = s
    swap = u[NORM] > v[NORM]
    if swap.any():
        _swap(u, v, swap, w)
    uu, vv, eu, ev = u[NORM], v[NORM], u[BOUND], v[BOUND]
    cu, cv = u[:d], v[:d]
    w = np.ndarray((len(w), d, s.shape[2]), buffer=w)
    mu = _coord_dot(cu, cv, w[0])
    np.divide(mu, uu, out=mu)
    np.round(mu, out=mu)
    if dd:
        np.negative(mu, out=mu)  # v + (-mu) u; |mu| and mu != 0 read the same
        dd_add_mul_into(cv, v[d:2 * d], cu, u[d:2 * d], mu, split(mu), w[1:])
    else:
        np.multiply(mu, cu, out=w[1])
        np.subtract(cv, w[1], out=cv)
    moved = mu != 0
    amu = np.abs(mu, out=mu)
    vv[:] = _coord_dot(cv, cv, w[1])
    # ev + |mu| eu + c_mul |mu| |u| + c_add [moved] |v|, left to right
    t, r = w[1, 0], w[1, 1]
    np.multiply(amu, eu, out=t)
    np.add(ev, t, out=ev)
    np.multiply(c_mul, amu, out=t)
    np.sqrt(uu, out=r)
    np.multiply(t, r, out=t)
    np.add(ev, t, out=ev)
    np.multiply(c_add, moved, out=t)
    np.sqrt(vv, out=r)
    np.multiply(t, r, out=t)
    np.add(ev, t, out=ev)
    return moved


def _swap(x, y, swap, w):
    """Exchange the column blocks ``x`` and ``y`` of a row state in the
    samples where ``swap`` is set, in place (xor swap of the bits): exact,
    and branch-free where np.where on a random mask is not.  The start of
    the contiguous scratch array ``w`` holds the xor as one block."""
    a, b = x.view(np.int64), y.view(np.int64)
    t = np.ndarray(x.shape, np.int64, w)
    np.bitwise_xor(a, b, out=t)
    t *= swap
    a ^= t
    b ^= t


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def _integer_scaled(vecs):
    """The integer vectors D v of rational vectors v, and their least
    common denominator D."""
    den = math.lcm(*(Fraction(x).denominator for v in vecs for x in v))
    return [tuple(int(Fraction(x) * den) for x in v) for v in vecs], den


def _lagrange_int(u, v, dot):
    """Exact Lagrange reduction of integer vectors under the inner product
    ``dot``; shortest first."""
    while True:
        uu = dot(u, u)
        if uu > dot(v, v):
            u, v = v, u
            uu = dot(u, u)
        mu = (2 * dot(u, v) + uu) // (2 * uu)
        if mu == 0:
            return u, v
        v = tuple(x - mu * y for x, y in zip(v, u))


def _reduce_exact(g):
    """Exact reduction of a basis B of rank k = 1, 2 or 3 from its integer
    Gram matrix g: Lagrange for k = 2, greedy for k = 3 (as
    ``sl3_greedy``), run on the coefficient vectors under x.y = x^T g y.
    Returns the columns of the unimodular U, shortest first, so that B U
    is the reduced basis, and its Gram matrix U^T g U.

    The rounded quotients of the reduction are invariant under scaling
    g.  For the closest vector of L(b1, b2) to b3, with x the coordinates
    of its projection, the second coordinate is within one of round(x2),
    and for each y2 the best first coordinate is
    round((b1.b3 - (b1.b2) y2)/|b1|^2)."""
    k = len(g)

    def dot(x, y):
        return sum(a * _dot(row, y) for a, row in zip(x, g))

    cols = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    if k == 2:
        cols = list(_lagrange_int(*cols, dot))
    while k == 3:
        cols.sort(key=lambda v: dot(v, v))
        b1, b2 = _lagrange_int(cols[0], cols[1], dot)
        b3 = cols[2]
        a, b, c = dot(b1, b1), dot(b1, b2), dot(b2, b2)
        r1, r2 = dot(b1, b3), dot(b2, b3)
        det = a * c - b * b
        near = (2 * (a * r2 - b * r1) + det) // (2 * det)  # round(x2)
        best = None
        for y2 in (near, near - 1, near + 1):
            y1 = (2 * (r1 - b * y2) + a) // (2 * a)
            res = tuple(t - y1 * p - y2 * q for t, p, q in zip(b3, b1, b2))
            if best is None or dot(res, res) < dot(best, best):
                best = res
        cols = [b1, b2, best]
        if dot(best, best) >= c:
            break
    return cols, [[dot(x, y) for y in cols] for x in cols]


def _reduced(m):
    """The integer columns of D m for a square matrix m of rationals, their
    common denominator D and the exact reduction ``_reduce_exact`` of
    their Gram matrix."""
    cols, den = _integer_scaled(list(zip(*m)))
    return (cols, den, *_reduce_exact([[_dot(x, y) for y in cols] for x in cols]))


def reduce_exact(m) -> np.ndarray:
    """Exactly reduced columns (shortest first) of a 2x2 or 3x3 matrix of
    rationals, as a float64 matrix whose entries are the roundings of the
    exact ones."""
    cols, den, u, _ = _reduced(m)
    return np.array([[_dot(row, c) / den for c in u] for row in zip(*cols)])


def _c1_range(a, beta, delta, p, q) -> range:
    """The integers c1 with |c1 b1 + w|^2 <= p/q, for lattice vectors b1
    and w with a = |b1|^2, beta = b1.w and delta = a |w|^2 - beta^2, all
    integers: the condition is (a c1 + beta)^2 <= a p/q - delta."""
    t = a * p - q * delta
    if t < 0:
        return range(0)
    s = math.isqrt(t // q)
    # c1 from ceil((-s - beta)/a) to floor((s - beta)/a)
    return range(-((s + beta) // a), (s - beta) // a + 1)


def _short_rows(g, r2):
    """The lattice vectors of squared norm at most the rational r2, by rows,
    for the integer Gram matrix g of a reduced basis b1, ..., bk, k = 1, 2
    or 3: per row c = (c2, ..., ck), yields (c, beta, delta, c1s), the
    vectors c1 b1 + w of the row, w = c2 b2 + ..., having c1 in the range
    c1s and squared norm ((a c1 + beta)^2 + delta)/a (``_c1_range``).

    A row is empty unless the projection of w orthogonal to b1 has squared
    norm at most r2: delta(c) <= a r2, the quadratic form
    delta(c2, c3) = A c2^2 + 2 B c2 c3 + C c3^2, whose rows c3 and c2
    intervals have closed forms as well."""
    p, q = r2.numerator, r2.denominator
    a, rows = g[0][0], [()]
    if len(g) == 2:
        c2_max = math.isqrt(a * p // (q * (a * g[1][1] - g[0][1] ** 2)))
        rows = ((c2,) for c2 in range(-c2_max, c2_max + 1))
    elif len(g) == 3:
        A = a * g[1][1] - g[0][1] ** 2
        B = a * g[1][2] - g[0][1] * g[0][2]
        C = a * g[2][2] - g[0][2] ** 2
        disc = A * C - B * B
        c3_max = math.isqrt(A * a * p // (q * disc))
        # (A c2 + B c3)^2 + disc c3^2 <= A a r2
        rows = ((c2, c3) for c3 in range(-c3_max, c3_max + 1)
                for s in [math.isqrt((A * a * p - q * disc * c3 * c3) // q)]
                for c2 in range(-((s + B * c3) // A), (s - B * c3) // A + 1))
    for c in rows:
        beta = sum(ci * g[0][i] for i, ci in enumerate(c, 1))
        ww = sum(ci * cj * g[i][j] for i, ci in enumerate(c, 1)
                 for j, cj in enumerate(c, 1))
        delta = a * ww - beta * beta
        yield c, beta, delta, _c1_range(a, beta, delta, p, q)


def siegel_count_exact(m, radius: float) -> int:
    """Nonzero vectors of norm at most ``radius`` in the column lattice of a
    2x2 or 3x3 matrix of rationals, counted in integer arithmetic on its
    reduced basis (``_short_rows``)."""
    _, den, _, g = _reduced(m)
    rows = _short_rows(g, (Fraction(radius) * den) ** 2)
    return sum(len(c1s) for *_, c1s in rows) - 1  # the origin


def orbit_averages(g0, support, fs) -> list:
    """Averages of the Siegel observables of ``fs`` over the closed orbit
    g0 u(x) Z^N, u(x) = I + sum x_ij E_ij over (i, j) in S = ``support``,
    x in [0, 1]^S, for a rational g0, by the slice form of Siegel's mean
    value theorem.  Coordinate i of u(x) v is free when some v_j with
    (i, j) in S is nonzero: summed over v_i in Z and integrated over x, it
    covers R once.  S is closed under composition, so the free set F is
    decided by the other coordinates: those that would free one of them
    are 0, and the rest, C, run over Z.  Each value of v_C adds
    ``slice_integral`` at the distance of g0 (v_C + R^F) from the origin,
    over the Jacobian sqrt(det G_FF), G = g0^T g0.  That distance is the
    norm of v_C in the projection of g0 Z^C orthogonal to g0 R^F, whose
    Gram matrix, the Schur complement of G_FF, is reduced exactly and
    enumerated by ``_short_rows``.  With F empty a row of values f(g0 v)
    is summed in closed form, exact for the indicator.  A row of points
    counts once and a row of slices once per slice, at least once, those
    of v and -v together; more than ``ROW_CAP`` raise
    ``CuspExcursionError``."""
    n = len(g0)
    cols, den = _integer_scaled(list(zip(*g0)))
    g, scale = [[_dot(x, y) for y in cols] for x in cols], den * den
    classes = []
    for mask in range(1 << n):
        free = [i for i in range(n) if mask >> i & 1]
        held = [j for j in range(n) if j not in free
                and not any((i, j) in support for i in range(n) if i not in free)]
        if not held or not all(any((i, j) in support for j in held) for i in free):
            continue
        # Bareiss elimination of F from G, ordered (F, C), leaves the Schur
        # complement times its last pivot, det G_FF, in integers
        w, piv = [[g[a][b] for b in free + held] for a in free + held], 1
        for k in range(len(free)):
            w, piv = [[(w[k][k] * x - row[k] * w[k][j]) // piv for j, x in enumerate(row)]
                      for row in w], w[k][k]
        u, w = _reduce_exact([row[len(free):] for row in w[len(free):]])
        jac = math.sqrt(Fraction(piv, scale ** len(free)))
        classes.append((free, held, jac, piv * scale, u, w))
    averages = []
    for f in fs:
        r2, terms, size = Fraction(f.radius) ** 2, [], 0
        for free, held, jac, den, u, w in classes:
            # |v|^2 = ((a c1 + beta)^2 + delta)/(a den) and r2 = p/(q den)
            a, (p, q) = w[0][0], (r2 * den).as_integer_ratio()
            terms += [] if free else [-1.0]  # the origin
            for c, beta, delta, c1s in _short_rows(w, r2 * den):
                # -v has the terms of v: the rows c > 0 count twice, and of
                # the row c = 0 (beta = 0) the slices c1 > 0
                sign = next((x for x in reversed(c) if x), 0)
                if sign < 0:
                    continue
                if free and not sign:
                    c1s = range(1, c1s.stop)
                size += max(len(c1s), 1) if free else 1
                if size > ROW_CAP:
                    raise CuspExcursionError(_TOO_DEEP)
                weight, m = 2.0 if free or sign else 1.0, len(c1s)
                if free:
                    for c1 in c1s:
                        v = dict(zip(held, (_dot(row, (c1,) + c) for row in zip(*u))))
                        if all(any(v[j] for j in held if (i, j) in support) for i in free):
                            rho2 = (a * p - q * ((a * c1 + beta) ** 2 + delta)) / (a * q * den)
                            terms.append(weight * slice_integral(f, len(free), math.sqrt(rho2))
                                         / jac)
                elif m and f.kind != INDICATOR_BALL:
                    # t = c1 + beta/a over the row: |v|^2 = (a t^2 + delta/a)/den
                    terms.append(weight * _bump_row(
                        m, (2 * a * c1s[0] + a * (m - 1) + 2 * beta) / (2 * a),
                        (a * p - q * delta) / (a * q * den), float(r2), a * q / p))
                else:
                    terms.append(weight * m)
        averages.append(math.fsum(terms))
    return averages


# ---------------------------------------------------------------------------
# vectorized dimension-3 pipeline
# ---------------------------------------------------------------------------


def sl3_greedy(s):
    """Greedy reduction in place of a batch of 3x3 column bases, carrying a
    forward-error bound for each column.

    ``s`` is their row state (``row_state``) with the coordinates and the
    bounds set: each bounds the 2-norm distance of the column to the exact
    column it stands for.  Each pass sorts the columns by length,
    Lagrange-reduces the first two (``lagrange_rows`` on their blocks) and
    subtracts from the third the closest vector of the lattice they span,
    found among three candidates as in ``_reduce_exact``; it stops once
    the third is no shorter than the second.  In dimension at most 4 the
    result is Minkowski-reduced (Semaev 2001; Nguyen and Stehle 2009), so
    |b_i| = lambda_i.  As in ``lagrange_reduce`` every step is integer, so
    the exact columns stay a basis of the same lattice and the bounds
    follow them; every dot product is summed in coordinate order.

    The squared norms are computed here.  A sample's columns are written
    back on the pass where it finishes, and the finished samples are
    dropped: unlike a finished pair of ``lagrange_rows``, which stays in
    place, a finished sample is not known to keep every bit through a
    further greedy pass.  A sample whose state is not finite on entry (a
    coordinate or bound, or a squared norm beyond float64), or that has a
    column of squared norm 0, is left as it came, not converged.  Returns
    the mask of the samples whose reduction converged; the columns of each
    are left shortest first.
    """
    _set_norms(s, 3)
    done = (np.isfinite(s).all(axis=(0, 1)) & (s[0, NORM] != 0)
            & (s[1, NORM] != 0) & (s[2, NORM] != 0))
    idx = np.nonzero(done)[0]
    # the active samples: s itself until a sample finishes, then a copy
    t = s if idx.size == s.shape[2] else np.compress(done, s, axis=2)
    # scratch rows of the swaps, the Lagrange passes and the closest step
    w = np.empty((2, 3, idx.size))
    for _ in range(256):
        if idx.size == 0:
            break
        for i, j in ((0, 1), (1, 2), (0, 1)):
            # strict >: equal lengths keep their order, as in a stable sort
            swap = t[i, NORM] > t[j, NORM]
            if swap.any():
                _swap(t[i], t[j], swap, w)
        ok = lagrange_rows(t[:2], 3, False, w)
        _closest_step(t, np.ndarray((2, 3, idx.size), buffer=w))
        fin = ~ok | (t[2, NORM] >= t[1, NORM])
        if fin.any():
            if t is not s:
                s[..., idx[fin]] = np.compress(fin, t, axis=2)
            done[idx[fin]] = ok[fin]
            keep = ~fin
            t, idx = np.compress(keep, t, axis=2), idx[keep]
    # the samples still moving after the last pass
    if t is not s:
        s[..., idx] = t
    done[idx] = False
    return done


def _closest_step(s, w):
    """b3 <- b3 - y1 b1 - y2 b2 on the row state ``s`` of ``sl3_greedy``,
    in place, for the closest vector y1 b1 + y2 b2 of L(b1, b2) to b3 among
    the three candidates of ``_reduce_exact``, with b3's squared norm and
    bound: e3 + |y| e_i plus the rounding of each float64 step, none where
    y = 0.  ``w`` holds its scratch rows: a candidate and the products of
    a dot product."""
    b1, b2, b3 = s[:, :3]
    a, c = s[0, NORM], s[1, NORM]
    res, p = w
    # + 0.0 copies each dot product out of the scratch row p, which the
    # next ``_coord_dot`` overwrites (without it ab, r1 and r2 would all
    # read the last one); it also makes a zero sum +0.0, as np.sum does,
    # and the signs of b3's zero coordinates follow that
    ab = _coord_dot(b1, b2, p) + 0.0
    r1 = _coord_dot(b1, b3, p) + 0.0
    r2 = _coord_dot(b2, b3, p) + 0.0
    # round(x2), x2 the second coordinate of b3's projection
    near = np.round((a * r2 - ab * r1) / (a * c - ab * ab))
    best = np.full(a.size, np.inf)
    y1 = np.zeros(a.size)
    y2 = np.zeros(a.size)
    for t2 in (near, near - 1.0, near + 1.0):
        t1 = np.round((r1 - ab * t2) / a)
        # res = b3 - t1 b1 - t2 b2
        np.subtract(b3, np.multiply(t1, b1, out=p), out=res)
        res -= np.multiply(t2, b2, out=p)
        nr = _coord_dot(res, res, p)
        take = nr < best
        np.copyto(best, nr, where=take)
        np.copyto(y1, t1, where=take)
        np.copyto(y2, t2, where=take)
    e3 = s[2, BOUND]
    for y, u, uu, eu in ((y1, b1, a, s[0, BOUND]), (y2, b2, c, s[1, BOUND])):
        b3 -= np.multiply(y, u, out=p)
        ay = np.abs(y)
        s[2, NORM] = _coord_dot(b3, b3, p)
        rnd = U * 1.01 * (ay * np.sqrt(uu) + (ay > 0) * np.sqrt(s[2, NORM]))
        e3 += ay * eu
        e3 += rnd


# ---------------------------------------------------------------------------
# Siegel observables of reduced bases, both dimensions
# ---------------------------------------------------------------------------

# rounding slack of the row geometry of a reduced basis, relative to each
# column's length per unit coefficient, in the margin of an indicator count
_ROW_SLACK = 1e-13
# the most rows (c2, c3) that one sample may need (``_rows``): a row costs
# 0.25-0.4 ms on a chunk of one doubledouble.BLOCK of samples (2 cores), so
# a chunk's row loop stays under about 0.4 s per observable
ROW_CAP = 1000
_TOO_DEEP = (f"a sample needs more than {ROW_CAP} rows of lattice vectors: "
             "too deep in the cusp for the radius")


def _interval(centre, disc, scale):
    """First integer lo and number n of the integers x with
    scale^2 (x - centre)^2 <= disc, per sample."""
    half = np.sqrt(np.maximum(disc, 0.0))
    half /= scale
    lo = np.subtract(centre, half)
    np.ceil(lo, out=lo)
    n = np.add(centre, half, out=half)
    np.floor(n, out=n)
    n -= lo
    n += 1.0
    np.maximum(n, 0.0, out=n)
    n[~(disc >= 0.0)] = 0.0
    return lo, n


def _bump_row(n, d, disc, r2, bq):
    """Sum of the bump profile (A - B t^2)^2 over the n integers c1 of a
    row, A = disc/R^2, B = bq = |b1|^2/R^2, t = c1 - centre = s + d with s
    running over the n points centred on their midpoint.  The power sums
    of s are n(n^2 - 1)/12 and n(n^2 - 1)(3n^2 - 7)/240, and the odd ones
    vanish.  Centring keeps the terms of the size of the sum when
    lambda_1 is small."""
    a = disc / r2
    s2 = n * (n * n - 1.0) / 12.0
    s4 = s2 * (3.0 * n * n - 7.0) / 20.0
    d2 = d * d
    return (n * a * a - 2.0 * a * bq * (s2 + n * d2)
            + bq * bq * (s4 + 6.0 * d2 * s2 + n * d2 * d2))


def basis_shape(b):
    """Gram-Schmidt data of reduced bases b (m, N, N), N = 2 or 3, columns
    b[:, :, j]: |b1|^2, mu1j = b1.bj/|b1|^2 and, for the projections p2, p3
    of b2, b3 orthogonal to b1, h2 = |p2|, nu = p2.p3/|p2|^2 and the height
    h3 = |p2 x p3|/|p2| of p3 over the line of p2.  In dimension 2, which
    has no b3 (mu13 = nu = 0, h3 = inf), h2 = |det(b1, b2)|/|b1|.  The
    determinant and the cross product avoid cancelling squared lengths.
    In dimension 3, p2 and p3 take scratch rows."""
    c = b.transpose(2, 1, 0)  # c[j]: the coordinate rows of column j
    n, m = b.shape[2], b.shape[0]
    # scratch rows: the products of a dot product, p2 and p3
    w = np.empty((1 if n == 2 else 3, n, m))
    x = w[0]
    b11 = _coord_dot(c[0], c[0], x).copy()
    m12 = _coord_dot(c[0], c[1], x) / b11
    if n == 2:
        h2 = np.abs(c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]) / np.sqrt(b11)
        return b11, m12, 0.0, h2, 0.0, np.inf
    p2, p3 = w[1], w[2]
    m13 = _coord_dot(c[0], c[2], x) / b11
    np.multiply(m12, c[0], out=p2)
    np.subtract(c[1], p2, out=p2)
    np.multiply(m13, c[0], out=p3)
    np.subtract(c[2], p3, out=p3)
    h2 = np.sqrt(_coord_dot(p2, p2, x))
    nu = _coord_dot(p2, p3, x) / (h2 * h2)
    x = np.cross(p2, p3, axis=0)
    return b11, m12, m13, h2, nu, np.sqrt(_coord_dot(x, x, x)) / h2


def _rows(shape, r):
    """The rows (c2, c3) of lattice vectors c1 b1 + c2 b2 + c3 b3 that can
    hold vectors of norm at most r (a scalar or one radius per sample).

    |v|^2 = |b1|^2 (c1 - centre)^2 + d2 with centre = -(c2 mu12 + c3 mu13)
    and d2 = h2^2 (c2 + c3 nu)^2 + (c3 h3)^2, the Fincke-Pohst bounds
    |c3| h3 <= r and |c2 + c3 nu| h2 <= sqrt(r^2 - (c3 h3)^2) give the rows;
    in dimension 2 (h3 = inf) only c3 = 0.  Row -(c2, c3) mirrors row
    (c2, c3) exactly, so only c3 > 0, and c3 = 0 with c2 > 0, are yielded,
    each of weight 2, as (k, c2, c3, centre, d2): c2 (an array if c3 > 0),
    centre and d2 on the samples k within the bounds above.  The row of
    the origin, c2 = c3 = 0, is every sample's, and ``_row_sums`` sums it
    in closed form.  The rows c3 = 0 run up to the largest c2 any sample
    needs.  Every step is monotone in r, so no row loses vectors as r
    grows.  A sample needs at most r/h2 + 1 + (r/h3)(2 r/h2 + 1) rows;
    when that bound exceeds ``ROW_CAP`` for any sample, it raises
    ``CuspExcursionError``."""
    _, m12, m13, h2, nu, h3 = shape
    r = np.broadcast_to(r, h2.shape)
    reach2, reach3 = r / h2, r / h3
    if np.any(reach2 + 1.0 + reach3 * (2.0 * reach2 + 1.0) > ROW_CAP):
        raise CuspExcursionError(_TOO_DEEP)
    for c2 in range(1, int(np.max(reach2, initial=0.0)) + 1):
        d2 = (c2 * h2) ** 2
        k = np.flatnonzero(d2 <= r * r)
        yield k, c2, 0, -c2 * m12[k], d2[k]
    for c3 in range(1, int(np.max(reach3, initial=0.0)) + 1):
        lo, n = _interval(-c3 * nu, r * r - (c3 * h3) ** 2, h2)
        for j in range(int(np.max(n, initial=0.0))):
            k = np.flatnonzero(j < n)
            c2 = lo[k] + j
            d2 = (h2[k] * (c2 + c3 * nu[k])) ** 2 + (c3 * h3[k]) ** 2
            yield k, c2, c3, -(c2 * m12[k] + c3 * m13[k]), d2


def _exact_rows(b, own, c2, c3: int, radius: float, n) -> None:
    """Write into n[own] the number of integers c1 with
    |c1 b1 + c2 b2 + c3 b3| <= radius (c3 = 0 in dimension 2) of each
    sample of the mask ``own``, on the float64 columns read as exact dyadic
    rationals, in integer arithmetic (``_c1_range``).

    Each row is counted once.  The first sample's row is compared with
    every other in place, column row by column row under float ==, which
    holds for -0.0 and 0.0, the same rational; its count goes to all the
    samples equal to it (every sample of a ``heis3`` chunk).  Only the
    other rows are gathered, and np.unique finds the distinct ones."""
    d = b.shape[1]
    c2 = np.broadcast_to(c2, own.shape)
    first = int(np.argmax(own))
    same = own & (c2 == c2[first])
    # the columns of the row: b2 only where c2 != 0, b3 only where c3 != 0
    for j in (0,) + ((1,) if c2[first] else ()) + ((2,) if c3 else ()):
        for i in range(d):
            same &= b[:, i, j] == b[first, i, j]
    rest = np.flatnonzero(own & ~same)
    k = np.concatenate([[first], rest])
    w2 = np.where((c2[k] != 0)[:, None], b[k, :, 1], 0.0)
    w3 = b[k, :, 2] if c3 else np.zeros_like(w2)
    rows = np.column_stack([b[k, :, 0], w2, w3, c2[k]])
    width = rows.shape[1]
    # one void item per row: np.unique sorts those far faster than axis=0
    keys, inv = np.unique(
        rows[1:].view(np.dtype((np.void, rows.itemsize * width))),
        return_inverse=True)
    counts = []
    for key in np.concatenate([rows[:1], keys.view(float).reshape(-1, width)]):
        w = [int(key[-1]) * Fraction(x) + c3 * Fraction(y)
             for x, y in zip(key[d:2 * d], key[2 * d:3 * d])]
        (v1, vw), den = _integer_scaled([key[:d], w])
        r2 = (Fraction(radius) * den) ** 2
        a, beta = _dot(v1, v1), _dot(v1, vw)
        counts.append(len(_c1_range(a, beta, a * _dot(vw, vw) - beta * beta,
                                    r2.numerator, r2.denominator)))
    n[same] = counts[0]
    n[rest] = np.array(counts[1:], dtype=float)[inv.ravel()]


def _margin(shape, eps, norm1, big):
    """sum_i c_i eps_i for the bounds c_i of the coefficients of the
    vectors of norm at most ``big``, per sample."""
    _, m12, m13, h2, nu, h3 = shape
    reach = big / norm1
    c3_max = big / h3
    c2_max = big / h2 + np.abs(nu) * c3_max
    c1_max = reach + np.abs(m12) * c2_max + np.abs(m13) * c3_max
    return sum(k * x for k, x in zip((c1_max, c2_max, c3_max), eps))


def _row_sums(b, e, shape, f: TestFunction):
    """Sum of the profile of ``f`` over the lattice vectors, the origin
    included, per sample, and the mask of the samples whose indicator
    count the column bounds ``e`` leave in doubt (``siegel_sums``).  Each
    row runs on the samples it reaches (``_rows``), but the origin's, whose
    centre is +-0 and d2 = 0 on every sample: its sums are the general
    row's floats in closed form, n = 2 floor(sqrt(R^2)/|b1|) + 1, d = 0 and
    A = 1."""
    b11 = shape[0]
    norm1 = np.sqrt(b11)
    radius = f.radius
    r2 = radius * radius
    n = 2.0 * np.floor(math.sqrt(r2) / norm1) + 1.0
    if f.kind != INDICATOR_BALL:
        bq, s2 = b11 / r2, n * (n * n - 1.0) / 12.0
        total = n - 2.0 * bq * s2 + bq * bq * (s2 * (3.0 * n * n - 7.0) / 20.0)
        for k, _, _, centre, d2 in _rows(shape, radius):
            lo, n = _interval(centre, r2 - d2, norm1[k])
            total[k] += 2.0 * _bump_row(n, lo + (n - 1.0) / 2.0 - centre, r2 - d2,
                                        r2, b11[k] / r2)
        return total, np.zeros(b.shape[0], dtype=bool)
    c = b.transpose(2, 1, 0)
    eps = [e[:, j] + _ROW_SLACK * np.sqrt(_coord_dot(c[j], c[j]))
           for j in range(b.shape[2])]
    big = radius + 1.0
    rho = _margin(shape, eps, norm1, big)
    ties = rho > 1.0
    exact_cols = e == 0.0

    def settle(k, c2, c3, doubt, n):
        # a doubtful row is counted from exact columns, or marks a tie
        if doubt.any():
            cols = exact_cols[k]
            own = (doubt & cols[:, 0] & ((c2 == 0) | cols[:, 1])
                   & (c3 == 0 or cols[:, 2]))
            ties[k] |= doubt & ~own
            if own.any():
                _exact_rows(b[k], own, c2, c3, radius, n)

    # the origin's row, whose vectors have |c1| <= (R + 1)/|b1|
    outer = big / norm1 * eps[0]
    inner = np.maximum(radius - outer, 0.0)
    outer += radius
    settle(slice(None), 0, 0, np.floor(np.sqrt(inner * inner) / norm1)
           != np.floor(np.sqrt(outer * outer) / norm1), n)
    total = n
    # rows up to R + min(rho, 1) can hold a doubtful vector
    r = np.add(radius, np.minimum(rho, 1.0, out=rho), out=rho)
    for k, c2, c3, centre, d2 in _rows(shape, r):
        norm = norm1[k]
        n = _interval(centre, r2 - d2, norm)[1]
        # |c1| <= |centre| + (R + 1)/|b1| for the row's vectors of norm <= R + 1
        rho_row = (np.abs(centre) + big / norm) * eps[0][k] + np.abs(c2) * eps[1][k]
        if c3:
            rho_row += c3 * eps[2][k]
        # the discriminants at the radii R + rho_row and R - rho_row
        outer = radius + rho_row
        outer *= outer
        outer -= d2
        inner = np.maximum(radius - rho_row, 0.0, out=rho_row)
        inner *= inner
        inner -= d2
        settle(k, c2, c3, _interval(centre, inner, norm)[1]
               != _interval(centre, outer, norm)[1], n)
        total[k] += 2.0 * n
    return total, ties


def siegel_sums(b: np.ndarray, e: np.ndarray, fs, shape):
    """Siegel observables of a batch of reduced bases (m, N, N), N = 2 or 3,
    shortest column first, one row per test function in ``fs``, summed in
    closed form over the rows of ``_rows`` from their ``basis_shape``
    ``shape``; and the samples whose indicator count the column bounds
    ``e`` leave in doubt.

    A vector's norm moves by at most sum |c_i| e_i between the stored and
    the exact basis.  Per row, the margin rho bounds that, plus a
    rounding slack of ``_ROW_SLACK`` |b_i| per unit coefficient, for the
    row's vectors of norm at most R + 1 (|c1| <= |centre| + (R + 1)/|b1|).
    A row's count is certain when it is the same at R - rho and R + rho.
    An uncertain row whose columns are exact as stored (bound 0, like the
    unit vector e1 that the lattices of ``heis3`` and of the 2D
    closed-orbit maps keep on the sphere R = 1) is counted exactly from
    them (``_exact_rows``); any other uncertain row marks its sample as a
    tie, to be recounted from the exact lattice.  Every sample is counted
    (``_rows`` caps its rows at ``ROW_CAP``).  Returns (values, ties).
    """
    values = np.empty((len(fs), b.shape[0]))
    ties = np.zeros(values.shape, dtype=bool)
    for i, f in enumerate(fs):
        total, ties[i] = _row_sums(b, e, shape, f)
        # the origin, in row 0, has profile value 1 for both kinds
        values[i] = total - 1.0
    return values, ties
