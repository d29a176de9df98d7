"""The space of unimodular lattices in dimension 2 and 3: reduction,
Siegel-transform observables and Haar references.  A lattice lies in
Mahler's compact set {shortest vector >= eps0} when the first column of
its reduced basis, a shortest vector, has length lambda_1 >= eps0.

Observables are Siegel transforms g -> sum over nonzero v in Z^N of
f(g v) for compactly supported radial f; their Haar integral is the
plain integral of f over R^N, which gives the equidistribution
experiments a closed-form reference.

The batch helpers vectorize both dimensions over large sample arrays.
The batch reductions (Lagrange in dimension 2, greedy in dimension 3)
carry a forward-error bound per column, so callers can certify the
reduced basis against ``PREC_TOL``; ``reduce_exact`` is the exact
rational last resort for both.  ``siegel_sums``, one kernel for both
dimensions, sums each observable in closed form over the rows of lattice
vectors inside the ball, with no enumeration and no per-sample fallback.
It counts the rows that the bases' error could change exactly from
columns that are exact as stored, and marks the other doubtful counts as
ties, which ``siegel_count_exact`` recounts in integer arithmetic, so
every indicator count is the exact lattice's.
``experiment.certified_reduce`` and ``experiment.certified_observables``
put these pieces together into one kernel for both dimensions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .doubledouble import ADD_ERR, MUL_D_ERR, U, U2, dd_add, dd_mul_d
from .errors import DomainError

CUSP_GUARD = 1e-6
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


# ---------------------------------------------------------------------------
# vectorized dimension-2 pipeline
# ---------------------------------------------------------------------------

# columns per call of ``_lagrange_pass``: on the 16,384-sample chunks of
# the criterion-10 sweep, passes in blocks of this size take the
# double-double reduction about 1.6 times faster (2-core Xeon) than whole
# chunks, as their temporaries stay in cache and are recycled by the
# allocator rather than mapped afresh
_BLOCK = 1 << 13


def _coord_dot(x, y):
    """Per-sample dot products of (d, m) coordinate rows, summed in
    coordinate order."""
    p = x * y
    for row in p[1:]:
        p[0] += row
    return p[0]


def sl2_lagrange(u, v, eu, ev, u_lo=None, v_lo=None):
    """Lagrange-reduce a batch of column pairs (u, v), carrying a
    forward-error bound for each column.

    ``u`` and ``v`` are (m, d) float64 columns, or the high parts of
    double-double columns whose low parts are ``u_lo`` and ``v_lo``.
    ``eu`` and ``ev`` bound the 2-norm distance of each column to the exact
    column it stands for.  Every step v <- v - mu u uses an integer mu, so
    the exact columns remain a basis of the same lattice whatever mu the
    rounded arithmetic picks; the bounds follow them with
    ev <- ev + |mu| eu + (rounding of the step), the a-priori analysis of
    Higham (2002).  A step with mu = 0 is exact and charges nothing.

    The state is one contiguous row per coordinate, low part, squared
    norm and bound, with one column per active sample; each pass runs
    over blocks of ``_BLOCK`` columns.  A sample's outputs are written on
    the pass where its mu first becomes 0; the finished columns are
    dropped once they are half of the active ones.

    Returns (u, v, eu, ev, done): float64 columns with |u| <= |v| (low
    parts rounded in, that rounding included in the bounds), the bounds,
    and the mask of samples whose reduction converged.
    """
    m, d = u.shape
    dd = u_lo is not None
    if dd:
        c_mul, c_add = MUL_D_ERR * U2 * 1.01, ADD_ERR * U2 * 1.01
    else:
        c_mul = c_add = U * 1.01
    # rows of one column's block: coordinates, (low parts,) |.|^2, bound;
    # u's block, then v's
    h = d * (2 if dd else 1) + 2
    s = np.empty((2 * h, m))
    for b, col, lo, e in ((0, u, u_lo, eu), (h, v, v_lo, ev)):
        s[b:b + d] = col.T
        if dd:
            s[b + d:b + 2 * d] = lo.T
        s[b + h - 2] = _coord_dot(s[b:b + d], s[b:b + d])
        s[b + h - 1] = e
    out = (np.empty((m, d)), np.empty((m, d)), np.empty(m), np.empty(m))
    done = np.ones(m, dtype=bool)
    idx = np.arange(m)
    fin = np.zeros(m, dtype=bool)  # active columns already written out
    for _ in range(256):
        n_fin = np.count_nonzero(fin)
        if n_fin == fin.size:
            break
        if 2 * n_fin >= fin.size:
            keep = ~fin
            s, idx, fin = s[:, keep], idx[keep], fin[keep]
        moved = np.concatenate([_lagrange_pass(s[:, a:a + _BLOCK], d, c_mul, c_add, dd)
                                for a in range(0, idx.size, _BLOCK)])
        new = ~(moved | fin)
        if new.any():
            _write_columns(s, new, idx[new], out)
            fin |= new
    else:
        # the samples still moving after the last pass
        rest = ~fin
        _write_columns(s, rest, idx[rest], out)
        done[idx[rest]] = False
    u, v, eu, ev = out
    if dd:
        # the high part is the float64 rounding of the double-double value
        eu += U * np.sqrt(np.sum(u * u, axis=1))
        ev += U * np.sqrt(np.sum(v * v, axis=1))
    return u, v, eu, ev, done


def _lagrange_pass(s, d, c_mul, c_add, dd):
    """One pass of ``sl2_lagrange`` on its state ``s``, in place: swap so
    that |u| <= |v|, then v <- v - mu u and the bound of v.  Returns the
    mask of the columns whose step moved v (mu != 0)."""
    h = s.shape[0] // 2
    swap = s[h - 2] > s[2 * h - 2]
    if swap.any():
        # exchange the halves' bits where swap is set (xor swap): exact,
        # and branch-free where np.where on a random mask is not
        bits = s.view(np.int64)
        x = bits[:h] ^ bits[h:]
        x *= swap
        bits[:h] ^= x
        bits[h:] ^= x
    uu, eu, ev = s[h - 2], s[h - 1], s[2 * h - 1]
    cu, cv = s[:d], s[h:h + d]
    mu = np.round(_coord_dot(cu, cv) / uu)
    if dd:
        ph, pl = dd_mul_d(cu, s[d:2 * d], mu)
        cv[:], s[h + d:h + 2 * d] = dd_add(cv, s[h + d:h + 2 * d], -ph, -pl)
    else:
        cv -= mu * cu
    amu = np.abs(mu)
    moved = mu != 0
    vv = s[2 * h - 2] = _coord_dot(cv, cv)
    s[2 * h - 1] = (ev + amu * eu + c_mul * amu * np.sqrt(uu)
                    + c_add * moved * np.sqrt(vv))
    return moved


def _write_columns(s, cols, at, out):
    """Copy the columns ``cols`` of the ``sl2_lagrange`` state to the
    samples ``at`` of its outputs (u, v, eu, ev)."""
    h, d = s.shape[0] // 2, out[0].shape[1]
    take = s[:, cols]
    out[0][at] = take[:d].T
    out[1][at] = take[h:h + d].T
    out[2][at] = take[h - 1]
    out[3][at] = take[2 * h - 1]


def sl2_reduce_batch(mats: np.ndarray):
    """Lagrange-reduce a batch of float64 column bases.  Returns
    (b1, b2, lam1) with b1 the shortest basis vector per sample.

    This is the float64 tier of ``sl2_lagrange`` taking the entries as
    exact, kept as the float64 entry point of ``bench/oracle.py`` until
    the benchmark leaves it (ROADMAP item 2)."""
    zero = np.zeros(mats.shape[0])
    u, v, _, _, done = sl2_lagrange(mats[:, :, 0], mats[:, :, 1], zero, zero)
    if not done.all():
        raise DomainError("batch reduction did not converge")
    return u, v, np.sqrt(np.sum(u * u, axis=1))


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def _integer_scaled(vecs):
    """The integer vectors D v of rational vectors v, and their least
    common denominator D."""
    den = math.lcm(*(Fraction(x).denominator for v in vecs for x in v))
    return [tuple(int(Fraction(x) * den) for x in v) for v in vecs], den


def _lagrange_int(u, v):
    """Exact Lagrange reduction of integer vectors; shortest first."""
    while True:
        uu = _dot(u, u)
        if uu > _dot(v, v):
            u, v = v, u
            uu = _dot(u, u)
        mu = (2 * _dot(u, v) + uu) // (2 * uu)
        if mu == 0:
            return u, v
        v = tuple(x - mu * y for x, y in zip(v, u))


def _reduce_exact(m):
    """Exact reduction of the column basis of a 2x2 or 3x3 matrix of
    rationals.  Returns the reduced integer columns of D m, shortest first
    (Lagrange for N = 2, greedy for N = 3, as ``sl3_greedy``), and the
    common denominator D.

    The rounded quotients of the reduction are invariant under scaling,
    so it runs on the integer matrix D m.  For the closest vector of
    L(b1, b2) to b3, with x the coordinates of its projection, the
    second coordinate is within one of round(x2), and for each y2 the best
    first coordinate is round((b1.b3 - (b1.b2) y2)/|b1|^2)."""
    n = len(m)
    cols, den = _integer_scaled([[m[i][j] for i in range(n)] for j in range(n)])
    if n == 2:
        return list(_lagrange_int(*cols)), den
    while True:
        cols.sort(key=lambda v: _dot(v, v))
        b1, b2 = _lagrange_int(cols[0], cols[1])
        b3 = cols[2]
        a, b, c = _dot(b1, b1), _dot(b1, b2), _dot(b2, b2)
        r1, r2 = _dot(b1, b3), _dot(b2, b3)
        det = a * c - b * b
        near = (2 * (a * r2 - b * r1) + det) // (2 * det)  # round(x2)
        best = None
        for y2 in (near, near - 1, near + 1):
            y1 = (2 * (r1 - b * y2) + a) // (2 * a)
            res = tuple(t - y1 * p - y2 * q for t, p, q in zip(b3, b1, b2))
            if best is None or _dot(res, res) < _dot(best, best):
                best = res
        if _dot(best, best) >= c:
            return [b1, b2, best], den
        cols = [b1, b2, best]


def reduce_exact(m) -> np.ndarray:
    """Exactly reduced columns (shortest first) of a 2x2 or 3x3 matrix of
    rationals, as a float64 matrix whose entries are the roundings of the
    exact ones."""
    cols, den = _reduce_exact(m)
    return np.array([[c[i] / den for c in cols] for i in range(len(cols))])


def _row_count_exact(a, beta, delta, p, q) -> int:
    """Integers c1 with |c1 b1 + w|^2 <= p/q, for integer vectors b1 and w
    with a = |b1|^2, beta = b1.w and delta = a |w|^2 - beta^2: the
    condition is (a c1 + beta)^2 <= a p/q - delta."""
    t = a * p - q * delta
    if t < 0:
        return 0
    s = math.isqrt(t // q)
    # c1 from ceil((-s - beta)/a) to floor((s - beta)/a)
    return (s - beta) // a + (s + beta) // a + 1


def siegel_count_exact(m, radius: float) -> int:
    """Nonzero vectors of norm at most ``radius`` in the column lattice of a
    2x2 or 3x3 matrix of rationals, counted in integer arithmetic.

    On the reduced columns b_i of D m, with Gram matrix G, the vectors
    c1 b1 + w of the row w = c2 b2 (+ c3 b3) fill one c1 interval
    (``_row_count_exact``), which is empty unless the projection of w
    orthogonal to b1 has norm at most D R.  That is the quadratic form
    delta(c) = |b1|^2 |w|^2 - (b1.w)^2 <= |b1|^2 (D R)^2, whose rows c3
    and c2 intervals have closed forms as well."""
    cols, den = _reduce_exact(m)
    r2 = (Fraction(radius) * den) ** 2
    p, q = r2.numerator, r2.denominator
    g = [[_dot(x, y) for y in cols] for x in cols]
    a = g[0][0]
    # delta(c2, c3) = A c2^2 + 2 B c2 c3 + C c3^2
    A = a * g[1][1] - g[0][1] ** 2
    if len(cols) == 2:
        c2_max = math.isqrt(a * p // (q * A))
        rows = [(c2,) for c2 in range(-c2_max, c2_max + 1)]
    else:
        B = a * g[1][2] - g[0][1] * g[0][2]
        C = a * g[2][2] - g[0][2] ** 2
        disc = A * C - B * B
        c3_max = math.isqrt(A * a * p // (q * disc))
        rows = []
        for c3 in range(-c3_max, c3_max + 1):
            # (A c2 + B c3)^2 + disc c3^2 <= A a (D R)^2
            s = math.isqrt((A * a * p - q * disc * c3 * c3) // q)
            rows += [(c2, c3) for c2 in range(-((s + B * c3) // A),
                                              (s - B * c3) // A + 1)]
    count = -1  # the origin
    for c in rows:
        # b1.w and |w|^2 for w = c2 b2 (+ c3 b3)
        beta = sum(ci * g[0][i] for i, ci in enumerate(c, 1))
        ww = sum(ci * cj * g[i][j] for i, ci in enumerate(c, 1)
                 for j, cj in enumerate(c, 1))
        count += _row_count_exact(a, beta, a * ww - beta * beta, p, q)
    return count


# ---------------------------------------------------------------------------
# vectorized dimension-3 pipeline
# ---------------------------------------------------------------------------


def _sub_step(v, ev, y, u, eu):
    """v - y u for an integer y per sample, and the bound of the result:
    ev + |y| eu plus the rounding of the float64 step (none when y = 0)."""
    w = v - y[:, None] * u
    ay = np.abs(y)
    rnd = U * 1.01 * (ay * np.sqrt(np.sum(u * u, axis=1))
                      + (ay > 0) * np.sqrt(np.sum(w * w, axis=1)))
    return w, ev + ay * eu + rnd


def sl3_greedy(b, e):
    """Greedy reduction of a batch of 3x3 column bases, carrying a
    forward-error bound for each column.

    ``b`` is (m, 3, 3) float64 with the bases in the columns b[:, :, j];
    ``e`` (m, 3) bounds the 2-norm distance of each column to the exact
    column it stands for.  Each pass sorts the columns by length,
    Lagrange-reduces the first two (``sl2_lagrange``) and subtracts from
    the third the closest vector of the lattice they span, found among
    three candidates as in ``_reduce_exact``; it stops once the third is
    no shorter than the second.  In dimension at most 4 the result is
    Minkowski-reduced (Semaev 2001; Nguyen and Stehle 2009), so
    |b_i| = lambda_i.  As in ``sl2_lagrange`` every step is integer, so the
    exact columns stay a basis of the same lattice and the bounds follow
    them.

    Returns (b, e, done): the reduced bases, shortest column first, their
    bounds, and the mask of samples whose reduction converged.
    """
    m = b.shape[0]
    out_b = np.empty((m, 3, 3))
    out_e = np.empty((m, 3))
    done = np.zeros(m, dtype=bool)
    # the active samples' columns as rows: (sample, column, coordinate)
    cols = np.array(b, dtype=float).transpose(0, 2, 1)
    errs = np.array(e, dtype=float)
    idx = np.arange(m)
    for _ in range(256):
        if idx.size == 0:
            break
        order = np.argsort(np.sum(cols * cols, axis=2), axis=1, kind="stable")
        cols = np.take_along_axis(cols, order[:, :, None], axis=1)
        errs = np.take_along_axis(errs, order, axis=1)
        b1, b2, e1, e2, ok = sl2_lagrange(cols[:, 0], cols[:, 1],
                                          errs[:, 0], errs[:, 1])
        b3 = cols[:, 2]
        a = np.sum(b1 * b1, axis=1)
        ab = np.sum(b1 * b2, axis=1)
        c = np.sum(b2 * b2, axis=1)
        r1 = np.sum(b1 * b3, axis=1)
        # round(x2), x2 the second coordinate of b3's projection
        near = np.round((a * np.sum(b2 * b3, axis=1) - ab * r1) / (a * c - ab * ab))
        best = np.full(idx.size, np.inf)
        y1 = np.zeros(idx.size)
        y2 = np.zeros(idx.size)
        for t2 in (near, near - 1.0, near + 1.0):
            t1 = np.round((r1 - ab * t2) / a)
            res = b3 - t1[:, None] * b1 - t2[:, None] * b2
            nr = np.sum(res * res, axis=1)
            take = nr < best
            best = np.where(take, nr, best)
            y1 = np.where(take, t1, y1)
            y2 = np.where(take, t2, y2)
        b3, e3 = _sub_step(b3, errs[:, 2], y1, b1, e1)
        b3, e3 = _sub_step(b3, e3, y2, b2, e2)
        cols = np.stack([b1, b2, b3], axis=1)
        errs = np.stack([e1, e2, e3], axis=1)
        fin = ~ok | (np.sum(b3 * b3, axis=1) >= c)
        if fin.any():
            out_b[idx[fin]] = cols[fin].transpose(0, 2, 1)
            out_e[idx[fin]] = errs[fin]
            done[idx[fin]] = ok[fin]
            keep = ~fin
            cols, errs, idx = cols[keep], errs[keep], idx[keep]
    out_b[idx] = cols.transpose(0, 2, 1)
    out_e[idx] = errs
    return out_b, out_e, done


# ---------------------------------------------------------------------------
# Siegel observables of reduced bases, both dimensions
# ---------------------------------------------------------------------------

# rounding slack of the row geometry of a reduced basis, relative to each
# column's length per unit coefficient, in the margin of an indicator count
_ROW_SLACK = 1e-13


def _interval(centre, disc, scale):
    """First integer lo and number n of the integers x with
    scale^2 (x - centre)^2 <= disc, per sample."""
    half = np.sqrt(np.maximum(disc, 0.0)) / scale
    lo = np.ceil(centre - half)
    n = np.where(disc >= 0.0,
                 np.maximum(np.floor(centre + half) - lo + 1.0, 0.0), 0.0)
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


def _shape(b):
    """Gram-Schmidt data of reduced bases b (m, N, N), N = 2 or 3, columns
    b[:, :, j]: |b1|^2, mu1j = b1.bj/|b1|^2 and, for the projections p2, p3
    of b2, b3 orthogonal to b1, h2 = |p2|, nu = p2.p3/|p2|^2 and the height
    h3 = |p2 x p3|/|p2| of p3 over the line of p2.  In dimension 2, which
    has no b3 (mu13 = nu = 0, h3 = inf), h2 = |det(b1, b2)|/|b1|.  The
    determinant and the cross product avoid cancelling squared lengths."""
    c = b.transpose(2, 1, 0)  # c[j]: the coordinate rows of column j
    b11 = _coord_dot(c[0], c[0])
    m12 = _coord_dot(c[0], c[1]) / b11
    if b.shape[2] == 2:
        h2 = np.abs(c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]) / np.sqrt(b11)
        return b11, m12, 0.0, h2, 0.0, np.inf
    m13 = _coord_dot(c[0], c[2]) / b11
    p2 = c[1] - m12 * c[0]
    p3 = c[2] - m13 * c[0]
    h2 = np.sqrt(_coord_dot(p2, p2))
    nu = _coord_dot(p2, p3) / (h2 * h2)
    x = np.cross(p2, p3, axis=0)
    return b11, m12, m13, h2, nu, np.sqrt(_coord_dot(x, x)) / h2


def _rows(shape, r):
    """The rows (c2, c3) of lattice vectors c1 b1 + c2 b2 + c3 b3 that can
    hold vectors of norm at most r (a scalar or one radius per sample).

    |v|^2 = |b1|^2 (c1 - centre)^2 + d2 with centre = -(c2 mu12 + c3 mu13)
    and d2 = h2^2 (c2 + c3 nu)^2 + (c3 h3)^2, the Fincke-Pohst bounds
    |c3| h3 <= r and |c2 + c3 nu| h2 <= sqrt(r^2 - (c3 h3)^2) give the rows;
    in dimension 2 (h3 = inf) only c3 = 0.  Row -(c2, c3) mirrors row
    (c2, c3) exactly, so only c3 > 0, and c3 = 0 with c2 >= 0, are yielded,
    as (weight, c2, c3, centre, d2), with weight 1 for the row of the origin
    and 2 for the others.  The rows c3 = 0 are shared by all samples, up to
    the largest c2 any of them needs: a sample beyond its own last row has
    d2 > r^2.  A sample without a row c3 > 0 yields d2 = r^2 + 1.  Every
    step is monotone in r, so no row loses vectors as r grows."""
    _, m12, m13, h2, nu, h3 = shape
    r = np.broadcast_to(r, h2.shape)
    for c2 in range(int(np.max(r / h2, initial=0.0)) + 1):
        yield 1.0 if c2 == 0 else 2.0, c2, 0, -c2 * m12, (c2 * h2) ** 2
    for c3 in range(1, int(np.max(r / h3, initial=0.0)) + 1):
        lo, n = _interval(-c3 * nu, r * r - (c3 * h3) ** 2, h2)
        for j in range(int(np.max(n, initial=0.0))):
            c2 = lo + j
            d2 = (h2 * (c2 + c3 * nu)) ** 2 + (c3 * h3) ** 2
            yield (2.0, c2, c3, -(c2 * m12 + c3 * m13),
                   np.where(j < n, d2, r * r + 1.0))


def _exact_rows(b, c2, c3: int, radius: float) -> np.ndarray:
    """Integers c1 with |c1 b1 + c2 b2 + c3 b3| <= radius (c3 = 0 in
    dimension 2), per sample, on the float64 columns read as exact dyadic
    rationals; counted once per distinct row, in integer arithmetic
    (``_row_count_exact``)."""
    d = b.shape[1]
    w2 = np.where((c2 != 0)[:, None], b[:, :, 1], 0.0)
    w3 = b[:, :, 2] if c3 else np.zeros_like(w2)
    rows = np.column_stack([b[:, :, 0], w2, w3, c2])
    width = rows.shape[1]
    # one void item per row: np.unique sorts those far faster than axis=0
    keys, inv = np.unique(rows.view(np.dtype((np.void, rows.itemsize * width))),
                          return_inverse=True)
    counts = []
    for key in keys.view(float).reshape(-1, width):
        w = [int(key[-1]) * Fraction(x) + c3 * Fraction(y)
             for x, y in zip(key[d:2 * d], key[2 * d:3 * d])]
        (v1, vw), den = _integer_scaled([key[:d], w])
        r2 = (Fraction(radius) * den) ** 2
        a, beta = _dot(v1, v1), _dot(v1, vw)
        counts.append(_row_count_exact(a, beta, a * _dot(vw, vw) - beta * beta,
                                       r2.numerator, r2.denominator))
    return np.array(counts, dtype=float)[inv.ravel()]


def _row_sums(b, e, shape, f: TestFunction):
    """Sum of the profile of ``f`` over the lattice vectors, the origin
    included, per sample, and the mask of the samples whose indicator
    count the column bounds ``e`` leave in doubt (``siegel_sums``)."""
    b11, m12, m13, h2, nu, h3 = shape
    norm1 = np.sqrt(b11)
    radius = f.radius
    r2 = radius * radius
    total = np.zeros(b.shape[0])
    if f.kind != INDICATOR_BALL:
        for w, _, _, centre, d2 in _rows(shape, radius):
            lo, n = _interval(centre, r2 - d2, norm1)
            total += w * _bump_row(n, lo + (n - 1.0) / 2.0 - centre, r2 - d2,
                                   r2, b11 / r2)
        return total, np.zeros(b.shape[0], dtype=bool)
    c = b.transpose(2, 1, 0)
    eps = [e[:, j] + _ROW_SLACK * np.sqrt(_coord_dot(c[j], c[j]))
           for j in range(b.shape[2])]
    # coefficient bounds of the vectors of norm at most R + 1
    big = radius + 1.0
    reach = big / norm1
    c3_max = big / h3
    c2_max = big / h2 + np.abs(nu) * c3_max
    c1_max = reach + np.abs(m12) * c2_max + np.abs(m13) * c3_max
    rho = sum(k * x for k, x in zip((c1_max, c2_max, c3_max), eps))
    ties = rho > 1.0
    exact_cols = e == 0.0
    for w, c2, c3, centre, d2 in _rows(shape, radius + np.minimum(rho, 1.0)):
        n = _interval(centre, r2 - d2, norm1)[1]
        rho_row = (np.abs(centre) + reach) * eps[0] + np.abs(c2) * eps[1]
        if c3:
            rho_row += c3 * eps[2]
        inner = np.maximum(radius - rho_row, 0.0)
        outer = radius + rho_row
        doubt = (_interval(centre, inner * inner - d2, norm1)[1]
                 != _interval(centre, outer * outer - d2, norm1)[1])
        if doubt.any():
            own = (doubt & exact_cols[:, 0] & ((c2 == 0) | exact_cols[:, 1])
                   & (c3 == 0 or exact_cols[:, 2]))
            ties |= doubt & ~own
            if own.any():
                n[own] = _exact_rows(b[own], np.broadcast_to(c2, n.shape)[own],
                                     c3, radius)
        total += w * n
    return total, ties


def siegel_sums(b: np.ndarray, e: np.ndarray, lam1: np.ndarray, fs):
    """Siegel observables of a batch of reduced bases (m, N, N), N = 2 or 3,
    shortest column first, one row per test function in ``fs``, summed in
    closed form over the rows of ``_rows`` from one ``_shape``; and the
    samples whose indicator count the column bounds ``e`` leave in doubt.

    A vector's norm moves by at most sum |c_i| e_i between the stored and
    the exact basis.  Per row, the margin rho bounds that, plus a
    rounding slack of ``_ROW_SLACK`` |b_i| per unit coefficient, for the
    row's vectors of norm at most R + 1 (|c1| <= |centre| + (R + 1)/|b1|).
    A row's count is certain when it is the same at R - rho and R + rho.
    An uncertain row whose columns are exact as stored (bound 0, like the
    unit vector e1 that the lattices of ``heis3`` and of the 2D
    closed-orbit maps keep on the sphere R = 1) is counted exactly from
    them (``_exact_rows``); any other uncertain row marks its sample as a
    tie, to be recounted from the exact lattice.  Samples under the
    enumeration guard are excluded: value 0 and no tie.
    Returns (values, excluded, ties).
    """
    excluded = lam1 < CUSP_GUARD
    shape = _shape(b)
    values = np.empty((len(fs), b.shape[0]))
    ties = np.zeros(values.shape, dtype=bool)
    for i, f in enumerate(fs):
        total, ties[i] = _row_sums(b, e, shape, f)
        # the origin, in row 0, has profile value 1 for both kinds
        values[i] = np.where(excluded, 0.0, total - 1.0)
    return values, excluded, ties & ~excluded


def siegel_batch(b1: np.ndarray, b2: np.ndarray, lam1: np.ndarray, f: TestFunction):
    """(values, excluded) of ``siegel_sums`` on Lagrange-reduced 2D bases
    taken within ``PREC_TOL`` of exact ones: the float64 counts, with no
    tie recount.  Kept for ``bench/oracle.py`` (ROADMAP item 2)."""
    values, excluded, _ = siegel_sums(np.stack([b1, b2], axis=2),
                                      np.full(b1.shape, PREC_TOL), lam1, (f,))
    return values[0], excluded
