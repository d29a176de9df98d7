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

from .doubledouble import ADD_ERR, BLOCK, MUL_D_ERR, U, U2, dd_sub_mul_d
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

def _coord_dot(x, y, out=None):
    """Per-sample dot products of (d, m) coordinate rows, summed in
    coordinate order; ``out`` is an optional (d, m) scratch array."""
    p = np.multiply(x, y, out=out)
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
    over blocks of ``BLOCK`` columns.  A sample's outputs are written on
    the pass where its mu first becomes 0; the finished columns are
    dropped on the first pass where any finish, and after that once they
    are half of the active ones.  A sample whose state is not finite on
    entry (a coordinate, low part or bound, or a squared norm beyond
    float64), or that has a column of squared norm 0, is returned as it
    came, not converged.

    Returns (u, v, eu, ev, done): float64 columns with |u| <= |v| (low
    parts rounded in, that rounding included in the bounds), the bounds,
    and the mask of samples whose reduction converged.
    """
    m, d = u.shape
    dd = u_lo is not None
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
    done = _lagrange_rows(s, d, dd)
    eu, ev = s[h - 1], s[2 * h - 1]
    if dd:
        # the high part is the float64 rounding of the double-double value
        eu += U * np.sqrt(s[h - 2])
        ev += U * np.sqrt(s[2 * h - 2])
    return s[:d].T.copy(), s[h:h + d].T.copy(), eu, ev, done


def _lagrange_rows(s, d, dd):
    """The passes of ``sl2_lagrange`` on its state ``s`` (one column per
    sample), in place.  Each column is left as it was on the pass where
    its mu first became 0, or as it came if it was not finite or had a
    zero column on entry.  Returns the mask of the samples whose
    reduction converged."""
    if dd:
        c_mul, c_add = MUL_D_ERR * U2 * 1.01, ADD_ERR * U2 * 1.01
    else:
        c_mul = c_add = U * 1.01
    h = s.shape[0] // 2
    done = np.isfinite(s).all(axis=0) & (s[h - 2] != 0) & (s[2 * h - 2] != 0)
    idx = np.nonzero(done)[0]
    # the active samples: s itself until a sample finishes, then a copy,
    # so that the finished columns stay as they were (np.compress keeps
    # the rows contiguous, where s[:, mask] would return them strided)
    t = s if idx.size == s.shape[1] else np.compress(done, s, axis=1)
    fin = np.zeros(idx.size, dtype=bool)  # active columns already written back
    # scratch rows of a pass: the dot products (mu in row 0), then the
    # product mu u and the temporaries of the double-double step
    w = np.empty((8 if dd else 2, d, min(idx.size, BLOCK)))
    for _ in range(256):
        n_fin = np.count_nonzero(fin)
        if n_fin == fin.size:
            break
        if 2 * n_fin >= fin.size:
            keep = ~fin
            t, idx, fin = np.compress(keep, t, axis=1), idx[keep], fin[keep]
        moved = np.concatenate([_lagrange_pass(t[:, a:a + BLOCK], d, c_mul, c_add, dd, w)
                                for a in range(0, idx.size, BLOCK)])
        new = ~(moved | fin)
        if new.any():
            if t is s:
                keep = ~new
                t, idx, fin = np.compress(keep, t, axis=1), idx[keep], fin[keep]
            else:
                s[:, idx[new]] = np.compress(new, t, axis=1)
                fin |= new
    else:
        # the samples still moving after the last pass
        rest = ~fin
        s[:, idx[rest]] = np.compress(rest, t, axis=1)
        done[idx[rest]] = False
    return done


def _lagrange_pass(s, d, c_mul, c_add, dd, w):
    """One pass of ``sl2_lagrange`` on its state ``s``, in place: swap so
    that |u| <= |v|, then v <- v - mu u and the bound of v, with the
    scratch rows ``w``.  Returns the mask of the columns whose step moved
    v (mu != 0)."""
    h = s.shape[0] // 2
    swap = s[h - 2] > s[2 * h - 2]
    if swap.any():
        _swap_rows(s, 0, h, h, swap)
    uu, vv, eu, ev = s[h - 2], s[2 * h - 2], s[h - 1], s[2 * h - 1]
    cu, cv = s[:d], s[h:h + d]
    w = w[:, :, :s.shape[1]]
    mu = _coord_dot(cu, cv, w[0])
    np.divide(mu, uu, out=mu)
    np.round(mu, out=mu)
    if dd:
        dd_sub_mul_d(cv, s[h + d:h + 2 * d], cu, s[d:2 * d], mu, w[1:])
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


def _swap_rows(s, i, j, h, swap):
    """Exchange rows i to i + h - 1 and j to j + h - 1 of ``s`` in the
    columns where ``swap`` is set, in place (xor swap of the bits): exact,
    and branch-free where np.where on a random mask is not."""
    bits = s.view(np.int64)
    x = bits[i:i + h] ^ bits[j:j + h]
    x *= swap
    bits[i:i + h] ^= x
    bits[j:j + h] ^= x


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

    The state is one contiguous row per coordinate, squared norm and
    bound of each column, with one column per active sample, as in
    ``sl2_lagrange``; every dot product is summed in coordinate order.
    A sample's outputs are written on the pass where it finishes, and
    the finished columns are dropped.  A sample whose state is not finite
    on entry (a coordinate or bound, or a squared norm beyond float64),
    or that has a column of squared norm 0, is returned as it came, not
    converged.

    Returns (b, e, done): the reduced bases, shortest column first, their
    bounds, and the mask of samples whose reduction converged.
    """
    out_b = np.array(b, dtype=float)
    out_e = np.array(e, dtype=float)
    m = out_b.shape[0]
    # rows of column j: coordinates 5j to 5j + 2, |b_j|^2 at 5j + 3 and
    # the bound at 5j + 4
    s = np.empty((15, m))
    for j in range(3):
        c = s[5 * j:5 * j + 3]
        c[:] = out_b[:, :, j].T
        s[5 * j + 3] = _coord_dot(c, c)
        s[5 * j + 4] = out_e[:, j]
    done = np.zeros(m, dtype=bool)
    valid = np.isfinite(s).all(axis=0) & (s[3] != 0) & (s[8] != 0) & (s[13] != 0)
    idx = np.arange(m)
    if not valid.all():
        s, idx = np.compress(valid, s, axis=1), idx[valid]
    for _ in range(256):
        if idx.size == 0:
            break
        for i, j in ((0, 1), (1, 2), (0, 1)):
            # strict >: equal lengths keep their order, as in a stable sort
            swap = s[5 * i + 3] > s[5 * j + 3]
            if swap.any():
                _swap_rows(s, 5 * i, 5 * j, 5, swap)
        # the first two columns' rows are the state of ``sl2_lagrange``
        ok = _lagrange_rows(s[:10], 3, False)
        _closest_step(s)
        fin = ~ok | (s[13] >= s[8])
        if fin.any():
            _write_bases(np.compress(fin, s, axis=1), idx[fin], out_b, out_e)
            done[idx[fin]] = ok[fin]
            keep = ~fin
            s, idx = np.compress(keep, s, axis=1), idx[keep]
    _write_bases(s, idx, out_b, out_e)
    return out_b, out_e, done


def _closest_step(s):
    """b3 <- b3 - y1 b1 - y2 b2 on the state ``s`` of ``sl3_greedy``, in
    place, for the closest vector y1 b1 + y2 b2 of L(b1, b2) to b3 among the
    three candidates of ``_reduce_exact``, with b3's squared norm and bound:
    e3 + |y| e_i plus the rounding of each float64 step, none where y = 0."""
    b1, b2, b3 = s[0:3], s[5:8], s[10:13]
    a, c = s[3], s[8]
    # + 0.0 makes a zero sum +0.0, as np.sum does (``_coord_dot`` gives
    # -0.0 when every term is -0.0); the steps' zero quotients, and with
    # them the signs of b3's zero coordinates, follow it
    ab = _coord_dot(b1, b2) + 0.0
    r1 = _coord_dot(b1, b3) + 0.0
    r2 = _coord_dot(b2, b3) + 0.0
    # round(x2), x2 the second coordinate of b3's projection
    near = np.round((a * r2 - ab * r1) / (a * c - ab * ab))
    best = np.full(a.size, np.inf)
    y1 = np.zeros(a.size)
    y2 = np.zeros(a.size)
    for t2 in (near, near - 1.0, near + 1.0):
        t1 = np.round((r1 - ab * t2) / a)
        res = b3 - t1 * b1 - t2 * b2
        nr = _coord_dot(res, res)
        take = nr < best
        np.copyto(best, nr, where=take)
        np.copyto(y1, t1, where=take)
        np.copyto(y2, t2, where=take)
    e3 = s[14]
    for y, u, uu, eu in ((y1, b1, a, s[4]), (y2, b2, c, s[9])):
        b3 -= y * u
        ay = np.abs(y)
        s[13] = _coord_dot(b3, b3)
        rnd = U * 1.01 * (ay * np.sqrt(uu) + (ay > 0) * np.sqrt(s[13]))
        e3 += ay * eu
        e3 += rnd


def _write_bases(s, at, out_b, out_e):
    """Copy the columns of the ``sl3_greedy`` state ``s`` to the samples
    ``at`` of its outputs (b, e)."""
    t = s.reshape(3, 5, -1)
    out_b[at] = t[:, :3].transpose(2, 1, 0)
    out_e[at] = t[:, 4].T


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
