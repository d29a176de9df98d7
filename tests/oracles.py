"""Reference computations that the kernel tests compare against: exact
lattice reduction, enumeration and distances, a float Fincke-Pohst enumeration, Haar
sampling, closed-orbit averages (``orbit_average``), ``greedy3``, the functional double-double operations and the
polynomial ring operations by concatenation and re-sorting.  It imports
nothing from ``boxflow``, so it shares no code with the kernel it checks."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np

def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def adjugate(cols):
    """Rows of adj(B), B the 2x2 or 3x3 matrix of columns ``cols``."""
    if len(cols) == 2:
        (u0, u1), (v0, v1) = cols
        return [(v1, -v0), (-u1, u0)]
    u, v, w = cols  # the cross products v x w, w x u, u x v
    return [tuple(x[k] * y[l] - x[l] * y[k] for k, l in ((1, 2), (2, 0), (0, 1)))
            for x, y in ((v, w), (w, u), (u, v))]


# -- exact ---------------------------------------------------------------------


def _lagrange(u, v):
    while True:
        if _dot(u, u) > _dot(v, v):
            u, v = v, u
        mu = round(_dot(u, v) / _dot(u, u))
        if mu == 0:
            return u, v
        v = tuple(y - mu * x for x, y in zip(u, v))


def exact_reduce(m):
    """Exactly reduced columns of the 2x2 or 3x3 matrix m (entries read as
    rationals), shortest first.  N = 2: Lagrange.  N = 3: greedy passes
    that Lagrange-reduce the two shortest columns and take from the third
    its closest vector in their lattice, until it is the longest."""
    cols = [tuple(Fraction(x) for x in col) for col in zip(*m)]
    if len(cols) == 2:
        return list(_lagrange(*cols))
    while True:
        cols.sort(key=lambda v: _dot(v, v))
        (b1, b2), b3 = _lagrange(cols[0], cols[1]), cols[2]
        a, b, c = _dot(b1, b1), _dot(b1, b2), _dot(b2, b2)
        r1, r2 = _dot(b1, b3), _dot(b2, b3)
        x2 = math.floor((a * r2 - b * r1) / (a * c - b * b))
        for y2 in range(x2 - 1, x2 + 3):
            y1 = round((r1 - b * y2) / a)
            w = tuple(t - y1 * p - y2 * q for t, p, q in zip(cols[2], b1, b2))
            b3 = min(b3, w, key=lambda v: _dot(v, v))
        cols = [b1, b2, b3]
        if _dot(b3, b3) >= c:
            return cols


def _norms_within(cols, r2):
    """Squared norms of the nonzero vectors B c, |B c|^2 <= r2, of the
    columns ``cols`` of B: a box enumeration, as |c_i| |det B| <= |row i
    of adj B| |B c|."""
    adj = adjugate(cols)
    det2 = _dot(adj[0], cols[0]) ** 2
    spans = [math.isqrt(math.floor(_dot(row, row) * r2 / det2)) for row in adj]
    rows = list(zip(*cols))
    norms = []
    for c in itertools.product(*(range(-s, s + 1) for s in spans)):
        vec = [_dot(c, row) for row in rows]
        if any(c) and _dot(vec, vec) <= r2:
            norms.append(_dot(vec, vec))
    return norms


def exact_norms(m, radius):
    """Exact squared norms of the nonzero vectors of norm at most
    ``radius`` in the column lattice of the 2x2 or 3x3 matrix m."""
    return _norms_within(exact_reduce(m), Fraction(radius) ** 2)


def row_count(b1, w, radius):
    """Integers c1 with |c1 b1 + w| <= radius, for rational vectors
    b1 != 0 and w, by scanning c1 over |c1| |b1| <= radius + |w|."""
    b1, w = [Fraction(x) for x in b1], [Fraction(x) for x in w]
    r2 = Fraction(radius) ** 2
    span = math.ceil((radius + math.sqrt(_dot(w, w))) / math.sqrt(_dot(b1, b1))) + 1
    vecs = ([c1 * x + y for x, y in zip(b1, w)] for c1 in range(-span, span + 1))
    return sum(1 for v in vecs if _dot(v, v) <= r2)


def diagonal_sum(d, kind, radius):
    """Exact Siegel sum over the nonzero vectors of the lattice diag(d) Z^N
    (rational d_i) of the indicator (``kind`` "indicator") or the bump
    (1 - (r/R)^2)^2 of radius R, with no enumeration along the first
    axis: each row w of the other coordinates holds the c1 with
    |c1| <= n = floor(sqrt(R^2 - |w|^2) / |d_1|), summed with the power
    sums of 1..n, which may be billions of vectors deep in the cusp."""
    d = [Fraction(x) for x in d]
    r2 = Fraction(radius) ** 2
    spans = [math.isqrt(math.floor(r2 / (x * x))) for x in d[1:]]
    total = Fraction(-1)  # the origin
    for c in itertools.product(*(range(-s, s + 1) for s in spans)):
        rest = r2 - sum((ci * x) ** 2 for ci, x in zip(c, d[1:]))
        if rest < 0:
            continue
        n = math.isqrt(math.floor(rest / (d[0] * d[0])))
        if kind == "indicator":
            total += 2 * n + 1
            continue
        # the sum of (a - q c1^2)^2 over |c1| <= n
        a, q = rest / r2, d[0] * d[0] / r2
        s2 = Fraction(n * (n + 1) * (2 * n + 1), 3)
        s4 = Fraction(n * (n + 1) * (2 * n + 1) * (3 * n * n + 3 * n - 1), 15)
        total += (2 * n + 1) * a * a - 2 * a * q * s2 + q * q * s4
    return total


def lattice_distances_sq(m, vecs):
    """Exact squared distances from the vectors ``vecs`` (read as
    rationals) to the column lattice of the d x 2 or 3 x 3 matrix m: to
    the lattice vector whose coordinates in the exactly reduced basis are
    those of the vector's projection onto its span, rounded.  That vector
    is the nearest one for any vector within a small fraction of
    lambda_1 of the lattice."""
    cols = exact_reduce(m)
    gram = [[_dot(a, b) for b in cols] for a in cols]
    adj = adjugate(gram)
    det = _dot(adj[0], gram[0])
    out = []
    for x in vecs:
        x = [Fraction(t) for t in x]
        rhs = [_dot(b, x) for b in cols]
        c = [round(_dot(row, rhs) / det) for row in adj]
        diff = [t - _dot(c, coords) for t, coords in zip(x, zip(*cols))]
        out.append(_dot(diff, diff))
    return out


def exact_shortest_sq(m):
    """Exact squared length of a shortest nonzero lattice vector."""
    cols = exact_reduce(m)
    return min(_norms_within(cols, _dot(cols[0], cols[0])))


# -- float ---------------------------------------------------------------------


def lattice_norms(basis, radius):
    """Float64 norms of the nonzero vectors of norm at most ``radius`` in
    the column lattice of ``basis`` (any basis), by Fincke-Pohst on its
    Gram-Schmidt lengths, widened by 1e-9 (the final norm decides); each
    row c_1 b_1 + w of the last level is one array."""
    b = np.asarray(basis, dtype=float)
    n = b.shape[1]
    ortho, mu = b.copy(), np.eye(n)
    for i, j in itertools.combinations(range(n), 2):
        mu[i, j] = (b[:, j] @ ortho[:, i]) / (ortho[:, i] @ ortho[:, i])
        ortho[:, j] -= mu[i, j] * ortho[:, i]
    ortho_sq = np.sum(ortho * ortho, axis=0)
    out = []

    def level(i, coeffs, w, budget):
        # coeffs = (c_{i+1}, ..., c_N) and w their vector
        shift = sum(mu[i, i + 1 + k] * c for k, c in enumerate(coeffs))
        half = math.sqrt(max(budget, 0.0) / ortho_sq[i]) + 1e-9
        lo, hi = math.ceil(-shift - half), math.floor(-shift + half)
        if i > 0:
            for c in range(lo, hi + 1):
                level(i - 1, (c,) + coeffs, c * b[:, i] + w,
                      budget - (c + shift) ** 2 * ortho_sq[i])
            return
        c1 = np.arange(lo, hi + 1, dtype=float)
        c1 = c1[(c1 != 0) | any(coeffs)]
        vecs = c1[:, None] * b[:, 0] + w
        norms = np.sqrt(np.sum(vecs * vecs, axis=1))
        out.append(norms[norms <= radius])

    level(n - 1, (), np.zeros(n), radius * radius)
    return np.concatenate(out)


def orbit_average(g0, support, kind, radius, m):
    """Average over x in [0, 1]^S of the Siegel sum of the indicator
    (``kind`` "indicator") or the bump (1 - (r/R)^2)^2 of radius R on the
    lattice M(x) Z^N, M(x) = g0 (I + sum x_s E_s) over the positions
    s = (i, j) in ``support``.  M(x) v is affine in each x_s, so along the
    first axis t = x_s0 the set {|M(x) v| <= R} is the interval between
    the roots of a t^2 + 2 b t + c = |M(x) v|^2 - R^2, where the count and
    the bump, (a t^2 + 2 b t + c)^2 / R^4, integrate exactly.  The other
    axes take the m-point midpoint rule (none on a horocycle, which is
    exact).  The vectors v fill the box |v_i| <= R max_x |row i of
    M(x)^-1|, whose maximum is at a corner of [0, 1]^S, as those rows are
    multilinear in x.

    On heis3, exact along x12, the midpoint error falls about as m^-1.5
    for the indicator, whose integrand jumps and has square-root edges
    along the other axes (relative 5.6e-3, 2.0e-3, 7.9e-4, 2.2e-4 and
    4.2e-5 at m = 8, 16, 32, 64 and 128, R = 1.5), and about as m^-3 for
    the bump (2.7e-5, 3.3e-6, 2.4e-7, 5.5e-9 and 7.3e-10)."""
    g0 = np.asarray(g0, dtype=float)
    n = g0.shape[0]

    def orbit_map(x):
        u = np.eye(n)
        for (i, j), t in zip(support, x):
            u[i, j] = t
        return g0 @ u

    corners = itertools.product((0.0, 1.0), repeat=len(support))
    reach = np.max([np.linalg.norm(np.linalg.inv(orbit_map(x)), axis=1) for x in corners],
                   axis=0)
    spans = [math.floor(radius * r) + 1 for r in reach]
    v = np.array([c for c in itertools.product(*(range(-s, s + 1) for s in spans))
                  if any(c)], dtype=float).T
    # M(x) v = g0 v + sum x_s g0 E_ij v, and g0 E_ij v = v_j g0 e_i
    q, *moves = [g0[:, i, None] * v[j] for i, j in support]
    a = np.sum(q * q, axis=0)
    mids = (np.arange(m) + 0.5) / m
    grid = np.array(list(itertools.product(mids, repeat=len(moves))))
    terms = []
    for rest in np.array_split(grid, max(1, len(grid) // m)):
        p = (g0 @ v)[None] + sum(x[:, None, None] * w for x, w in zip(rest.T, moves))
        # |M(x) v|^2 - R^2 = a (t - t0)^2 + e along t, t0 the foot of the
        # perpendicular from 0 to the line p + t q and e = |p + t0 q|^2 - R^2
        # taken from that point, free of the cancellation of b^2 - a c; a = 0
        # leaves M(x) v fixed along t (then b = 0 and t0 = 0)
        a_ = np.broadcast_to(a, p.shape[::2])
        moving = a_ > 0
        den = np.where(moving, a_, 1.0)
        t0 = -np.sum(p * q, axis=-2) / den
        foot = p + t0[:, None, :] * q
        e = np.sum(foot * foot, axis=-2) - radius * radius
        keep = e <= 0.0
        a_, e_, t0, moving = a_[keep], e[keep], t0[keep], moving[keep]
        half = np.sqrt(-e_ / den[keep])
        lo = np.where(moving, np.clip(t0 - half, 0.0, 1.0), 0.0) - t0
        hi = np.where(moving, np.clip(t0 + half, 0.0, 1.0), 1.0) - t0
        if kind == "indicator":
            terms += (hi - lo).tolist()
            continue

        def antiderivative(s):  # of (a s^2 + e)^2
            return a_ * a_ * s ** 5 / 5 + 2 * a_ * e_ * s ** 3 / 3 + e_ * e_ * s

        terms += ((antiderivative(hi) - antiderivative(lo)) / radius ** 4).tolist()
    return math.fsum(terms) / len(grid)


def siegel_sum(basis, f):
    """Siegel transform of ``f``: 1 (indicator) or (1 - (r/R)^2)^2 (bump)
    summed by ``math.fsum`` over the nonzero vectors of norm r <= R."""
    r = lattice_norms(basis, f.radius)
    terms = np.ones_like(r) if f.kind == "indicator" else (1 - (r / f.radius) ** 2) ** 2
    return math.fsum(terms.tolist())


def shortest(basis):
    """Length of a shortest nonzero vector of the column lattice."""
    b = np.asarray(basis, dtype=float)
    column = np.min(np.sqrt(np.sum(b * b, axis=0)))
    return float(np.min(lattice_norms(b, column * (1.0 + 1e-9))))


def haar_sample(n, seed):
    """n Haar-random unimodular lattices in dimension 2, as (n, 2, 2) column
    bases.  Sample i, from the stream SeedSequence([seed, i]), takes (x, y)
    by rejection from {|x| <= 1/2, y >= sqrt(3)/2} with density y^-2
    (accepted when x^2 + y^2 >= 1), then a uniform rotation."""
    out = np.empty((n, 2, 2))
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        while True:
            x = rng.random() - 0.5
            y = (math.sqrt(3) / 2) / (1.0 - rng.random())
            if x * x + y * y >= 1.0:
                break
        phi = 2.0 * math.pi * rng.random()
        c, s, sy = math.cos(phi), math.sin(phi), math.sqrt(y)
        out[i] = np.array([[c, -s], [s, c]]) @ np.array([[1 / sy, x / sy], [0, sy]])
    return out


def _dot3(x, y):
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def greedy3(g):
    """Greedy reduction of the 3x3 float64 column basis g in plain Python,
    in the operation order of ``homspace.sl3_greedy`` (sums in coordinate
    order, rounding half to even, a stable sort by length), so that its
    columns are the batch kernel's bit for bit.  Shortest column first."""
    cols = g.T.tolist()
    for _ in range(256):
        cols.sort(key=lambda w: _dot3(w, w))
        u, v, b3 = cols
        uu, vv = _dot3(u, u), _dot3(v, v)
        for _ in range(256):  # Lagrange, as lagrange_reduce
            if uu > vv:
                u, v, uu, vv = v, u, vv, uu
            mu = float(round(_dot3(u, v) / uu))
            v = [y - mu * x for x, y in zip(u, v)]
            vv = _dot3(v, v)
            if mu == 0:
                break
        a, ab, r1 = uu, _dot3(u, v), _dot3(u, b3)
        near = float(round((a * _dot3(v, b3) - ab * r1) / (a * vv - ab * ab)))
        best = math.inf
        for t2 in (near, near - 1.0, near + 1.0):
            t1 = float(round((r1 - ab * t2) / a))
            res = [z - t1 * x - t2 * y for x, y, z in zip(u, v, b3)]
            if _dot3(res, res) < best:
                best, w = _dot3(res, res), res
        cols = [u, v, w]
        if best >= vv:
            return cols
    raise AssertionError("greedy reduction did not converge")


# -- double-double ---------------------------------------------------------------
# Dekker's error-free transformations and the double-double product, sum and
# fused Lagrange step in their textbook functional form: the bit reference of
# the in-place forms in ``boxflow.doubledouble``.

_SPLITTER = 134217729.0  # 2^27 + 1


def two_sum(a, b):
    """s + e == a + b exactly, with s = fl(a + b)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a, b):
    """Renormalize when |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a, b):
    """p + e == a * b exactly, with p = fl(a * b)."""
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dd_mul_d(hi, lo, b):
    p, e = two_prod(hi, b)
    return quick_two_sum(p, e + lo * b)


def dd_sum(ahi, alo, bhi, blo):
    s, e = two_sum(ahi, bhi)
    return two_sum(s, e + (alo + blo))


def dd_add_mul(vhi, vlo, uhi, ulo, b):
    """(vhi + vlo) + b (uhi + ulo), the fused Lagrange step."""
    p, e = two_prod(uhi, b)
    s, x = two_sum(vhi, p)
    return two_sum(s, ((vlo + b * ulo) + e) + x)


# -- polynomial ring ---------------------------------------------------------------
# A polynomial is a dict {monomial: Fraction coefficient}, a monomial a tuple
# of (variable, Fraction exponent) pairs with no zero exponent, sorted by
# ``var_key`` (stably: names that tie keep their order).  Products and sums
# rebuild every monomial from scratch: the reference of the term maps and
# term order of ``boxflow.polyalg``.

_VAR_RE = re.compile(r"([A-Za-z_]+)(\d*)$")


def var_key(name):
    """a1 < a2 < ... < a10 < s < t < x < xi < y; a1 and a01 tie."""
    m = _VAR_RE.match(name)
    return (m.group(1), int(m.group(2)) if m.group(2) else -1)


def make_monomial(pairs):
    acc = {}
    for var, exp in pairs:
        e = Fraction(exp)
        if e != 0:
            acc[var] = acc.get(var, Fraction(0)) + e
    return tuple((v, acc[v]) for v in sorted(acc, key=var_key) if acc[v] != 0)


def _nonzero(terms):
    return {m: c for m, c in terms.items() if c != 0}


def poly_add(p, q):
    out = dict(p)
    for mono, coeff in q.items():
        out[mono] = out.get(mono, Fraction(0)) + coeff
    return _nonzero(out)


def poly_sub(p, q):
    return poly_add(p, {m: -c for m, c in q.items()})


def poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = make_monomial(list(m1) + list(m2))
            out[mono] = out.get(mono, Fraction(0)) + c1 * c2
    return _nonzero(out)


def poly_matmul(a, b):
    """Square matrices of polynomials; each entry summed over k in order,
    starting from the zero polynomial."""
    n = len(a)
    out = [[{} for _ in range(n)] for _ in range(n)]
    for i, j, k in itertools.product(range(n), repeat=3):
        out[i][j] = poly_add(out[i][j], poly_mul(a[i][k], b[k][j]))
    return out
