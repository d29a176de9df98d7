"""Exact rational oracle for the 2D indicator Siegel count.

For a seeded subsample of a box's jittered grid cells, the program's float
pipeline (``poly_grid_fn`` -> ``sl2_reduce_batch`` -> ``siegel_batch``) is
compared with exact arithmetic: ``PolyMatrix.evaluate_exact`` at the
float sample point read as a ``Fraction``, Lagrange reduction in
``Fraction``s, and an exact count of nonzero lattice vectors of norm at
most R.  Sample points carry full 53-bit mantissas, as the workload's own
jittered points do; short-mantissa points (coarse midpoint grids) evaluate
exactly in float64 and would hide precision loss.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from boxflow import goodness, homspace

ORACLE_POINTS = 400


def sample_points(region, grid: int, n: int, seed: int, stream: int) -> np.ndarray:
    """n distinct cells of the region's grid x grid tessellation, one
    uniform point in each, seeded by (seed, stream)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream, 0x6F72]))
    cells = rng.choice(grid ** region.dim, size=n, replace=False)
    multi = np.stack(np.unravel_index(cells, (grid,) * region.dim), axis=-1)
    lows = np.array(region.lower)
    spans = np.array(region.upper) - lows
    return lows + spans * (multi + rng.random(multi.shape)) / grid


def program_counts(entry, pts: np.ndarray, f):
    """Indicator values and exclusion flags from the program's 2D kernels."""
    mats = np.empty((pts.shape[0], 2, 2))
    for i, row in enumerate(entry.matrix.entries):
        for j, e in enumerate(row):
            mats[:, i, j] = goodness.poly_grid_fn(e, entry.map_vars)(pts)
    b1, b2, lam1 = homspace.sl2_reduce_batch(mats)
    return homspace.siegel_batch(b1, b2, lam1, f)


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def exact_count(m, radius: Fraction) -> int:
    """Nonzero vectors of the column lattice of the exact 2x2 matrix ``m``
    with Euclidean norm at most ``radius``."""
    u = (m[0][0], m[1][0])
    v = (m[0][1], m[1][1])
    while True:
        if _dot(u, u) > _dot(v, v):
            u, v = v, u
        mu = math.floor(_dot(u, v) / _dot(u, u) + Fraction(1, 2))
        if mu == 0:
            break
        v = (v[0] - mu * u[0], v[1] - mu * u[1])
    a, b, c = _dot(u, u), _dot(u, v), _dot(v, v)
    r2 = radius * radius
    # |c1 u + c2 v|^2 = a c1^2 + 2 b c1 c2 + c c2^2; with ac - b^2 = 1 the
    # c1-discriminant for fixed c2 is a r2 - c2^2, so |c2| <= sqrt(a r2)
    c2_max = math.isqrt(math.floor(a * r2)) + 1
    count = 0
    for c2 in range(-c2_max, c2_max + 1):
        disc = float(a * r2 - c2 * c2)
        if disc < -1.0:
            continue
        centre = float(-b * c2 / a)
        half = math.sqrt(max(disc, 0.0)) / float(a)
        for c1 in range(math.floor(centre - half) - 1, math.ceil(centre + half) + 2):
            if (c1 or c2) and a * c1 * c1 + 2 * b * c1 * c2 + c * c2 * c2 <= r2:
                count += 1
    return count


def mismatches(entry, region, grid: int, f, seed: int, stream: int) -> dict:
    """Compare program and exact indicator counts on ``ORACLE_POINTS``
    points of one box.  Excluded (near-cusp) samples are not compared."""
    pts = sample_points(region, grid, ORACLE_POINTS, seed, stream)
    values, excluded = program_counts(entry, pts, f)
    radius = Fraction(f.radius)
    bad = 0
    for k in np.nonzero(~excluded)[0]:
        point = {v: Fraction(float(x)) for v, x in zip(entry.map_vars, pts[k])}
        exact = exact_count(entry.matrix.evaluate_exact(point), radius)
        bad += values[k] != exact
    return {
        "compared": int(np.count_nonzero(~excluded)),
        "mismatched": int(bad),
        "excluded": int(np.count_nonzero(excluded)),
    }
