"""Measure growth of polynomial sublevel sets on boxes.

Implements the sublevel inequality |{|f| < delta}| <= C (delta/sup|f|)^a |B|
with grid-based measure estimates, a greedy bounded-multiplicity cube
covering, and the relative-size neighborhood construction used to control
trajectories near a polynomial variety.

Functions evaluated on grids follow one calling convention: ``f(points)``
takes an (m, k) array of row points and returns an (m,) array.
``GridPoly`` (``poly_grid_fn``) is the one polynomial grid evaluator, for
the fits here and the lattice kernels of ``experiment``, and
``BoxRegion.sample_points`` the one sample-point generator for both;
random points come per sample index from a counter-based hash.  On the
tensor grids of the measures here, a ``GridPoly`` is evaluated from the
grid's per-axis coordinates (``GridPoly.on_grid``), to the bits of its
values at the grid's points; any other function is called at the points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .doubledouble import U, U2, _two_prod_into, dd_mul_d_into, dd_sum_into
from .errors import DomainError
from .polyalg import GenPoly


@dataclass(frozen=True)
class BoxRegion:
    """Axis-parallel box given by finite corner vectors, lower < upper."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise DomainError("corner dimensions differ")
        if not all(l < u for l, u in zip(self.lower, self.upper)):
            raise DomainError("box needs lower < upper on every axis")
        if not all(map(math.isfinite, self.lower + self.upper)):
            raise DomainError("box corners must be finite")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def volume(self) -> float:
        vol = 1.0
        for l, u in zip(self.lower, self.upper):
            vol *= u - l
        return vol

    def contains(self, box: "BoxRegion") -> bool:
        return all(
            sl <= ol and ou <= su
            for sl, su, ol, ou in zip(self.lower, self.upper, box.lower, box.upper)
        )

    def corner_axes(self, n: int) -> list:
        """The n coordinates per axis of ``corner_grid``."""
        return [np.linspace(l, u, n) for l, u in zip(self.lower, self.upper)]

    def midpoint_axes(self, n: int) -> list:
        """The n coordinates per axis of ``midpoint_grid``, by the formula
        of ``sample_points``."""
        return [l + (u - l) * (np.arange(n) + 0.5) / n
                for l, u in zip(self.lower, self.upper)]

    def corner_grid(self, n: int) -> np.ndarray:
        """Tensor grid with n points per axis, endpoints included."""
        mesh = np.meshgrid(*self.corner_axes(n), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def midpoint_grid(self, n: int) -> np.ndarray:
        """Tensor grid of the n^k cell midpoints."""
        return self.sample_points(n, 0, n ** self.dim)

    def sample_points(self, grid: int, start: int, stop: int,
                      method: str = "grid", seed: int = 0) -> np.ndarray:
        """Sample points start, ..., stop - 1 of the box, one per row: the
        midpoints of the grid^k tensor cells in row-major order ("grid"),
        one uniform point per cell ("jitter"), or uniform points in the
        box ("mc", which ignores ``grid``).  Point i depends only on the
        box, grid, method, seed and i, never on how the range is split."""
        if method not in ("grid", "jitter", "mc"):
            raise DomainError(f"unknown sampling method {method!r}")
        idx = np.arange(start, stop)
        if method != "mc":
            if grid < 1:
                raise DomainError(f"grid must be at least 1, got {grid}")
            cells = np.unravel_index(idx, (grid,) * self.dim)
        # axis by axis: arithmetic across a length-k inner axis costs about
        # twice as much, for the same values
        cols = []
        for a, (l, u) in enumerate(zip(self.lower, self.upper)):
            offs = 0.5 if method == "grid" else _index_uniform(seed, a, idx)
            cols.append(l + (u - l) * offs if method == "mc"
                        else l + (u - l) * (cells[a] + offs) / grid)
        return np.stack(cols, axis=-1)

    def cell_volume(self, n: int) -> float:
        return self.volume / float(n) ** self.dim


class GridPoly:
    """A polynomial with nonnegative integer exponents in ``var_order``,
    compiled once for evaluation at many points.

    Calling it gives the float64 values at an (m, k) array of row points.
    The lattice kernels take the points as (k, m) coordinate rows, one
    row per variable, which the entries of a matrix share.
    ``f64`` writes the values, and the sum of the term magnitudes, into
    arrays the caller owns; ``c64`` times that sum bounds the float64
    rounding error (Higham 2002: one unit roundoff per inexact
    coefficient, product and sum, two per ``pow``, which libm rounds
    within one ulp).  ``dd`` evaluates in double-double, with error at
    most ``cdd`` times the magnitude sum (the bounds of ``doubledouble``).
    Terms run in ``p.terms()`` order with numpy's ``**``, which fixes
    every bit of the values.  ``p`` is kept for ``experiment._exact_matrix``.
    """

    def __init__(self, p: GenPoly, var_order: Sequence[str]):
        self.p, self.var_order = p, list(var_order)
        self.terms = []
        # per term of ``dd``: the coefficient, its low part, whether it is an
        # exact power of two, and the coordinate of each factor in turn
        self._chains = []
        n64 = ndd = 0
        for mono, coeff in p.terms():
            powers = dict(mono)
            exps = []
            for v in self.var_order:
                e = powers.pop(v, Fraction(0))
                if e.denominator != 1 or e < 0:
                    raise DomainError("grid evaluation needs nonnegative integer exponents")
                exps.append(int(e))
            if powers:
                raise DomainError(f"unbound variables {sorted(powers)} in grid function")
            c = float(coeff)
            # the coefficient as a double-double: c and its low part
            inexact = Fraction(c) != coeff
            c_lo = float(coeff - Fraction(c)) if inexact else 0.0
            # products val * x^e; the first is exact for a power-of-two val
            pow2 = math.frexp(abs(c))[0] == 0.5
            mults = sum(1 for e in exps if e) - pow2
            pows = sum(2 for e in exps if e > 1)
            n64 = max(n64, inexact + pows + max(mults, 0))
            ndd = max(ndd, 1 + 2 * sum(exps))
            self.terms.append((c, c_lo, exps))
            self._chains.append((c, c_lo, pow2 and not inexact,
                                 [j for j, e in enumerate(exps) for _ in range(e)]))
        n = len(self.terms)
        self.c64 = (n64 + max(n - 1, 0)) * U * 1.01
        self.cdd = (ndd + 3 * n) * U2 * 1.01

    def _term_values(self, x):
        """Each term's values (c x_0^a) x_1^b ... on coordinate arrays
        ``x[j]`` that broadcast: the rows of (k, m) points, or one axis of
        a tensor grid each.  A constant term is a 0-d array."""
        for c, _, exps in self.terms:
            val = np.array(c)
            for j, e in enumerate(exps):
                if e:
                    val = val * x[j] ** e
            yield val

    def _sum(self, x, shape) -> np.ndarray:
        out = np.zeros(shape)
        for val in self._term_values(x):
            out += val
        return out

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return self._sum(points.T, points.shape[0])

    def on_grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """The values at the tensor grid of the per-axis coordinates
        ``axes``, in its row-major order: the bits of ``self`` at the
        meshed points, from the powers of each axis alone (axis j is
        shaped to broadcast along dimension j of the grid)."""
        k = len(axes)
        x = [np.reshape(a, (-1,) + (1,) * (k - 1 - j)) for j, a in enumerate(axes)]
        return self._sum(x, [len(a) for a in axes]).ravel()

    def f64(self, x: np.ndarray, out: np.ndarray, mag: np.ndarray) -> None:
        """The values and the sums of the term magnitudes at the points
        whose coordinate rows are ``x`` (k, m), written into the caller's
        (m,) arrays ``out`` and ``mag`` (rows of a lattice kernel's state,
        say)."""
        out.fill(0.0)
        mag.fill(0.0)
        for val in self._term_values(x):
            out += val
            mag += np.abs(val, out=val)

    def dd(self, x: np.ndarray, xs, hi: np.ndarray, lo: np.ndarray) -> None:
        """The double-double values at the points whose coordinate rows
        are ``x`` (k, m), with ``xs[j]`` = split(x[j]), written into the
        caller's (m,) arrays ``hi`` and ``lo``.

        Each term c x_a x_b ... is the chain of Dekker products
        ((c x_a) x_b) ... (``dd_mul_d_into``), and the terms are summed
        (``dd_sum_into``), an entry's first written rather than added to
        zero.  When c is a power of two with no low part, c x_a is exact
        and so is the product of c x_a and x_b (``_two_prod_into``): the
        chain starts there, or at c x_a for a term of degree one.  The
        bits are those of the whole chain added to zero, barring
        underflow; that chain never makes a -0.0, which the additions of
        zero below clear."""
        th, tl, *tmp = np.empty((7, x.shape[1]))
        if not self._chains:
            hi.fill(0.0)
            lo.fill(0.0)
        for n, (c, c_lo, exact, fac) in enumerate(self._chains):
            h, l = (hi, lo) if n == 0 else (th, tl)
            if exact and len(fac) > 1:
                a, b, *fac = fac
                np.multiply(x[a], c, out=tmp[0])
                _two_prod_into(tmp[0], x[b], xs[b], h, l, tmp[1:])
                np.add(h, l, out=h)  # the product, or +0.0 for -0.0
            elif exact and fac:
                np.multiply(x[fac[0]], c, out=h)
                np.add(h, 0.0, out=h)
                l.fill(0.0)
                fac = ()
            else:
                h.fill(c)
                l.fill(c_lo)
            for j in fac:
                dd_mul_d_into(h, l, x[j], xs[j], (h, l), tmp)
            if n:
                dd_sum_into(hi, lo, th, tl, tmp)


def poly_grid_fn(p: GenPoly, var_order: Sequence[str]) -> GridPoly:
    """Vectorized evaluator for a polynomial with integer exponents."""
    return GridPoly(p, var_order)


_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer; wrapping uint64 arithmetic throughout."""
    with np.errstate(over="ignore"):
        z = x + _SPLITMIX_GAMMA
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _index_uniform(seed: int, axis: int, idx: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) draw per sample index from a stable integer hash of
    (seed, axis, index); independent of chunking and worker count."""
    base = _splitmix64(
        np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ (np.uint64(axis) << np.uint64(32))
    )
    bits = _splitmix64(idx.astype(np.uint64) ^ base)
    return (bits >> np.uint64(11)) * 2.0 ** -53


def _grid_values(f: Callable, box: BoxRegion, grid: int, corners: bool) -> np.ndarray:
    """f on the box's ``corner_grid`` (``corners``) or ``midpoint_grid``
    of grid^k points: a ``GridPoly`` from the grid's per-axis coordinates
    (``GridPoly.on_grid``, the same bits), any other callable at the
    points."""
    if isinstance(f, GridPoly):
        return f.on_grid(box.corner_axes(grid) if corners else box.midpoint_axes(grid))
    return f(box.corner_grid(grid) if corners else box.midpoint_grid(grid))


def sup_norm(f: Callable, box: BoxRegion, grid: int) -> float:
    """Max |f| over the corner-inclusive tensor grid (a lower bound on the
    true sup)."""
    if grid < 2:
        raise DomainError("need at least 2 grid points per axis")
    return float(np.max(np.abs(_grid_values(f, box, grid, True))))


def sublevel_measure(f: Callable, box: BoxRegion, delta: float, grid: int) -> float:
    """Midpoint tensor-grid estimate of |{x in B : |f(x)| < delta}|."""
    if grid < 1:
        raise DomainError("need at least 1 grid point per axis")
    vals = np.abs(_grid_values(f, box, grid, False))
    return float(np.count_nonzero(vals < delta)) * box.cell_volume(grid)


def sublevel_measure_mc(
    f: Callable, box: BoxRegion, delta: float, samples: int, seed: int
) -> float:
    """Monte Carlo alternative with a 99% Clopper-Pearson upper pad, so the
    estimate errs on the safe side of the inequality.  Sample i is drawn
    from (seed, i) alone."""
    from scipy.stats import beta

    if samples < 1:
        raise DomainError("need at least one Monte Carlo sample")
    pts = box.sample_points(1, 0, samples, "mc", seed)
    hits = int(np.count_nonzero(np.abs(f(pts)) < delta))
    if hits == samples:
        upper = 1.0
    else:
        upper = float(beta.ppf(0.995, hits + 1, samples - hits))
    return upper * box.volume


@dataclass(frozen=True)
class GoodCheck:
    holds: bool
    lhs: float
    rhs: float
    slack: float


def _check_alpha(alpha) -> None:
    # for alpha <= 0 the bound (delta / sup|f|)^alpha does not shrink with delta
    if not alpha > 0:
        raise DomainError("alpha must be positive")


def good_inequality_check(
    f: Callable,
    box: BoxRegion,
    delta: float,
    c: float,
    alpha,
    grid: int,
    mc_samples: Optional[int] = None,
    seed: int = 0,
) -> GoodCheck:
    """Test |{|f| < delta}| <= C (delta / sup|f|)^alpha |B| on a grid.

    The right-hand side gets the documented grid slack 2k/grid to absorb
    cell-boundary effects of the midpoint estimate.
    """
    if not 0 < delta < math.inf:
        raise DomainError("delta must be positive and finite")
    if not 1 <= c < math.inf:
        raise DomainError("C must be at least 1 and finite")
    _check_alpha(alpha)
    fnorm = sup_norm(f, box, grid)
    if fnorm == 0:
        raise DomainError("sup norm vanishes; inequality is vacuous")
    if mc_samples is not None:
        lhs = sublevel_measure_mc(f, box, delta, mc_samples, seed)
    else:
        lhs = sublevel_measure(f, box, delta, grid)
    rhs = c * (delta / fnorm) ** float(alpha) * box.volume
    slack = 2.0 * box.dim / grid
    return GoodCheck(holds=lhs <= rhs * (1.0 + slack), lhs=lhs, rhs=rhs, slack=slack)


def fit_min_c(
    f: Callable, box: BoxRegion, alpha, delta_grid: Sequence[float], grid: int
) -> float:
    """Empirical minimal constant: max over the delta grid of
    lhs / ((delta/sup|f|)^alpha |B|).

    The function values are evaluated once; sublevel counts for all deltas
    come from a sorted search, identical to per-delta midpoint estimates.
    """
    _check_alpha(alpha)
    if len(delta_grid) == 0:
        raise DomainError("need a nonempty delta grid")
    fnorm = sup_norm(f, box, grid)
    if fnorm == 0:
        raise DomainError("sup norm vanishes")
    vals = np.sort(np.abs(_grid_values(f, box, grid, False)))
    cell = box.cell_volume(grid)
    deltas = np.asarray(delta_grid, dtype=float)
    lhs = np.searchsorted(vals, deltas, side="left") * cell
    ratios = lhs / ((deltas / fnorm) ** float(alpha) * box.volume)
    return float(np.max(ratios))


def transfer_delta_grid(alpha, slack: float) -> np.ndarray:
    """Log-spaced relative deltas from 0.005 to 0.9, dense enough that the
    sublevel ratio can drift at most by the grid slack between neighbors:
    spacing r satisfies r^alpha <= 1 + slack."""
    _check_alpha(alpha)
    lo, hi = 0.005, 0.9
    r = (1.0 + slack) ** (1.0 / float(alpha))
    n = max(2, int(math.ceil(math.log(hi / lo) / math.log(r))) + 1)
    return np.geomspace(lo, hi, n)


# ---------------------------------------------------------------------------
# bounded-multiplicity cube covering
# ---------------------------------------------------------------------------


_PROBE_GRID = 12  # multiplicity probes per axis of a cover's bounding box


@dataclass(frozen=True)
class CubeCover:
    centers: np.ndarray         # (m, k) selected cube centers
    halfwidths: np.ndarray      # (m,) selected half-widths
    covered: bool               # every input point lies in a selected cube
    max_multiplicity: int       # measured on the probe grid and inputs
    multiplicity_histogram: dict
    configured_bound: int

    @property
    def within_bound(self) -> bool:
        return self.max_multiplicity <= self.configured_bound


def besicovitch_select(
    centers: Sequence[Sequence[float]],
    halfwidths: Sequence[float],
    bound: Optional[int] = None,
) -> CubeCover:
    """Greedy covering: scan cubes by decreasing half-width (ties in input
    order) and keep one only if its center is not yet covered.

    Every input point ends up covered - skipped centers lie in an already
    selected cube.  Multiplicity is measured on a probe grid
    (``_PROBE_GRID`` points per axis) over the bounding box plus all input
    centers, against the configured bound (default 2^k + 1).
    """
    pts = np.atleast_2d(np.asarray(centers, dtype=float))
    hws = np.asarray(halfwidths, dtype=float)
    if pts.size == 0:
        raise DomainError("need at least one cube")
    if hws.shape != pts.shape[:1]:
        raise DomainError("one half-width per center is required")
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(hws))):
        raise DomainError("centers and half-widths must be finite")
    if np.any(hws <= 0):
        raise DomainError("half-widths must be positive")
    if bound is not None and bound < 1:
        raise DomainError("the multiplicity bound must be at least 1")
    k = pts.shape[1]
    if bound is None:
        bound = 2 ** k + 1

    # ``covered`` marks the centers inside a cube kept so far (closed
    # cubes); a cube is kept when its center is not marked on its turn
    order = np.lexsort((np.arange(len(hws)), -hws))
    covered = np.zeros(len(hws), dtype=bool)
    sel_idx = []
    for j in order.tolist():
        if not covered[j]:
            sel_idx.append(j)
            covered |= (np.abs(pts - pts[j]) <= hws[j]).all(axis=1)
    sel_centers = pts[sel_idx]
    sel_hws = hws[sel_idx]

    # multiplicity at the probe grid over the bounding box and at the
    # inputs.  |x - c|_inf <= h is an AND of per-axis (coordinate, selected)
    # tables; a grid probe takes its rows from the k axis tables, so the
    # grid's hits are their outer AND
    def axis_hits(coords, d):
        return np.abs(coords[:, None] - sel_centers[:, d]) <= sel_hws

    lo = np.min(pts - hws[:, None], axis=0)
    hi = np.max(pts + hws[:, None], axis=0)
    m = len(sel_idx)
    grid_hit = np.ones((1,) * k + (m,), dtype=bool)
    pts_hit = np.ones((len(pts), m), dtype=bool)
    for d in range(k):
        shape = [1] * k + [m]
        shape[d] = _PROBE_GRID
        coords = np.linspace(lo[d], hi[d], _PROBE_GRID)
        grid_hit = grid_hit & axis_hits(coords, d).reshape(shape)
        pts_hit &= axis_hits(pts[:, d], d)
    mult = np.concatenate([
        np.count_nonzero(grid_hit, axis=-1).ravel(),
        np.count_nonzero(pts_hit, axis=1),
    ])
    hist_vals, hist_counts = np.unique(mult, return_counts=True)
    return CubeCover(
        centers=sel_centers,
        halfwidths=sel_hws,
        covered=bool(np.all(covered)),
        max_multiplicity=int(np.max(mult)),
        multiplicity_histogram={int(v): int(c) for v, c in zip(hist_vals, hist_counts)},
        configured_bound=bound,
    )


# ---------------------------------------------------------------------------
# relative-size neighborhoods of a polynomial variety
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionSpec:
    """Neighborhood {v : |v| < (r + beta) * norm_scale,
    |P(v)| < beta * poly_scale} of the variety {P = 0}."""

    norm_scale: float
    poly_scale: float


@dataclass(frozen=True)
class NeighborhoodSpec:
    delta: float
    d_radius: float
    r: float
    alpha: float
    variety: GenPoly
    variety_vars: tuple
    phi: RegionSpec
    psi: RegionSpec


def relative_size_neighborhoods(
    variety: GenPoly,
    variety_vars: Sequence[str],
    r: float,
    eps: float,
    k: int,
    l: int,
    c: float,
    n_cover: int,
    alpha=None,
) -> NeighborhoodSpec:
    """Construct delta = (eps / (c * N))^(1/alpha), the dilated radius
    r/sqrt(delta), and the nested neighborhood pair (Psi inside Phi).

    alpha defaults to 1/(2*m*l*k) with m the degree bound of the variety
    polynomial; an explicit alpha overrides it (the degenerate limiting
    cases exercise values the default formula cannot reach).
    """
    if not 0 < eps < 1:
        raise DomainError("eps must lie strictly between 0 and 1")
    if r <= 0 or c <= 0 or n_cover < 1:
        raise DomainError("r, c must be positive and the cover bound >= 1")
    if alpha is None:
        m = int(max([0, *map(variety.degree_in, variety_vars)]))
        if m == 0:
            raise DomainError("variety polynomial must be nonconstant")
        alpha = Fraction(1, 2 * m * l * k)
    _check_alpha(alpha)
    a = float(alpha)
    delta = (eps / (c * n_cover)) ** (1.0 / a)
    return NeighborhoodSpec(
        delta=delta,
        d_radius=r / math.sqrt(delta),
        r=r,
        alpha=a,
        variety=variety,
        variety_vars=tuple(variety_vars),
        phi=RegionSpec(norm_scale=1.0 / math.sqrt(delta), poly_scale=1.0),
        psi=RegionSpec(norm_scale=1.0, poly_scale=delta),
    )


class RelSizeStatus(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    VACUOUS = "vacuous"


@dataclass(frozen=True)
class RelSizeCheck:
    status: RelSizeStatus
    lhs: float
    rhs: float
    eps: float


def orbit_vector_fn(theta_map, map_vars: Sequence[str], v0: Sequence[float]) -> Callable:
    """Vectorized x -> theta(x) v0 for a polynomial matrix."""
    entry_fns = [
        [poly_grid_fn(e, map_vars) for e in row] for row in theta_map.entries
    ]
    v0 = np.asarray(v0, dtype=float)

    def fn(points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros((points.shape[0], len(entry_fns)))
        for i, row in enumerate(entry_fns):
            for j, entry in enumerate(row):
                if v0[j] != 0:
                    out[:, i] += entry(points) * v0[j]
        return out

    return fn


def relative_size_check(
    theta_map,
    map_vars: Sequence[str],
    v0: Sequence[float],
    box: BoxRegion,
    spec: NeighborhoodSpec,
    beta: float,
    eps: float,
    grid: int,
) -> RelSizeCheck:
    """Grid comparison
    |{x : theta(x) v0 in Psi}| <= eps * |{x : theta(x) v0 in Phi}|.

    If no grid point leaves Phi the hypothesis fails and the verdict is
    VACUOUS, not a pass.
    """
    pts = box.midpoint_grid(grid)
    vecs = orbit_vector_fn(theta_map, map_vars, v0)(pts)
    norms = np.linalg.norm(vecs, axis=1)
    pvals = np.abs(poly_grid_fn(spec.variety, spec.variety_vars)(vecs))
    in_phi, in_psi = ((norms < (spec.r + beta) * region.norm_scale)
                      & (pvals < beta * region.poly_scale)
                      for region in (spec.phi, spec.psi))
    if bool(np.all(in_phi)):
        return RelSizeCheck(RelSizeStatus.VACUOUS, float("nan"), float("nan"), eps)
    cell = box.cell_volume(grid)
    lhs = float(np.count_nonzero(in_psi)) * cell
    rhs = eps * float(np.count_nonzero(in_phi)) * cell
    status = RelSizeStatus.HOLDS if lhs <= rhs else RelSizeStatus.FAILS
    return RelSizeCheck(status, lhs, rhs, eps)
