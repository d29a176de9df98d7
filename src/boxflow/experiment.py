"""Numerical sweeps: Birkhoff averages of lattice observables over
expanding boxes and subboxes, nondivergence fractions, and the
two-variable box-exponent experiments.

Averages use deterministic midpoint tensor grids (the statements being
checked are Riemann integrals); a seeded Monte Carlo mode with per-index
streams is available for high dimension.  Work is partitioned into
fixed-size chunks evaluated independently per sample, so results are
bit-identical for any worker count.

One kernel serves both lattice dimensions, in two stages per chunk.
``certified_reduce`` evaluates the matrix entries once
(``goodness.GridPoly``, whose term magnitudes give each entry's rounding
bound) and reduces each sample's lattice once, certified: every basis
is within ``homspace.PREC_TOL`` of an exact reduced basis.  That is
float64, double-double (dimension 2 only) or exact rational arithmetic,
whichever is the cheapest whose error bound meets the tolerance.
``certified_observables`` then derives the shortest length and every
observable from those bases.
"""

from __future__ import annotations

import contextlib
import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .catalog import MapEntry
from .doubledouble import U
from .errors import CuspExcursionError, DomainError, PrecisionError
from .flowlimit import twodim_flow, twodim_residual
from .goodness import BoxRegion, GridPoly
from .homspace import (
    PREC_TOL,
    TestFunction,
    haar_expectation,
    reduce_exact,
    siegel_count_exact,
    siegel_sums,
    sl2_lagrange,
    sl3_greedy,
)

_CHUNK = 1 << 14
# the 3D kernel's temporaries take about 0.8 kB per sample, so its chunks
# are smaller and a sweep's memory stays near that of the imports
_CHUNK3 = 1 << 10
_EXCLUSION_BUDGET = 1e-3


def _check_grid(grid: int) -> None:
    if grid < 8:
        raise DomainError("need at least 8 grid points per axis")


def _side(T, l) -> float:
    """The box side T^l in float64, which must not overflow."""
    try:
        return float(T) ** float(l)
    except OverflowError:
        raise DomainError(f"box side {float(T):g}^{float(l):g} overflows") from None


@dataclass(frozen=True)
class BoxSpec:
    """Box family member: realized region {(a_1 T^l1, ..., a_k T^lk)} for
    a in the subbox J of the unit cube (J = None means the full cube)."""

    lam: tuple
    T: float
    grid: int
    J: Optional[BoxRegion] = None

    def __post_init__(self):
        _check_grid(self.grid)
        if not 0 < self.T < math.inf:
            raise DomainError("box parameter must be positive and finite")
        if self.J is not None:
            k = len(self.lam)
            unit = BoxRegion((0.0,) * k, (1.0,) * k)
            if self.J.dim != k or not unit.contains(self.J):
                raise DomainError("J must be a subbox of the unit cube")

    @property
    def k(self) -> int:
        return len(self.lam)

    def realized_region(self) -> BoxRegion:
        # J = None is the unit cube, whose corners scale exactly
        J = self.J or BoxRegion((0.0,) * self.k, (1.0,) * self.k)
        scales = [_side(self.T, l) for l in self.lam]
        return BoxRegion(tuple(j * s for j, s in zip(J.lower, scales)),
                         tuple(j * s for j, s in zip(J.upper, scales)))


# ---------------------------------------------------------------------------
# chunked grid evaluation
# ---------------------------------------------------------------------------


def _entries_f64(tables, pts: np.ndarray):
    """Float64 entries g of the matrix whose entry tables (``GridPoly``)
    are ``tables``, at the points ``pts``; their term-magnitude sums; and
    per column the sum of the entries' rounding bounds ``c64 * mag``."""
    m, n = pts.shape[0], len(tables)
    g = np.empty((m, n, n))
    mag = np.empty((m, n, n))
    err = np.zeros((m, n))
    for i, row in enumerate(tables):
        for j, table in enumerate(row):
            g[:, i, j], mag[:, i, j] = table.f64(pts)
            err[:, j] += table.c64 * mag[:, i, j]
    return g, mag, err


def certified_reduce(matrix, map_vars, pts: np.ndarray,
                     limit: float = math.inf):
    """Reduced bases of the lattices g(pt) Z^N, N = 2 or 3, each column
    within ``PREC_TOL`` of the exact basis that the same integer steps
    make from g at the float64 point pt, read as an exact dyadic rational.

    In dimension 2 each sample takes the cheapest tier whose a-priori
    bound, from the entry magnitudes, is below the tolerance: float64,
    then double-double; in dimension 3 it takes float64.  The bound
    carried through the reduction then certifies it or passes it on.
    Samples no tier certifies are evaluated and reduced in exact
    rationals; more than ``limit`` of them raise ``PrecisionError``.
    Returns the bases (m, N, N), shortest column first, their column
    bounds (m, N) and the number of exact samples.
    """
    tables = [[GridPoly(p, map_vars) for p in row] for row in matrix.entries]
    m = pts.shape[0]
    g, mag, err = _entries_f64(tables, pts)
    if matrix.dim == 3:
        b, e, done = sl3_greedy(g, err)
        e[~done] = np.inf
    else:
        cdd = np.array([[t.cdd for t in row] for row in tables])
        # the reduced basis is B = g U with U = adj(g) B, so its column j
        # carries the column errors of g times |U_ij| <= |row i of adj(g)| |b_j|;
        # the routing takes |b_j| to be about 1
        amp = np.stack(
            [np.hypot(g[:, 1, 1], g[:, 0, 1]), np.hypot(g[:, 1, 0], g[:, 0, 0])],
            axis=1,
        )
        edd = mag[:, 0, :] * cdd[0] + mag[:, 1, :] * cdd[1]
        b = np.empty((m, 2, 2))
        e = np.full((m, 2), np.inf)  # inf: not certified (yet)

        def accept(idx, reduced):
            u, v, eu, ev, done = reduced
            ok = done & (np.maximum(eu, ev) <= PREC_TOL)
            b[idx, :, 0], b[idx, :, 1] = u, v
            e[idx, 0], e[idx, 1] = np.where(ok, eu, np.inf), ev

        # column by column: np.sum over the short inner axis costs ten times
        # more, for the same left-to-right sum
        idx = np.nonzero(functools.reduce(np.add, (err * amp).T) <= PREC_TOL)[0]
        if idx.size:
            accept(idx, sl2_lagrange(g[idx, :, 0], g[idx, :, 1],
                                     err[idx, 0], err[idx, 1]))
        idx = np.nonzero(np.isinf(e[:, 0])
                         & (functools.reduce(np.add, (edd * amp).T) <= PREC_TOL))[0]
        if idx.size:
            hi = np.empty((idx.size, 2, 2))
            lo = np.empty((idx.size, 2, 2))
            for i in range(2):
                for j in range(2):
                    hi[:, i, j], lo[:, i, j] = tables[i][j].dd(pts[idx])
            accept(idx, sl2_lagrange(hi[:, :, 0], hi[:, :, 1], edd[idx, 0],
                                     edd[idx, 1], lo[:, :, 0], lo[:, :, 1]))
    # column by column: np.max over e's short inner axis costs 50 times more
    late = np.nonzero(~(functools.reduce(np.maximum, e.T) <= PREC_TOL))[0]
    if late.size > limit:
        tiers = "float64 and double-double" if matrix.dim == 2 else "float64"
        raise PrecisionError(
            f"{late.size}/{m} samples of a chunk are beyond {tiers} "
            f"certification (budget {limit:g} per box)",
            flagged=int(late.size), total=m,
        )
    for k in late:
        b[k] = reduce_exact(_exact_matrix(matrix, map_vars, pts[k]))
        e[k] = U * np.sqrt(np.sum(b[k] * b[k], axis=0))
    return b, e, int(late.size)


def certified_observables(b: np.ndarray, e: np.ndarray, fs, exact):
    """Shortest lengths, Siegel observables (one row per test function in
    ``fs``) and cusp-exclusion flags of the bases ``b`` with column bounds
    ``e`` that ``certified_reduce`` returns, in closed form
    (``siegel_sums``).  The indicator counts the bases leave in doubt are
    recounted from ``exact(k)``, the matrix of rationals of sample k, so
    every count is the exact lattice's."""
    lam1 = np.sqrt(functools.reduce(np.add, (b[:, :, 0] * b[:, :, 0]).T))
    values, excluded, ties = siegel_sums(b, e, lam1, fs)
    for i, k in zip(*np.nonzero(ties)):
        values[i, k] = siegel_count_exact(exact(k), fs[i].radius)
    return lam1, values, excluded


def _exact_matrix(matrix, map_vars, pt):
    """The matrix at the float64 point pt, read as an exact dyadic rational,
    in exact arithmetic."""
    return matrix.evaluate_exact({v: Fraction(float(x)) for v, x in zip(map_vars, pt)})


def _eval_chunk(args):
    """Shortest-vector lengths, observable values (one row per test
    function), cusp-exclusion flags and the number of exactly reduced
    samples of one chunk, all from a single certified reduction per
    sample (``certified_reduce``, then ``certified_observables``)."""
    (matrix, map_vars, region, grid, fs, start, stop, method, seed, limit) = args
    pts = region.sample_points(grid, start, stop, method, seed)
    b, e, n_exact = certified_reduce(matrix, map_vars, pts, limit)
    lam1, values, excluded = certified_observables(
        b, e, fs, lambda k: _exact_matrix(matrix, map_vars, pts[k])
    )
    return lam1, values, excluded, n_exact


def _pool(workers: int):
    """One process pool (a context manager) for all the boxes of an
    operation, none for one worker; its processes start on first use."""
    return ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext()


def _observable_values(
    matrix,
    map_vars,
    region: BoxRegion,
    grid: int,
    fs: Sequence[TestFunction],
    pool: Optional[ProcessPoolExecutor] = None,
    method: str = "grid",
    seed: int = 0,
):
    """(lam1, values, excluded) over the box's samples: shortest-vector
    lengths, one row of observable values per test function in ``fs``, and
    the cusp-exclusion flags.  The chunks run in ``pool`` (``_pool``) when
    there is one and more than one chunk."""
    if matrix.dim not in (2, 3):
        raise DomainError(
            f"lattice observables need 2x2 or 3x3 matrices, not {matrix.dim}x{matrix.dim}")
    if region.dim != len(map_vars):
        raise DomainError(
            f"a {region.dim}-dimensional box for {len(map_vars)} map variables")
    total = grid ** region.dim
    limit = _EXCLUSION_BUDGET * total
    size = _CHUNK if matrix.dim == 2 else _CHUNK3
    bounds = list(range(0, total, size)) + [total]
    tasks = [
        (matrix, map_vars, region, grid, tuple(fs), lo, hi, method, seed, limit)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    lam1 = np.empty(total)
    values = np.empty((len(fs), total))
    excluded = np.empty(total, dtype=bool)
    if pool is None or len(tasks) == 1:
        results = map(_eval_chunk, tasks)
    else:
        results = pool.map(_eval_chunk, tasks)
    flagged = 0
    for task, (lam, vals, excl, n_exact) in zip(tasks, results):
        lo, hi = task[5], task[6]
        lam1[lo:hi] = lam
        values[:, lo:hi] = vals
        excluded[lo:hi] = excl
        flagged += n_exact
    if flagged > limit:
        raise PrecisionError(
            f"{flagged}/{total} samples are beyond floating-point "
            f"certification",
            flagged=flagged, total=total,
        )
    return lam1, values, excluded


def _average(values: np.ndarray, excluded: np.ndarray):
    """(average over the samples kept, number cusp-excluded, bound on what
    the excluded samples can move the average)."""
    total = values.shape[0]
    n_excl = int(np.count_nonzero(excluded))
    if n_excl > _EXCLUSION_BUDGET * total:
        raise CuspExcursionError(
            f"cusp guard tripped on {n_excl}/{total} samples",
            excluded=n_excl,
            total=total,
        )
    kept = values[~excluded]
    avg = math.fsum(kept.tolist()) / kept.shape[0]
    bound = 0.0
    if n_excl:
        bound = n_excl / total * float(np.max(kept))
    return avg, n_excl, bound


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def birkhoff_average(entry: MapEntry, box: BoxSpec, f: TestFunction,
                     workers: int = 1, method: str = "grid",
                     seed: int = 0) -> float:
    """Midpoint grid average of the observable over the realized box."""
    with _pool(workers) as pool:
        _, values, excluded = _observable_values(
            entry.matrix, entry.map_vars, box.realized_region(), box.grid, (f,),
            pool=pool, method=method, seed=seed,
        )
    return _average(values[0], excluded)[0]


def subbox_average(entry: MapEntry, lam, T: float, J: Optional[BoxRegion],
                   f: TestFunction, grid: int, workers: int = 1) -> float:
    """Average over the alpha-grid in J of the observable along the
    rescaled map; midpoints map to midpoints of the realized box, so this
    is ``birkhoff_average`` over the box with subbox J."""
    box = BoxSpec(lam=tuple(Fraction(v) for v in lam), T=T, grid=grid, J=J)
    return birkhoff_average(entry, box, f, workers=workers)


def _nondiv(lam1: np.ndarray, eps0_list: Sequence[float]) -> tuple:
    total = lam1.shape[0]
    return tuple(
        (float(e), float(np.count_nonzero(lam1 >= e)) / total) for e in eps0_list
    )


def nondivergence_fraction(entry: MapEntry, box: BoxSpec,
                           eps0_list: Sequence[float],
                           workers: int = 1) -> dict:
    """Fraction of grid samples whose lattice stays eps0-deep in the
    compact part, per eps0."""
    with _pool(workers) as pool:
        lam1, _, _ = _observable_values(
            entry.matrix, entry.map_vars, box.realized_region(), box.grid, (),
            pool=pool,
        )
    return dict(_nondiv(lam1, eps0_list))


def periodic_reference(entry: MapEntry, f: TestFunction) -> float:
    """Per-period average of the observable over the closed orbit, by
    midpoint tensor quadrature of the orbit map (one axis per orbit
    parameter)."""
    if not entry.closed_orbit or entry.orbit_map is None:
        raise DomainError(f"{entry.name} is not a closed-orbit entry")
    k = len(entry.orbit_vars)
    region = BoxRegion((0.0,) * k, (float(entry.period),) * k)
    _, values, excluded = _observable_values(
        entry.orbit_map, entry.orbit_vars, region, 4096 if k == 1 else 24, (f,)
    )
    return _average(values[0], excluded)[0]


@dataclass(frozen=True)
class ResultRow:
    T: float
    observable: str
    average: float
    reference: float
    gap: float
    rel_gap: float
    samples: int
    excluded: int
    error_bound: float
    nondiv: tuple
    seed: int


@dataclass(frozen=True)
class ExperimentResult:
    map_name: str
    rows: tuple
    diagnostics: tuple = ()

    def csv_text(self) -> str:
        eps_cols = []
        if self.rows and self.rows[0].nondiv:
            eps_cols = [e for e, _ in self.rows[0].nondiv]
        header = (
            ["T", "observable", "average", "reference", "gap", "rel_gap",
             "samples", "excluded", "error_bound"]
            + [f"nondiv_eps{_fmt(e)}" for e in eps_cols]
            + ["seed"]
        )
        lines = [",".join(header)]
        for r in self.rows:
            cells = [
                _fmt(r.T), r.observable, _fmt(r.average), _fmt(r.reference),
                _fmt(r.gap), _fmt(r.rel_gap), str(r.samples), str(r.excluded),
                _fmt(r.error_bound),
            ]
            cells += [_fmt(frac) for _, frac in r.nondiv]
            cells.append(str(r.seed))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def plot_text(self) -> str:
        lines = ["T,observable,rel_gap"]
        for r in self.rows:
            lines.append(f"{_fmt(r.T)},{r.observable},{_fmt(r.rel_gap)}")
        return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    """17 significant digits: parses back to the exact double."""
    return f"{float(x):.17g}"


def _sweep(entry: MapEntry, name: str, params: Sequence[float], box_of,
           f_list: Sequence[TestFunction], grid: int,
           eps0_list: Sequence[float], seed: int, workers: int,
           method: str) -> ExperimentResult:
    """One result row per box parameter T in ``params`` and observable:
    the average over the box ``box_of(T)`` against the reference, with the
    nondivergence fractions of the same samples.  The reference is the
    one-period orbit average for closed-orbit entries (the limit lives on
    the closed orbit, not the full space), the Haar integral otherwise.
    ``name`` names the parameters in the messages of the checks."""
    _check_grid(grid)
    params = [float(T) for T in params]
    if any(b >= a for a, b in zip(params[1:], params[:-1])):
        raise DomainError(f"{name} must increase")
    if not all(0 < T < math.inf for T in params):
        raise DomainError(f"{name} must be positive and finite")
    regions = [box_of(T) for T in params]
    refs = [periodic_reference(entry, f) if entry.closed_orbit
            else haar_expectation(f, entry.dim) for f in f_list]
    rows = []
    with _pool(workers) as pool:
        for T, region in zip(params, regions):
            lam1, values, excluded = _observable_values(
                entry.matrix, entry.map_vars, region, grid, f_list,
                pool=pool, method=method, seed=seed,
            )
            nondiv = _nondiv(lam1, eps0_list)
            averages = [_average(vals, excluded) for vals in values]
            del lam1, values, excluded  # one box's samples in memory at a time
            for f, ref, (average, n_excl, bound) in zip(f_list, refs, averages):
                gap = average - ref
                rows.append(
                    ResultRow(
                        T=T,
                        observable=f.name,
                        average=average,
                        reference=ref,
                        gap=gap,
                        rel_gap=abs(gap) / abs(ref) if ref else float("inf"),
                        samples=grid ** region.dim,
                        excluded=n_excl,
                        error_bound=bound,
                        nondiv=nondiv,
                        seed=seed,
                    )
                )
    return ExperimentResult(map_name=entry.name, rows=tuple(rows))


def convergence_sweep(
    entry: MapEntry,
    lam,
    T_list: Sequence[float],
    f_list: Sequence[TestFunction],
    J: Optional[BoxRegion] = None,
    grid: int = 200,
    eps0_list: Sequence[float] = (0.1, 0.05),
    seed: int = 0,
    workers: int = 1,
    method: str = "grid",
) -> ExperimentResult:
    """Subbox averages against the reference measure along increasing T."""
    lam = tuple(Fraction(v) for v in lam)
    return _sweep(
        entry, "box parameter", T_list,
        lambda T: BoxSpec(lam=lam, T=T, grid=grid, J=J).realized_region(),
        f_list, grid, eps0_list, seed, workers, method,
    )


def twodim_bcondition_sweep(
    entry: MapEntry,
    b,
    T2_list: Sequence[float],
    f_list: Sequence[TestFunction],
    grid: int = 200,
    eps0_list: Sequence[float] = (0.1, 0.05),
    seed: int = 0,
    workers: int = 1,
    method: str = "grid",
) -> ExperimentResult:
    """Averages over boxes [0, 1.01 T2^b] x [0, T2] for increasing T2.

    The 1.01 factor keeps the strict box-exponent inequality robust under
    rounding.  Alongside each row, the flow residual is sampled inside the
    compliant region {y < (x / 2)^(1/p)} as a diagnostic.
    """
    if entry.k != 2:
        raise DomainError("the box-exponent sweep needs a two-variable map")
    b = Fraction(b)
    flow = twodim_flow(entry.matrix, *entry.map_vars)
    if b <= flow.p:
        raise DomainError(
            f"box exponent {b} must exceed the derivative y-degree {flow.p}"
        )

    def box_of(T2):
        return BoxRegion((0.0, 0.0), (1.01 * _side(T2, b), T2))

    result = _sweep(entry, "T2 values", T2_list, box_of, f_list, grid,
                    eps0_list, seed, workers, method)
    diagnostics = []
    for T2 in map(float, T2_list):
        for frac_x in (0.5, 0.9):
            x = frac_x * box_of(T2).upper[0]
            if flow.p > 0:
                y_cap = 0.5 ** (1.0 / flow.p) * x ** (1.0 / flow.p)
            else:
                y_cap = T2
            y = min(0.9 * y_cap, 0.9 * T2)
            if y <= 0:
                continue
            res = twodim_residual(entry.matrix, flow, s=1.0, x=x, y=y)
            diagnostics.append((T2, x, y, res))
    return replace(result, diagnostics=tuple(diagnostics))
