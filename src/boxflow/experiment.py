"""Numerical sweeps, the only way to measure a box: ``convergence_sweep``
over expanding boxes and their subboxes, and ``twodim_bcondition_sweep``
over the two-variable box-exponent boxes.  Each gives, per box and lattice
observable, the Birkhoff average, the reference, their gap and the
nondivergence fractions of the same samples.

Averages use deterministic midpoint tensor grids (the statements being
checked are Riemann integrals); a seeded Monte Carlo mode with per-index
streams is available for high dimension.  A sweep's samples form one
sequence, box after box, cut into fixed-size chunks that may span boxes;
each sample is evaluated on its own, so results are bit-identical for
any worker count and chunk size.

One kernel serves both lattice dimensions, in two stages per chunk.
``certified_reduce`` evaluates the matrix entries once
(``goodness.GridPoly``, whose term magnitudes give each entry's rounding
bound) and reduces each sample's lattice once, certified: every basis
is within ``homspace.PREC_TOL`` of an exact reduced basis.  That is
float64, double-double (dimension 2 only) or exact rational arithmetic,
whichever is the cheapest whose error bound meets the tolerance.
``certified_observables`` then derives the shortest length and every
observable from those bases.  In both dimensions the first stage runs
on one row state per chunk (``homspace.row_state``): the entries go
straight into the float64 reduction state, from the chunk's coordinate
rows, which the entries share, and the state is reduced in place; the
bases leave as views of its coordinate rows.  A chunk is one
``doubledouble.BLOCK`` of the sweep's sample sequence in both dimensions.
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
from .doubledouble import BLOCK, U, split
from .errors import DomainError, PrecisionError
from .flowlimit import twodim_flow, twodim_residual
from .goodness import BoxRegion, GridPoly
from .homspace import (
    BOUND,
    PREC_TOL,
    TestFunction,
    basis_shape,
    haar_expectation,
    lagrange_reduce,
    orbit_averages,
    reduce_exact,
    row_state,
    siegel_count_exact,
    siegel_sums,
    sl3_greedy,
)

# a chunk is one block in both dimensions: its coordinate rows stay
# cache-sized
_CHUNK = BLOCK
# the share of a box's samples the exact tier may take: a cost cap
_EXACT_BUDGET = 1e-3


def _side(T, l) -> float:
    """The box side T^l in float64, which must not overflow."""
    try:
        return float(T) ** float(l)
    except OverflowError:
        raise DomainError(f"box side {float(T):g}^{float(l):g} overflows") from None


def _realized_box(lam, T: float, J: Optional[BoxRegion] = None) -> BoxRegion:
    """The box {(a_1 T^l1, ..., a_k T^lk) : a in J} for the subbox J of the
    unit cube; J = None is the whole cube, whose corners scale exactly."""
    J = J or BoxRegion((0.0,) * len(lam), (1.0,) * len(lam))
    scales = [_side(T, l) for l in lam]
    return BoxRegion(tuple(j * s for j, s in zip(J.lower, scales)),
                     tuple(j * s for j, s in zip(J.upper, scales)))


# ---------------------------------------------------------------------------
# chunked grid evaluation
# ---------------------------------------------------------------------------


def entry_tables(matrix, map_vars):
    """The ``GridPoly`` table of every entry of ``matrix``, compiled once
    per sweep for all its chunks."""
    return [[GridPoly(p, map_vars) for p in row] for row in matrix.entries]


def _f64_state(tables, x: np.ndarray):
    """The float64 row state (``homspace.row_state``) of the matrices whose
    entry tables are ``tables`` at the points with coordinate rows ``x``:
    entry (i, j) in coordinate row i of column j, and as each column's
    bound the sum of its entries' rounding bounds ``c64 * mag``; and, in
    dimension 2, the term-magnitude sums mag[j, i] of the entries, which
    the double-double routing reads (None in dimension 3, whose entries
    share one row)."""
    n, m = len(tables), x.shape[1]
    s = row_state(n, n, m, False)
    keep = n == 2
    mag = np.empty((n, n, m) if keep else (1, 1, m))
    s[:, BOUND] = 0.0
    for i, row in enumerate(tables):
        for j, table in enumerate(row):
            r = mag[j, i] if keep else mag[0, 0]
            table.f64(x, s[j, i], r)
            s[j, BOUND] += table.c64 * r
    return s, mag if keep else None


def _sl2_tiers(tables, x: np.ndarray, s, mag):
    """The float64 and double-double tiers of ``certified_reduce`` in
    dimension 2, on the float64 row state ``s`` of the entries at the
    points with coordinate rows ``x``, with term magnitudes ``mag``
    (``_f64_state``), in place: each sample is left reduced and
    certified, or with an infinite first bound.

    The float64 tier reduces ``s`` in place when every sample qualifies,
    else an ``np.compress`` of it, whose coordinate and bound rows it
    writes back by index.  When some sample misses it, the
    double-double tier evaluates the samples it qualifies into a
    double-double row state, from their coordinate rows and the rows'
    splits, and writes its results back row by row."""
    err = s[:, BOUND]
    # the reduced basis is B = g U with U = adj(g) B, so its column j
    # carries the column errors of g times |U_ij| <= |row i of adj(g)| |b_j|;
    # the routing takes |b_j| to be about 1.  |row i of adj(g)| is
    # |column 1 - i of g|
    amp = np.hypot(s[::-1, 1], s[::-1, 0])

    def tier(t, dd):
        done = lagrange_reduce(t, 2, dd)
        ok = done & (np.maximum(t[0, BOUND], t[1, BOUND]) <= PREC_TOL)
        t[0, BOUND, ~ok] = np.inf  # inf: not certified (yet)

    f64 = err[0] * amp[0] + err[1] * amp[1] <= PREC_TOL
    s[0, BOUND, ~f64] = np.inf
    if f64.all():
        tier(s, False)
    elif f64.any():
        t = np.compress(f64, s, axis=2)
        tier(t, False)
        # no later step reads NORM; by index: 12-104 us per chunk at 0.3-99.7%
        # density, where masks take 17-276 us, the most near 1/2 (2-core Xeon)
        k = np.flatnonzero(f64)
        for c, r in zip(s, t):
            for j in (0, 1, BOUND):
                c[j][k] = r[j]
    missed = np.isinf(s[0, BOUND])
    if not missed.any():
        return
    edd = np.empty((2, x.shape[1]))
    for j in range(2):
        edd[j] = mag[j, 0] * tables[0][j].cdd + mag[j, 1] * tables[1][j].cdd
    dd = missed & (edd[0] * amp[0] + edd[1] * amp[1] <= PREC_TOL)
    if dd.any():
        t = row_state(2, 2, np.count_nonzero(dd), True)
        p = np.compress(dd, x, axis=1)
        ps = [split(r) for r in p]
        for i, row in enumerate(tables):
            for j, table in enumerate(row):
                table.dd(p, ps, t[j, i], t[j, 2 + i])
        t[:, BOUND] = np.compress(dd, edd, axis=1)
        # the passes do not read the rows: free them for the passes' scratch
        del p, ps
        tier(t, True)
        # row by row: a mask over the last axis of s[:, :2] costs 6 times
        # as much
        for c, r in zip(s, t):
            for k in (0, 1, BOUND):
                c[k][dd] = r[k]


def certified_reduce(matrix, map_vars, tables, pts: np.ndarray,
                     limit: float = math.inf):
    """Reduced bases of the lattices g(pt) Z^N, N = 2 or 3, each column
    within ``PREC_TOL`` of the exact basis that the same integer steps
    make from g at the float64 point pt, read as an exact dyadic rational.
    ``tables`` are the matrix's entry tables (``entry_tables``).

    ``GridPoly.f64`` writes the entries straight into one float64 row
    state per chunk (``_f64_state``), which the reduction changes in
    place.  In dimension 2 each sample takes the cheapest tier whose
    a-priori bound, from the entry magnitudes, is below the tolerance:
    float64, then double-double (``_sl2_tiers``); in dimension 3 it takes
    float64 (``sl3_greedy``).  The bound carried through the reduction
    then certifies it or passes it on.  Samples no tier certifies are
    evaluated and reduced in exact rationals; more than ``limit`` of them
    raise ``PrecisionError``.
    Returns the bases (m, N, N), shortest column first, and their column
    bounds (m, N), both views of the row state, and the indices of the
    exact samples.
    """
    m, n = pts.shape[0], matrix.dim
    # the coordinate rows, contiguous in 2D, where the four entries and the
    # double-double tier read them
    x = np.ascontiguousarray(pts.T) if n == 2 else pts.T
    s, mag = _f64_state(tables, x)
    if n == 3:
        s[:, BOUND, ~sl3_greedy(s)] = np.inf
    else:
        _sl2_tiers(tables, x, s, mag)
    b, e = s[:, :n].transpose(2, 1, 0), s[:, BOUND].T
    # column by column: np.max over e's short inner axis costs 50 times more
    late = np.nonzero(~(functools.reduce(np.maximum, e.T) <= PREC_TOL))[0]
    if late.size > limit:
        tiers = "float64 and double-double" if n == 2 else "float64"
        raise PrecisionError(
            f"{late.size}/{m} samples of a chunk are beyond {tiers} "
            f"certification (exact-tier cost budget {limit:g} per box)",
            flagged=int(late.size), total=m,
        )
    for k in late:
        b[k] = reduce_exact(_exact_matrix(matrix, map_vars, pts[k]))
        e[k] = U * np.sqrt(np.sum(b[k] * b[k], axis=0))
    return b, e, late


def certified_observables(b: np.ndarray, e: np.ndarray, fs, exact):
    """Shortest lengths and Siegel observables (one row per test function
    in ``fs``) of the bases ``b`` with column bounds ``e`` that
    ``certified_reduce`` returns, in closed form (``siegel_sums``), both
    from one ``basis_shape``.  The indicator counts the bases leave in
    doubt are recounted from ``exact(k)``, the matrix of rationals of
    sample k, so every count is the exact lattice's."""
    shape = basis_shape(b)
    values, ties = siegel_sums(b, e, fs, shape)
    for i, k in zip(*np.nonzero(ties)):
        values[i, k] = siegel_count_exact(exact(k), fs[i].radius)
    return np.sqrt(shape[0]), values


def _exact_matrix(matrix, map_vars, pt):
    """The matrix at the float64 point pt, read as an exact dyadic rational,
    in exact arithmetic."""
    return matrix.evaluate_exact({v: Fraction(float(x)) for v, x in zip(map_vars, pt)})


def _segments(start: int, stop: int, n: int) -> list:
    """The pieces (i, lo, hi) of samples [start, stop) of a sweep whose box
    i owns samples [i n, (i + 1) n): local samples [lo, hi) of box i."""
    return [(i, max(start - i * n, 0), min(stop - i * n, n))
            for i in range(start // n, (stop - 1) // n + 1)]


def _eval_chunk(args):
    """Shortest-vector lengths, observable values (one row per test
    function) and the number of exactly reduced samples per box of one
    chunk of a sweep's sample sequence, all from a single certified
    reduction per sample (``certified_reduce``, then
    ``certified_observables``).  A 3D chunk runs in pieces of half a
    ``BLOCK``: its row state has 15 rows to a 2D state's 8, and the
    temporaries of the reduction and of the observables scale with it."""
    (matrix, map_vars, tables, regions, grid, fs, start, stop, method, seed,
     limit) = args
    half = BLOCK // 2
    if matrix.dim == 3 and stop - start > half:
        lam1, values, n_exact = zip(*(
            _eval_chunk(args[:6] + (lo, min(lo + half, stop)) + args[8:])
            for lo in range(start, stop, half)))
        return np.concatenate(lam1), np.concatenate(values, axis=1), sum(n_exact)
    n = grid ** regions[0].dim
    segments = _segments(start, stop, n)
    pts = np.concatenate([regions[i].sample_points(grid, lo, hi, method, seed)
                          for i, lo, hi in segments])
    # each box the chunk touches may take its whole budget here
    b, e, late = certified_reduce(matrix, map_vars, tables, pts, limit * len(segments))
    # the points go before the observables, whose temporaries set a 3D
    # chunk's peak memory; a tie's point is drawn again, by its box and
    # local index
    del pts

    def exact(k):
        i, j = divmod(start + k, n)
        pt = regions[i].sample_points(grid, j, j + 1, method, seed)[0]
        return _exact_matrix(matrix, map_vars, pt)

    lam1, values = certified_observables(b, e, fs, exact)
    return lam1, values, np.bincount((start + late) // n, minlength=len(regions))


def _pool(workers: int):
    """One process pool (a context manager) for all the boxes of an
    operation, none for one worker; its processes start on first use."""
    return ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext()


def _observable_values(
    matrix,
    map_vars,
    regions: Sequence[BoxRegion],
    grid: int,
    fs: Sequence[TestFunction],
    pool: Optional[ProcessPoolExecutor] = None,
    method: str = "grid",
    seed: int = 0,
):
    """Yields (lam1, values) for each box of ``regions`` in turn: the
    shortest-vector lengths and one row of observable values per test
    function in ``fs`` of its samples.  The chunks cut the sweep's samples,
    box after box, and run in ``pool`` (``_pool``) when there is one and
    more than one chunk; only the box being filled has buffers here."""
    if matrix.dim not in (2, 3):
        raise DomainError(
            f"lattice observables need 2x2 or 3x3 matrices, not {matrix.dim}x{matrix.dim}")
    if regions[0].dim != len(map_vars):
        raise DomainError(
            f"a {regions[0].dim}-dimensional box for {len(map_vars)} map variables")
    n = grid ** regions[0].dim
    total = n * len(regions)
    limit = _EXACT_BUDGET * n
    bounds = list(range(0, total, _CHUNK)) + [total]
    tables = entry_tables(matrix, map_vars)
    tasks = [
        (matrix, map_vars, tables, tuple(regions), grid, tuple(fs), lo, hi, method,
         seed, limit)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    if pool is None or len(tasks) == 1:
        results = map(_eval_chunk, tasks)
    else:
        results = pool.map(_eval_chunk, tasks)
    flagged = np.zeros(len(regions), dtype=int)
    # a box's buffers come before its chunks: after them sweep2d_ul ran 7% slower
    lam1, values = np.empty(n), np.empty((len(fs), n))
    for task, (lam, vals, n_exact) in zip(tasks, results):
        flagged += n_exact
        at = 0
        for i, lo, hi in _segments(task[6], task[7], n):
            lam1[lo:hi] = lam[at:at + hi - lo]
            values[:, lo:hi] = vals[:, at:at + hi - lo]
            at += hi - lo
            if hi < n:
                continue
            if flagged[i] > limit:
                raise PrecisionError(
                    f"{flagged[i]}/{n} samples are beyond floating-point "
                    f"certification (over the exact tier's cost budget)",
                    flagged=int(flagged[i]), total=n,
                )
            yield lam1, values
            del lam1, values
            lam1, values = np.empty(n), np.empty((len(fs), n))


def _average(values: np.ndarray) -> float:
    """The mean of the values of every sample, its sum correctly rounded
    (``math.fsum``'s) with no Python float per sample: per block of n
    values, each v splits into q = (v + s) - s and the exact v - q, for a
    power of two s >= 2^(ceil(log2(n + 2)) + 1) max |v|, so numpy sums the
    q exactly; the nonzero v - q split again (Rump, Ogita and Oishi 2008).
    Non-finite values, or an s beyond float64, take ``math.fsum``."""
    parts = []
    for lo in range(0, values.shape[0], BLOCK):
        r = values[lo:lo + BLOCK]
        while r.size:
            top = max(r.max(), -r.min())
            e = (r.size + 1).bit_length() + 1 + math.frexp(top)[1]
            if not (top < math.inf and e < 1024):
                return math.fsum(memoryview(values)) / values.shape[0]
            s = math.ldexp(1.0, e)
            q = r + s
            q -= s
            parts.append(q.sum())
            r = r - q
            r = r[r != 0.0]
    return math.fsum(parts) / values.shape[0]


def _nondiv(lam1: np.ndarray, eps0_list: Sequence[float]) -> tuple:
    total = lam1.shape[0]
    return tuple(
        (float(e), float(np.count_nonzero(lam1 >= e)) / total) for e in eps0_list
    )


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def periodic_reference(entry: MapEntry, fs: Sequence[TestFunction]) -> list:
    """Averages of the observables ``fs`` over the closed orbit
    ``MapEntry.orbit``, g(0) (I + sum x_s E_s) on [0, 1]^S, one per
    observable, in closed form (``homspace.orbit_averages``); a constant
    map's orbit is its one lattice."""
    if entry.orbit is None:
        raise DomainError(f"{entry.name} has the Haar reference")
    orbit, names = entry.orbit
    g0 = orbit.evaluate_exact(dict.fromkeys(names, 0))
    # x_s names the flat position s = i N + j of E_ij
    return orbit_averages(g0, [divmod(int(x[1:]), entry.dim) for x in names], fs)


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
    nondivergence fractions of the same samples.  The reference is the Haar
    integral when the map generates SL(N), else the average over the closed
    orbit where the limit lives (``periodic_reference``).
    ``name`` names the parameters in the messages of the checks."""
    if grid < 8:
        raise DomainError("need at least 8 grid points per axis")
    params = [float(T) for T in params]
    if any(b >= a for a, b in zip(params[1:], params[:-1])):
        raise DomainError(f"{name} must increase")
    if not all(0 < T < math.inf for T in params):
        raise DomainError(f"{name} must be positive and finite")
    # eps0 <= 0 holds every lattice, and nan or inf none
    if not all(0 < e < math.inf for e in eps0_list):
        raise DomainError("eps0 values must be positive and finite")
    regions = [box_of(T) for T in params]
    if entry.orbit is None:
        refs = [haar_expectation(f, entry.dim) for f in f_list]
    else:
        refs = periodic_reference(entry, f_list)
    rows = []
    with _pool(workers) as pool:
        boxes = _observable_values(entry.matrix, entry.map_vars, regions, grid, f_list,
                                   pool=pool, method=method, seed=seed)
        for T in params:
            # by next(), not zip: zip's reused tuple would keep the last box
            # alive while the next one fills
            lam1, values = next(boxes)
            nondiv = _nondiv(lam1, eps0_list)
            averages = [_average(vals) for vals in values]
            del lam1, values  # one box's samples in memory at a time
            for f, ref, average in zip(f_list, refs, averages):
                gap = average - ref
                # against a zero reference only a zero gap is finite
                rel_gap = abs(gap) / abs(ref) if ref else (math.inf if gap else 0.0)
                rows.append(
                    ResultRow(
                        T=T,
                        observable=f.name,
                        average=average,
                        reference=ref,
                        gap=gap,
                        rel_gap=rel_gap,
                        samples=grid ** regions[0].dim,
                        # every sample is counted and no numeric bound exists
                        # yet; both keep their values for the CSVs and the bench
                        excluded=0,
                        error_bound=0.0,
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
    """Averages over the boxes {(a_1 T^l1, ..., a_k T^lk) : a in J} against
    the reference measure along increasing T, for the box exponents l in
    ``lam`` and the subbox J of the unit cube (None: the whole cube)."""
    lam = tuple(Fraction(v) for v in lam)
    if not all(l > 0 for l in lam):
        raise DomainError("box exponents must be positive")
    unit = BoxRegion((0.0,) * len(lam), (1.0,) * len(lam))
    if J is not None and (J.dim != len(lam) or not unit.contains(J)):
        raise DomainError("J must be a subbox of the unit cube")
    return _sweep(
        entry, "box parameter", T_list, lambda T: _realized_box(lam, T, J),
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
