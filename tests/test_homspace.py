"""Lattice space: the float64 kernels against the reference oracles of
``oracles`` and against their bound contract (coverage of the exact
lattice, and each bound update by its formula), Siegel counts and Haar
references."""

import ast
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import oracles
import pytest
from rowstate import lagrange, reduce_bases

import boxflow
from boxflow import experiment, homspace
from boxflow.doubledouble import U, U2
from boxflow.errors import DomainError
from boxflow.homspace import TestFunction as TF
from boxflow.homspace import (
    BOUND,
    NORM,
    PREC_TOL,
    basis_shape,
    haar_expectation,
    lagrange_reduce,
    lagrange_rows,
    parse_observable,
    row_state,
    siegel_sums,
)


def random_sl2(rng):
    # shear-rotate products keep the determinant exactly 1
    x, y = rng.uniform(-3, 3), rng.uniform(-3, 3)
    a = rng.uniform(0.5, 2.0)
    m = np.array([[1.0, x], [0.0, 1.0]]) @ np.array([[a, 0.0], [0.0, 1.0 / a]])
    return m @ np.array([[1.0, 0.0], [y, 1.0]])


def random_sl3(rng):
    m = np.eye(3)
    for _ in range(4):
        i, j = rng.integers(0, 3), rng.integers(0, 3)
        if i == j:
            continue
        e = np.eye(3)
        e[i, j] = rng.uniform(-2, 2)
        m = m @ e
    return m


# the elementary unimodular matrices 1 + E_ij
GENS3 = [np.eye(3) + np.outer(e, f) for e in np.eye(3) for f in np.eye(3) if e @ f == 0]


def random_word(rng, gens):
    """A product of one to five matrices drawn from ``gens``."""
    word = np.eye(gens[0].shape[0])
    for _ in range(int(rng.integers(1, 6))):
        word = word @ gens[rng.integers(0, len(gens))]
    return word


def as_exact(g):
    """The float64 matrix g read as exact rationals."""
    return [[F(float(x)) for x in row] for row in g]


def certified(mats):
    """(b, e) of the float64 reduction of bases read as exact rationals,
    which must certify every sample."""
    b, e, done = reduce_bases(mats, np.zeros(mats.shape[:2]))
    assert done.all() and np.max(e) <= PREC_TOL
    return b, e


def kernel(mats, fs):
    """(lam1, values) of the certified kernel on float64 bases
    read as exact rationals: the reduction, then
    ``certified_observables``."""
    return experiment.certified_observables(*certified(mats), fs,
                                            lambda k: as_exact(mats[k]))


def reduce2(mats):
    """(b1, b2, lam1) of the float64 2D kernel on a batch of bases read as
    exact: the reduced columns, shortest first, and lambda_1."""
    b, _ = certified(mats)
    return b[:, :, 0], b[:, :, 1], np.sqrt(np.sum(b[:, :, 0] ** 2, axis=1))


def siegel_values(b, f):
    """Values of ``certified_observables`` on reduced bases b (m, N, N)
    that are exact as stored: zero column bounds, and ties recounted from
    b read as exact rationals."""
    _, (values,) = experiment.certified_observables(
        b, np.zeros(b.shape[:2]), (f,), lambda k: as_exact(b[k]))
    return values


def kernel_shortest(g):
    """lambda_1 of the column lattice of g from the float64 kernel."""
    return kernel(g[None], ())[0][0]


def siegel2(mats, f):
    """Siegel values of the float64 2D kernel on a batch of bases."""
    return kernel(mats, (f,))[1][0]


def test_oracles_import_nothing_from_boxflow():
    # the reference must share no code with the kernel it checks
    tree = ast.parse(Path(oracles.__file__).read_text())
    names = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    names += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert "numpy" in names and not [m for m in names if str(m).startswith("boxflow")]


# -- reduction -----------------------------------------------------------------


def test_reduce_identity():
    b1, b2, lam1 = reduce2(np.eye(2)[None])
    assert lam1[0] == pytest.approx(1.0)
    assert sorted(np.abs(np.stack([b1[0], b2[0]])).sum(axis=1).tolist()) == [1.0, 1.0]


def test_reduce_shear_case():
    g = np.array([[1.0, 0.9], [0.0, 1.0]])
    b1, b2, lam1 = reduce2(g[None])
    assert lam1[0] == pytest.approx(oracles.shortest(g))
    assert {(1.0, 0.0), (-1.0, 0.0)} & {tuple(b1[0]), tuple(b2[0])}


def test_reduce_diagonal():
    assert kernel_shortest(np.diag([2.0, 0.5])) == pytest.approx(0.5)


def test_reduce_matches_enumeration_random():
    rng = np.random.default_rng(42)
    mats = np.stack([random_sl2(rng) for _ in range(100)])
    _, _, lam1 = reduce2(mats)
    for g, lam in zip(mats, lam1):
        assert lam == pytest.approx(oracles.shortest(g), rel=1e-9)


def test_reduce_3d_matches_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(40):
        g = random_sl3(rng)
        assert kernel_shortest(g) == pytest.approx(oracles.shortest(g), rel=1e-9)


def test_shortest_invariant_under_integer_unimodular_words():
    rng = np.random.default_rng(2718)
    gens2 = [np.array([[1, 1], [0, 1]]), np.array([[1, 0], [1, 1]]),
             np.array([[0, -1], [1, 0]])]
    for _ in range(100):
        n = 2 if rng.random() < 0.5 else 3
        g = random_sl2(rng) if n == 2 else random_sl3(rng)
        word = random_word(rng, gens2 if n == 2 else GENS3)
        assert kernel_shortest(g @ word) == pytest.approx(kernel_shortest(g), rel=1e-9)


# -- Siegel transform ----------------------------------------------------------------


def test_siegel_identity_small_radius():
    f = TF("indicator", 0.5)
    assert siegel2(np.eye(2)[None], f)[0] == oracles.siegel_sum(np.eye(2), f) == 0.0


def test_siegel_identity_unit_radius():
    f = TF("indicator", 1.0)
    assert siegel2(np.eye(2)[None], f)[0] == oracles.siegel_sum(np.eye(2), f) == 4.0


def test_siegel_diagonal():
    g = np.diag([2.0, 0.5])
    f = TF("indicator", 0.6)
    assert siegel2(g[None], f)[0] == oracles.siegel_sum(g, f) == 2.0


def test_siegel_matches_enumeration_random():
    rng = np.random.default_rng(11)
    f = TF("indicator", 1.5)
    checked = 0
    while checked < 100:
        g = random_sl2(rng) if rng.random() < 0.7 else random_sl3(rng)
        if kernel_shortest(g) < 0.3:
            continue
        val = siegel2(g[None], f)[0] if g.shape[0] == 2 else kernel(g[None], (f,))[1][0][0]
        assert val == oracles.siegel_sum(g, f)
        checked += 1


def test_siegel_bump_matches_enumeration():
    rng = np.random.default_rng(12)
    f = TF("bump", 1.2)
    for _ in range(30):
        g = random_sl2(rng)
        if kernel_shortest(g) < 0.3:
            continue
        assert siegel2(g[None], f)[0] == pytest.approx(
            oracles.siegel_sum(g, f), rel=1e-12
        )


# -- Haar references ------------------------------------------------------------------


def test_haar_expectation_indicator():
    f = TF("indicator", 0.5)
    assert haar_expectation(f, 2) == pytest.approx(math.pi / 4)
    assert haar_expectation(TF("indicator", 1.0), 2) == pytest.approx(math.pi)
    assert haar_expectation(TF("indicator", 1e-6), 2) == pytest.approx(
        0.0, abs=1e-11
    )


def test_haar_expectation_indicator_3d():
    f = TF("indicator", 1.0)
    assert haar_expectation(f, 3) == pytest.approx(4 * math.pi / 3)


def test_haar_expectation_bump_closed_forms():
    # radial (1 - (r/R)^2)^2: pi R^2 / 3 in the plane, 32 pi R^3 / 105 in space
    for radius in (0.5, 1.0, 2.0):
        f = TF("bump", radius)
        assert haar_expectation(f, 2) == pytest.approx(math.pi * radius ** 2 / 3)
        assert haar_expectation(f, 3) == pytest.approx(
            32 * math.pi * radius ** 3 / 105
        )


def test_haar_references_keep_the_bits_of_their_closed_forms():
    # the Haar reference is the slice of every coordinate through the
    # origin, and gives the bits of the closed forms above
    for radius in (0.4, 1.0, 1.5, 2.5, 1e-6, 1e100):
        ind, bump = TF("indicator", radius), TF("bump", radius)
        assert haar_expectation(ind, 2) == math.pi * radius ** 2
        assert haar_expectation(ind, 3) == 4.0 / 3.0 * math.pi * radius ** 3
        assert haar_expectation(bump, 2) == math.pi * radius ** 2 / 3.0
        assert haar_expectation(bump, 3) == 32.0 * math.pi * radius ** 3 / 105.0


def test_haar_sample_deterministic():
    assert np.array_equal(oracles.haar_sample(5, seed=99), oracles.haar_sample(5, seed=99))


def test_haar_sample_single():
    (g,) = oracles.haar_sample(1, seed=0)
    assert abs(np.linalg.det(g) - 1) <= 1e-9
    assert kernel_shortest(g) > 0


def test_haar_sample_validates_siegel_average():
    mats = oracles.haar_sample(4000, seed=123)
    for radius in (0.5, 1.0):
        f = TF("indicator", radius)
        vals = siegel2(mats, f)
        mean = float(np.mean(vals))
        stderr = float(np.std(vals) / math.sqrt(len(vals)))
        expect = haar_expectation(f, 2)
        assert abs(mean - expect) <= 3 * stderr + 0.02 * expect


# -- compactness -------------------------------------------------------------------


def test_in_compact():
    # Mahler's compact set {shortest vector >= eps0}
    assert kernel_shortest(np.eye(2)) >= 0.5
    assert not kernel_shortest(np.diag([100.0, 0.01])) >= 0.5
    assert kernel_shortest(np.diag([100.0, 0.01])) >= 0.0


# -- observables -------------------------------------------------------------------


def test_parse_observable():
    f = parse_observable("siegel:indicator:1")
    assert f.kind == "indicator" and f.radius == 1.0
    g = parse_observable("siegel:bump:0.5")
    assert g.kind == "bump" and g.radius == 0.5
    with pytest.raises(DomainError):
        parse_observable("fourier:1")


# -- batch path ---------------------------------------------------------------------


def test_batch_reduction_matches_scalar():
    rng = np.random.default_rng(31)
    mats = np.stack([random_sl2(rng) for _ in range(500)])
    b1, b2, lam1 = reduce2(mats)
    for i in range(0, 500, 17):
        assert lam1[i] == pytest.approx(oracles.shortest(mats[i]), rel=1e-12)


def test_batch_siegel_matches_scalar():
    rng = np.random.default_rng(32)
    mats = np.stack([random_sl2(rng) for _ in range(400)])
    b1, b2, lam1 = reduce2(mats)
    for f in (TF("indicator", 1.0), TF("bump", 1.2)):
        vals = siegel_values(np.stack([b1, b2], axis=2), f)
        for i in range(0, 400, 13):
            assert vals[i] == pytest.approx(oracles.siegel_sum(mats[i], f), rel=1e-12)


def test_batch_counts_deep_cusp_samples_exactly():
    # lambda_1 = 1e-8 is counted like any sample: one row of 2e8 vectors,
    # in closed form; the float 1e-8 is above 1e-8, so c1 = 1e8 is outside
    tiny = 1e-8
    mats = np.stack([np.eye(2), np.diag([tiny, 1 / tiny])])
    b1, b2, lam1 = reduce2(mats)
    b = np.stack([b1, b2], axis=2)
    (vals,), _ = siegel_sums(b, np.zeros((2, 2)), (TF("indicator", 1.0),),
                             basis_shape(b))
    assert vals.tolist() == [4.0, 199_999_998.0]
    assert vals[1] == oracles.diagonal_sum([tiny, 1 / tiny], "indicator", 1.0)


def test_diagonal_oracle_matches_enumeration():
    d = [F(1, 3), F(1, 2), F(6)]
    norms = oracles.exact_norms([[d[0], 0, 0], [0, d[1], 0], [0, 0, d[2]]], 2)
    assert oracles.diagonal_sum(d, "indicator", 2) == len(norms) == 72
    assert oracles.diagonal_sum(d, "bump", 2) == sum((1 - n / 4) ** 2 for n in norms)


def lagrange_batch(rng, m, d, dd):
    """Column pairs [u, v] with entries from 1 to 1e8, and in double-double
    their low parts [u_lo, v_lo].  A third of them are near multiples of
    each other, which takes many passes to reduce; another third are small
    integer vectors, with exact ties in the norms and in the rounding of
    mu.  Then m // 10 more pairs at ratios near +-2^30, whose first mu is
    beyond 2^26, where Dekker's split of mu has a nonzero low half."""
    scale = 10.0 ** rng.uniform(0, 8, (m, 1))
    u = rng.standard_normal((m, d)) * scale
    v = rng.standard_normal((m, d)) * scale * rng.uniform(0.1, 3, (m, 1))
    k = m // 3
    v[:k] = u[:k] * rng.integers(-1000, 1000, (k, 1)) + v[:k] * 1e-4
    iu = rng.integers(-3, 4, (4 * k, d)).astype(float)
    iv = rng.integers(-3, 4, (4 * k, d)).astype(float)
    cross = np.cross(np.pad(iu, ((0, 0), (0, 3 - d))), np.pad(iv, ((0, 0), (0, 3 - d))))
    independent = np.nonzero(np.any(cross != 0, axis=1))[0][:k]
    u[k:2 * k], v[k:2 * k] = iu[independent], iv[independent]
    n = m // 10
    far = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(0, 4, (n, 1))
    ratio = rng.uniform(2.0 ** 29, 2.0 ** 31, (n, 1)) * rng.choice([-1.0, 1.0], (n, 1))
    cols = [np.concatenate([u, far]),
            np.concatenate([v, far * ratio + rng.standard_normal((n, d))])]
    if dd:
        cols += [c * U * rng.uniform(-1, 1, c.shape) for c in cols]
    return cols


@pytest.mark.parametrize("dd", [False, True])
@pytest.mark.parametrize("d", [2, 3])
def test_lagrange_bounds_cover_the_distance_to_the_exact_lattice(d, dd):
    # the pairs start exact, with bound 0, so their bounds carry the
    # charged rounding alone: each column of a converged pair lies within
    # its bound of the exact lattice L(u, v), and the first is a shortest
    # vector up to its bound
    rng = np.random.default_rng(40 + d + 2 * dd)
    cols = lagrange_batch(rng, 300, d, dd)
    cols[0][7] = np.nan  # returned as it came, not converged
    zero = np.zeros(cols[0].shape[0])
    u, v, eu, ev, done = lagrange(cols[0], cols[1], zero, zero, *cols[2:])
    assert not done[7] and np.count_nonzero(~done) == 1
    assert u[7].tobytes() == cols[0][7].tobytes()
    for k in np.nonzero(done)[0]:
        # the input pair as rationals (high plus low part), exactly reduced
        m = [[sum(F(float(c[k, i])) for c in cols[j::2]) for j in (0, 1)] for i in range(d)]
        m = list(zip(*oracles.exact_reduce(m)))
        for dist2, bound in zip(oracles.lattice_distances_sq(m, (u[k], v[k])), (eu[k], ev[k])):
            assert dist2 <= F(float(bound)) ** 2
        # up to the rounding of the two norms
        lam1 = math.sqrt(sum(row[0] ** 2 for row in m))
        assert abs(np.linalg.norm(u[k]) - lam1) <= eu[k] + 4 * U * lam1
    empty = lagrange(*(c[:0] for c in cols[:2]), zero[:0], zero[:0], *(c[:0] for c in cols[2:]))
    assert [x.shape for x in empty] == [(0, d), (0, d), (0,), (0,), (0,)]


@pytest.fixture
def lagrange_passes(monkeypatch):
    """The number of active columns of every ``_lagrange_pass`` call."""
    passes = []
    lagrange_pass = homspace._lagrange_pass

    def counting(*args):
        passes.append(args[0].shape[-1])
        return lagrange_pass(*args)

    monkeypatch.setattr(homspace, "_lagrange_pass", counting)
    return passes


@pytest.mark.parametrize("dd", [False, True])
def test_lagrange_stops_at_the_pass_cap(dd, lagrange_passes):
    # |u|^2 = 1e-320 is subnormal, not 0, so the pair is reduced: its first
    # mu = 1e-10 / 1e-320 overflows, v turns NaN and mu never settles, so
    # only the pass cap stops it, not converged; the other pair is reduced
    # as usual
    u = np.array([[1e-160, 0.0], [1.0, 0.0]])
    v = np.array([[1e150, 1.0], [7.0, 1.0]])
    zero = np.zeros(2)
    lo = (np.zeros((2, 2)), np.zeros((2, 2))) if dd else ()
    with np.errstate(invalid="ignore", over="ignore"):
        ru, rv, _, _, done = lagrange(u, v, zero, zero, *lo)
    assert len(lagrange_passes) == 256 and lagrange_passes[-1] == 1
    assert done.tolist() == [False, True]
    assert np.isnan(rv[0]).all()
    assert ru[1].tolist() == [1.0, 0.0] and rv[1].tolist() == [0.0, 1.0]


def test_lagrange_writes_back_the_pairs_still_moving_at_the_pass_cap(monkeypatch):
    # a pass that reports every pair as moved keeps them all active until
    # the pass cap.  With every pair valid the state is reduced in place
    # throughout; with one non-finite pair the others are reduced in a
    # copy, which only the write-back after the last pass returns to the
    # state
    lagrange_pass = homspace._lagrange_pass
    monkeypatch.setattr(homspace, "_lagrange_pass", lambda *args: lagrange_pass(*args) | True)
    rng = np.random.default_rng(39)
    u, v = rng.standard_normal((2, 20, 2)) * [[[1.0]], [[1e3]]]
    e = rng.uniform(0, 1e-12, 20)
    in_place = [np.copy(x) for x in lagrange(u[1:], v[1:], e[1:], e[1:])]
    u[0] = np.nan
    got = lagrange(u, v, e, e)
    assert not got[4].any() and not in_place[4].any()
    for g, w in zip(got[:4], in_place[:4]):
        assert g[1:].tobytes() == w.tobytes()
    assert in_place[1].tobytes() != v[1:].tobytes()


@pytest.mark.parametrize("dd", [False, True])
def test_lagrange_returns_a_zero_column_at_once(dd, lagrange_passes):
    # |u|^2 = 0 or |v|^2 = 0: mu would be 0/0 on every pass, so the pair is
    # returned as it came, not converged, and never enters a pass
    u = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]])
    v = np.array([[1.0, 2.0], [7.0, 1.0], [0.0, 0.0]])
    e = np.array([0.0, 0.0, 1e-9])
    lo = (np.zeros((3, 2)), np.zeros((3, 2))) if dd else ()
    args = (u, v, e, e, *lo)
    ru, rv, eu, ev, done = lagrange(*args)
    assert done.tolist() == [False, True, False]
    assert ru[[0, 2]].tolist() == u[[0, 2]].tolist()
    assert rv[[0, 2]].tolist() == v[[0, 2]].tolist()
    assert ru[1].tolist() == [1.0, 0.0] and rv[1].tolist() == [0.0, 1.0]
    # the reduced pair alone: one pass moves v, the next finds mu = 0
    assert lagrange_passes == [1, 1]
    if not dd:
        assert eu[[0, 2]].tolist() == ev[[0, 2]].tolist() == [0.0, 1e-9]


def pair_state(cols, dd):
    """The row state of the (m, d) columns [u, v] of ``lagrange_batch``,
    in double-double with their low parts normalized as two_sum leaves
    them, with bounds 0 and the squared norms set."""
    m, d = cols[0].shape
    s = row_state(2, d, m, dd)
    for j, c in enumerate(s):
        c[:d] = cols[j].T
        if dd:
            c[:d] += cols[2 + j].T
            c[d:2 * d] = cols[2 + j].T - (c[:d] - cols[j].T)
    s[:, BOUND] = 0.0
    homspace._set_norms(s, d)
    return s


@pytest.mark.parametrize("dd", [False, True])
def test_a_finished_pair_stays_put(dd, lagrange_passes):
    # a step with mu = 0 is exact and changes no bit of a converged pair,
    # which is why lagrange_rows leaves finished pairs in its passes: more
    # passes over the converged pairs, with zero coordinates, zero low
    # parts and mu rounding to -0.0 (or to +0.0, negated in double-double),
    # leave every bit as it was, bounds included.  The exception is a
    # coordinate of -0.0, which GridPoly never writes
    # (test_greedy_changes_no_value_for_a_negative_zero)
    rng = np.random.default_rng(41 + dd)
    cols = lagrange_batch(rng, 300, 2, dd)
    # mu = round(-0.25) = -0.0 and round(0.25) = +0.0
    pairs = np.array([[[1.0, 0.0], [-0.25, 1.0]], [[2.0, 0.0], [0.5, 3.0]]])
    for j, c in enumerate(cols):
        c[:2] = pairs[:, j % 2] * (j < 2)
    if dd:
        cols[2][:60] = cols[3][:60] = 0.0
    s = pair_state(cols, dd)
    s = np.compress(lagrange_rows(s, 2, dd), s, axis=2)
    want = s.tobytes()
    lagrange_passes.clear()
    for _ in range(3):
        assert lagrange_rows(s, 2, dd).all()
        assert s.tobytes() == want
    assert lagrange_passes == [s.shape[2]] * 3


@pytest.mark.parametrize("dd", [False, True])
def test_lagrange_leaves_a_pair_as_it_leaves_it_alone(dd):
    # a pair that finishes among moving ones stays in place, or in a level
    # gathered from its parent and written back after the passes: either
    # way it ends with the bits it has when reduced alone
    rng = np.random.default_rng(43 + dd)
    cols = lagrange_batch(rng, 150, 2, dd)
    s = pair_state(cols, dd)
    done = lagrange_rows(s, 2, dd)
    for k in range(s.shape[2]):
        t = pair_state([c[k:k + 1] for c in cols], dd)
        assert lagrange_rows(t, 2, dd) == done[k]
        assert t.tobytes() == s[..., k:k + 1].tobytes()


# unimodular pairs whose mu first becomes 0 on pass 1, 2, 3 and 4
FINISH_ON_PASS = {1: ((1, 0), (0, 1)), 2: ((-4, -1), (1, 0)),
                  3: ((-4, -3), (-1, -1)), 4: ((-4, -3), (3, 2))}


def finishing_pairs(passes):
    u, v = (np.array([FINISH_ON_PASS[p][j] for p in passes], dtype=float) for j in (0, 1))
    return u, v, np.zeros(len(passes))


def test_lagrange_gathers_the_moving_pairs_once_the_finished_are_half(lagrange_passes):
    # three of eight pairs finish on pass 1, one on pass 2, two on pass 3
    # and two on pass 4: the finished stay in the state until they are at
    # least half of it, so pass 2 runs on all eight, and the moving pairs
    # are gathered after pass 2 (four of eight) and pass 3 (two of four)
    u, v, zero = finishing_pairs([1, 3, 1, 2, 4, 3, 1, 4])
    got = lagrange(u, v, zero, zero)
    assert lagrange_passes == [8, 8, 4, 2]
    assert got[4].all()
    for k in range(8):
        alone = lagrange(u[k:k + 1], v[k:k + 1], zero[:1], zero[:1])
        assert [x[k:k + 1].tobytes() for x in got] == [x.tobytes() for x in alone]


def test_lagrange_writes_every_level_back_at_the_pass_cap(lagrange_passes, monkeypatch):
    # the pair of bound 1 is reported moved on every pass, which adds 1 to
    # its v bound, so it never converges.  The others are gathered away as
    # in the test above, and the moving ones after passes 3 and 4; after
    # the last pass every level goes back into its parent, so the stuck
    # pair comes back with all 256 pass charges and the others as they are
    # reduced alone
    lagrange_pass = homspace._lagrange_pass

    def stuck(s, *args):
        moved = lagrange_pass(s, *args)
        hold = s[0, BOUND] == 1.0
        s[1, BOUND, hold] += 1.0
        return moved | hold

    monkeypatch.setattr(homspace, "_lagrange_pass", stuck)
    u, v, e = finishing_pairs([1, 3, 1, 2, 1, 4, 3, 1, 4])
    e[4] = 1.0
    got = lagrange(u, v, e, e)
    assert lagrange_passes == [9, 9, 9, 3] + [1] * 252
    assert got[4].tolist() == [True] * 4 + [False] + [True] * 4
    assert got[2][4] == 1.0 and got[3][4] == 257.0
    for k in (0, 1, 2, 3, 5, 6, 7, 8):
        alone = lagrange(u[k:k + 1], v[k:k + 1], e[:1], e[:1])
        assert [x[k:k + 1].tobytes() for x in got] == [x.tobytes() for x in alone]


def test_lagrange_charges_nothing_on_a_reduced_pair():
    # both pairs are Lagrange-reduced already: the one step has mu = 0,
    # which is exact, so zero bounds stay zero
    u = np.array([[1.0, 0.0], [0.5, 0.25]])
    v = np.array([[0.3, 1.0], [-1.0, 1.5]])
    zero = np.zeros(2)
    ru, rv, eu, ev, done = lagrange(u, v, zero, zero)
    assert done.all() and (ru == u).all() and (rv == v).all()
    assert eu.tolist() == ev.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("dd", [False, True])
def test_lagrange_charges_the_documented_bounds(dd):
    # pair 0 takes one step, v <- v - 3 u, to v = (42000, 144000) of norm
    # 150000, then mu = 0; pair 1 is reduced, mu = 0 at once.  A pass
    # charges v with ev + |mu| eu + c_mul |mu| |u| + c_add [mu != 0] |v|, v
    # after the step, with c_mul = c_add = 1.01 U in float64 and 1.01 (9, 4)
    # U^2 in double-double; the terms are of one size, so dropping any of
    # them shows.  lagrange_reduce then adds U |b| to each double-double
    # column b, the rounding of its value to the high part
    c_mul, c_add = (9 * U2 * 1.01, 4 * U2 * 1.01) if dd else (U * 1.01,) * 2
    scale = 1e-16 if dd else 1.0
    eu, ev = np.array([1e-11, 1e-11]) * scale, np.array([3e-11, 3e-11]) * scale
    s = row_state(2, 2, 2, dd)
    s[0, :2] = [[2.0 ** 17, 1.0], [0.0, 0.0]]
    s[1, :2] = [[435216.0, 0.4375], [144000.0, 1.5]]
    if dd:
        s[:, 2:4] = 0.0
    s[0, BOUND], s[1, BOUND] = eu, ev
    t = s.copy()
    homspace._set_norms(s, 2)
    assert lagrange_rows(s, 2, dd).all()
    assert s[1, :2, 0].tolist() == [42000.0, 144000.0]
    want = F(ev[0]) + 3 * F(eu[0]) + 3 * F(c_mul) * 2 ** 17 + F(c_add) * 150000
    assert abs(F(s[1, BOUND, 0]) - want) <= 1e-14 * want
    assert s[0, BOUND].tolist() == eu.tolist() and s[1, BOUND, 1] == ev[1]
    assert lagrange_reduce(t, 2, dd).all()
    for j, norms in ((0, (2 ** 17, 1)), (1, (150000, F(25, 16)))):
        for k, norm in enumerate(norms):
            want = F(s[j, BOUND, k]) + (F(U) * norm if dd else 0)
            assert abs(F(t[j, BOUND, k]) - want) <= 1e-14 * want


def reduced_basis(lam1, mu, theta):
    """A Lagrange-reduced covolume-1 basis (b1, b2) with |b1| = lam1 and
    b1.b2 = mu |b1|^2, b1 at angle theta."""
    e = np.array([math.cos(theta), math.sin(theta)])
    b1 = lam1 * e
    return b1, mu * b1 + np.array([-e[1], e[0]]) / lam1


def test_batch_siegel_near_cusp_matches_scalar():
    # the lambda_1 range a scalar fallback used to serve
    rng = np.random.default_rng(33)
    lam = np.exp(rng.uniform(math.log(1e-3), math.log(0.2), 40))
    b1, b2 = map(np.array, zip(*(
        reduced_basis(x, rng.uniform(-0.5, 0.5), rng.uniform(0, 2 * math.pi))
        for x in lam
    )))
    lam1 = np.sqrt(np.sum(b1 * b1, axis=1))
    for f in (TF("indicator", 1.0), TF("bump", 1.2)):
        vals = siegel_values(np.stack([b1, b2], axis=2), f)
        for i in range(lam.size):
            ref = oracles.siegel_sum(np.column_stack([b1[i], b2[i]]), f)
            if f.kind == "indicator":
                assert vals[i] == ref
            else:
                assert vals[i] == pytest.approx(ref, rel=0, abs=1e-12 * max(1.0, ref))


@pytest.mark.parametrize("lam1", [1e-5, 2e-6])
def test_batch_siegel_deep_cusp_matches_direct_sum(lam1):
    # up to a million vectors, each row c1 b1 + c2 b2 one array in the oracle
    rng = np.random.default_rng(34)
    b1, b2 = reduced_basis(lam1, rng.uniform(-0.5, 0.5), rng.uniform(0, 2 * math.pi))
    radius = 0.987654321  # R / lambda_1 far from an integer
    for f in (TF("indicator", radius), TF("bump", radius)):
        (val,) = siegel_values(np.column_stack([b1, b2])[None], f)
        direct = oracles.siegel_sum(np.column_stack([b1, b2]), f)
        if f.kind == "indicator":
            assert val == direct
        else:
            assert val == pytest.approx(direct, rel=0, abs=1e-12 * max(1.0, direct))


def test_import_path_leaves_out_scipy_integrate_and_stats():
    code = (
        "import boxflow.experiment, boxflow.cli, sys; "
        "print([m for m in sys.modules if m.startswith(('scipy.integrate', 'scipy.stats'))])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(boxflow.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


# -- dimension-3 batch kernel ------------------------------------------------------


def test_batch3_indicator_matches_enumeration_with_ties():
    # the elementary factors of random_sl3 often leave a unit column, so
    # many of these lattices hold vectors exactly on the unit sphere; the
    # float64 rows alone miscount 74 of the 2000
    rng = np.random.default_rng(7)
    mats = np.stack([random_sl3(rng) for _ in range(2000)])
    zero = np.zeros((2000, 3))
    f = TF("indicator", 1.0)
    lam1, (vals,) = kernel(mats, (f,))
    brute = np.array([oracles.siegel_sum(g, f) for g in mats])
    b, e, _ = reduce_bases(mats, zero)
    (raw,), (ties,) = siegel_sums(b, e, (f,), basis_shape(b))
    assert np.count_nonzero(raw != brute) > 0 and ties[raw != brute].all()
    assert vals.tolist() == brute.tolist()
    for g, lam in zip(mats, lam1):
        assert lam == pytest.approx(oracles.shortest(g), rel=1e-9)


def test_batch3_bump_matches_enumeration():
    rng = np.random.default_rng(13)
    mats = np.stack([random_sl3(rng) for _ in range(200)])
    f = TF("bump", 1.2)
    _, (vals,) = kernel(mats, (f,))
    for g, val in zip(mats, vals):
        ref = oracles.siegel_sum(g, f)
        assert val == pytest.approx(ref, rel=0, abs=1e-12 * max(1.0, ref))


def test_batch3_shortest_matches_enumeration():
    rng = np.random.default_rng(8)
    mats = np.stack([random_sl3(rng) for _ in range(100)])
    b, _, done = reduce_bases(mats, np.zeros((100, 3)))
    assert done.all()
    for g, basis in zip(mats, b):
        assert np.linalg.norm(basis[:, 0]) == pytest.approx(oracles.shortest(g), rel=1e-9)


def reduced_basis3(rng, lam1):
    """A reduced basis of covolume about 1 with first column of length
    about lam1: Gram-Schmidt lengths lam1 <= s <= 1/(lam1 s) with s >= 0.3,
    size-reduced coefficients, a random rotation, and entries rounded to
    multiples of 2^-30, so that products with small integer matrices are
    exact."""
    s = math.exp(rng.uniform(math.log(0.3), -0.5 * math.log(lam1)))
    tri = np.eye(3)
    tri[0, 1], tri[0, 2], tri[1, 2] = rng.uniform(-0.5, 0.5, 3)
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return np.round(rot @ np.diag([lam1, s, 1.0 / (lam1 * s)]) @ tri * 2.0 ** 30) / 2.0 ** 30


def test_batch3_near_cusp_matches_enumeration():
    rng = np.random.default_rng(35)
    lam = np.exp(rng.uniform(math.log(1e-3), math.log(0.2), 40))
    bases = [reduced_basis3(rng, x) for x in lam]
    mats = np.stack([g @ random_word(rng, GENS3) for g in bases])
    b, _, done = reduce_bases(mats, np.zeros((40, 3)))
    assert done.all()
    lam1 = np.linalg.norm(b[:, :, 0], axis=1)
    shortest = [oracles.shortest(basis) for basis in bases]
    assert min(shortest) < 2e-3
    for x, found in zip(shortest, lam1):
        assert found == pytest.approx(x, rel=1e-9)
    for f in (TF("indicator", 1.0), TF("bump", 1.2)):
        _, (vals,) = kernel(mats, (f,))
        for basis, val in zip(bases, vals):
            ref = oracles.siegel_sum(basis, f)
            if f.kind == "indicator":
                assert val == ref
            else:
                assert val == pytest.approx(ref, rel=0, abs=1e-12 * max(1.0, ref))


def test_closest_step_charges_the_documented_bound():
    # b3 = y1 b1 + y2 b2 + r for (y1, y2) = (3, -2), (3, 0) and (0, 0), on
    # b1 = 2^17 e1 and b2 = 2^17 e2: the step leaves b3 = r, and charges
    # e3 + |y| e_i plus 1.01 U (|y| |b_i| + |b3|), b3 after each step, none
    # where y = 0; the terms are of one size, so dropping any of them shows
    r = np.array([50000.0, 30000.0, 70000.0])
    y = np.array([[3.0, -2.0], [3.0, 0.0], [0.0, 0.0]])
    e = np.array([1e-11, 2e-11, 3e-11])
    s = row_state(3, 3, 3, False)
    s[0, :3], s[1, :3] = np.eye(3)[:, :1] * 2.0 ** 17, np.eye(3)[:, 1:2] * 2.0 ** 17
    s[2, :3] = r[:, None] + 2.0 ** 17 * np.stack([y[:, 0], y[:, 1], 0 * y[:, 0]])
    s[:, BOUND] = e[:, None]
    homspace._set_norms(s, 3)
    homspace._closest_step(s, np.empty((2, 3, 3)))
    assert (s[2, :3] == r[:, None]).all() and (s[2, NORM] == r @ r).all()
    for k, (y1, y2) in enumerate(y):
        b3 = r + 2.0 ** 17 * np.array([0.0, y2, 0.0])  # after the first step
        want = F(e[2]) + abs(F(y1)) * F(e[0]) + abs(F(y2)) * F(e[1])
        for yi, norm in ((y1, np.linalg.norm(b3)), (y2, np.linalg.norm(r))):
            if yi:
                want += F(U * 1.01) * (abs(F(yi)) * 2 ** 17 + F(norm))
        assert abs(F(s[2, BOUND, k]) - want) <= 1e-14 * want


def greedy_inputs(name):
    """Bases of one of the named batches of
    ``test_greedy_matches_the_exact_oracle``, and the bases of the same
    lattices that the oracle reads."""
    if name == "near_cusp":
        rng = np.random.default_rng(35)
        lam = np.exp(rng.uniform(math.log(1e-3), math.log(0.2), 200))
        bases = np.stack([reduced_basis3(rng, x) for x in lam])
        return np.stack([g @ random_word(rng, GENS3) for g in bases]), bases
    # integer bases of Z^3, many with columns of equal length, in every
    # order: the signed permutation matrices and short words in GENS3
    rng = np.random.default_rng(36)
    perms = [np.eye(3)[:, p] * s for p in ([0, 1, 2], [0, 2, 1], [1, 0, 2],
                                           [1, 2, 0], [2, 0, 1], [2, 1, 0])
             for s in itertools.product((1.0, -1.0), repeat=3)]
    mats = np.stack(perms + [random_word(rng, GENS3) for _ in range(500)])
    return mats, mats


@pytest.mark.parametrize("name", ["near_cusp", "equal_lengths"])
def test_greedy_matches_the_exact_oracle(name):
    mats, bases = greedy_inputs(name)
    f = TF("indicator", 1.0)
    lam1, (vals,) = kernel(mats, (f,))
    for g, lam, val in zip(bases, lam1, vals):
        assert lam == pytest.approx(oracles.shortest(g), rel=1e-9)
        assert val == oracles.siegel_sum(g, f)


def test_greedy_compacts_over_passes(monkeypatch):
    # long words in GENS3 over near-cusp bases take one to several passes,
    # so the finished samples leave the state on at least three passes
    rng = np.random.default_rng(37)
    lam = np.exp(rng.uniform(math.log(1e-3), math.log(0.5), 300))
    bases, mats = [], []
    for x in lam:
        bases.append(reduced_basis3(rng, x))
        mats.append(bases[-1] @ np.linalg.matrix_power(random_word(rng, GENS3),
                                                       int(rng.integers(1, 6))))
    active = []
    closest_step = homspace._closest_step

    def counting(s, w):
        active.append(s.shape[-1])
        return closest_step(s, w)

    monkeypatch.setattr(homspace, "_closest_step", counting)
    b, _, done = reduce_bases(np.stack(mats), rng.uniform(0, 1e-12, (300, 3)))
    assert done.all()
    assert active[0] == 300 and len(active) >= 4
    assert all(x > y for x, y in zip(active, active[1:]))
    for g, basis in zip(bases, b):
        assert np.linalg.norm(basis[:, 0]) == pytest.approx(oracles.shortest(g), rel=1e-9)
    empty = reduce_bases(np.empty((0, 3, 3)), np.empty((0, 3)))
    assert [x.shape for x in empty] == [(0, 3, 3), (0, 3), (0,)]


def test_greedy_writes_back_the_samples_still_moving_at_the_pass_cap(monkeypatch):
    # a closest step that leaves b3's squared norm NaN keeps every sample
    # moving until the pass cap.  With every sample valid the state is
    # reduced in place throughout; with one non-finite sample the others
    # are reduced in a copy, which only the write-back after the last pass
    # returns to the state
    rng = np.random.default_rng(38)
    mats = np.stack([random_sl3(rng) for _ in range(20)])
    e = rng.uniform(0, 1e-12, (20, 3))
    active = []
    closest_step = homspace._closest_step

    def stuck(s, w):
        active.append(s.shape[-1])
        closest_step(s, w)
        s[2, NORM] = np.nan

    monkeypatch.setattr(homspace, "_closest_step", stuck)
    in_place = [np.copy(x) for x in reduce_bases(mats[1:], e[1:])]
    mats[0, :, 2] = np.nan
    b, got_e, done = reduce_bases(mats, e)
    assert active == [19] * 512 and not done.any() and not in_place[2].any()
    assert b[1:].tobytes() == in_place[0].tobytes() != mats[1:].tobytes()
    assert got_e[1:].tobytes() == in_place[1].tobytes()


def test_greedy_changes_no_value_for_a_negative_zero():
    # a finished Lagrange pair keeps its bits but for one case: a
    # coordinate of -0.0 can turn +0.0 on a later pass, once a zero dot
    # product flips the sign of mu.  So bases holding -0.0 may come back
    # with other signs of zero than their +0.0 copies, never with another
    # value.  GridPoly never writes -0.0
    rng = np.random.default_rng(44)
    b = rng.choice([-0.0, 0.0, 1.0, -1.0, 2.0, -2.0, 3.0], (4000, 3, 3))
    e = np.zeros((4000, 3))
    with np.errstate(all="ignore"):
        got, positive = reduce_bases(b, e), reduce_bases(b + 0.0, e)
    assert got[0].tobytes() != positive[0].tobytes()
    for x, y in zip(got, positive):
        assert np.array_equal(x, y, equal_nan=True)


def test_greedy_returns_a_non_finite_sample_at_once(lagrange_passes):
    # identity; an infinite coordinate; a NaN column; a zero column; an
    # infinite bound: only the identity is reduced, in one Lagrange pass on
    # one column, and the others come back as they came, not converged,
    # with no floating-point warning
    b = np.stack([np.eye(3)] * 5)
    b[1, 0, 2] = np.inf
    b[2, :, 2] = np.nan
    b[3, :, 1] = 0.0
    e = np.zeros((5, 3))
    e[4, 1] = np.inf
    with np.errstate(all="raise"):
        rb, re, done = reduce_bases(b, e)
        assert lagrange_passes == [1]
        lagrange_passes.clear()
        assert not reduce_bases(b[1:], e[1:])[2].any()
        assert lagrange_passes == []
    assert done.tolist() == [True, False, False, False, False]
    assert rb.tobytes() == b.tobytes() and re.tobytes() == e.tobytes()
