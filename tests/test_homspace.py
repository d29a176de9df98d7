"""Lattice space: the float64 kernels against the reference oracles of
``oracles``, Siegel counts, Haar references."""

import ast
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import oracles
import pytest

import boxflow
from boxflow import experiment
from boxflow.catalog import get_map
from boxflow.doubledouble import ADD_ERR, MUL_D_ERR, U, U2
from boxflow.errors import DomainError
from boxflow.experiment import BoxSpec
from boxflow.goodness import BoxRegion, GridPoly
from boxflow.homspace import TestFunction as TF
from boxflow.homspace import (
    PREC_TOL,
    haar_expectation,
    parse_observable,
    siegel_batch,
    siegel_sums,
    sl2_lagrange,
    sl2_reduce_batch,
    sl3_greedy,
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


def kernel_shortest(g):
    """lambda_1 of the column lattice of g from the float64 kernel."""
    if g.shape[0] == 2:
        return sl2_reduce_batch(g[None])[2][0]
    return kernel3(g[None], ())[0][0]


def siegel2(mats, f):
    """Siegel values of the float64 2D kernel on a batch of bases."""
    b1, b2, lam1 = sl2_reduce_batch(mats)
    vals, excluded = siegel_batch(b1, b2, lam1, f)
    assert not excluded.any()
    return vals


def test_oracles_import_nothing_from_boxflow():
    # the reference must share no code with the kernel it checks
    tree = ast.parse(Path(oracles.__file__).read_text())
    names = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    names += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert "numpy" in names and not [m for m in names if str(m).startswith("boxflow")]


# -- reduction -----------------------------------------------------------------


def test_reduce_identity():
    b1, b2, lam1 = sl2_reduce_batch(np.eye(2)[None])
    assert lam1[0] == pytest.approx(1.0)
    assert sorted(np.abs(np.stack([b1[0], b2[0]])).sum(axis=1).tolist()) == [1.0, 1.0]


def test_reduce_shear_case():
    g = np.array([[1.0, 0.9], [0.0, 1.0]])
    b1, b2, lam1 = sl2_reduce_batch(g[None])
    assert lam1[0] == pytest.approx(oracles.shortest(g))
    assert {(1.0, 0.0), (-1.0, 0.0)} & {tuple(b1[0]), tuple(b2[0])}


def test_reduce_diagonal():
    assert kernel_shortest(np.diag([2.0, 0.5])) == pytest.approx(0.5)


def test_reduce_matches_enumeration_random():
    rng = np.random.default_rng(42)
    mats = np.stack([random_sl2(rng) for _ in range(100)])
    _, _, lam1 = sl2_reduce_batch(mats)
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
        val = siegel2(g[None], f)[0] if g.shape[0] == 2 else kernel3(g[None], (f,))[1][0][0]
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
    b1, b2, lam1 = sl2_reduce_batch(mats)
    for i in range(0, 500, 17):
        assert lam1[i] == pytest.approx(oracles.shortest(mats[i]), rel=1e-12)


def test_batch_siegel_matches_scalar():
    rng = np.random.default_rng(32)
    mats = np.stack([random_sl2(rng) for _ in range(400)])
    b1, b2, lam1 = sl2_reduce_batch(mats)
    for f in (TF("indicator", 1.0), TF("bump", 1.2)):
        vals, excluded = siegel_batch(b1, b2, lam1, f)
        assert not excluded.any()
        for i in range(0, 400, 13):
            assert vals[i] == pytest.approx(oracles.siegel_sum(mats[i], f), rel=1e-12)


def test_batch_flags_cusp_samples():
    tiny = 1e-8
    mats = np.stack([np.eye(2), np.diag([tiny, 1 / tiny])])
    b1, b2, lam1 = sl2_reduce_batch(mats)
    vals, excluded = siegel_batch(b1, b2, lam1, TF("indicator", 1.0))
    assert not excluded[0] and excluded[1]
    assert vals[0] == 4.0 and vals[1] == 0.0


def reference_lagrange(u, v, eu, ev, u_lo=None, v_lo=None):
    """``sl2_lagrange`` as a loop over (m, d) arrays that compacts on every
    pass in which a sample finishes: the same float operations in the same
    order, so its results are bit-identical.  A sample whose coordinates,
    low parts, bounds or squared norms are not finite on entry, or that
    has a column of squared norm 0, is returned as it came, not
    converged."""
    dd = u_lo is not None
    if dd:
        c_mul, c_add = MUL_D_ERR * U2 * 1.01, ADD_ERR * U2 * 1.01
    else:
        c_mul = c_add = U * 1.01
    state = [u, v, np.asarray(eu, float), np.asarray(ev, float)]
    state += [u_lo, v_lo] if dd else []
    out = [np.empty_like(a) for a in state]
    norms = [np.sum(u * u, axis=1), np.sum(v * v, axis=1)]
    valid = np.isfinite(np.column_stack(state + norms)).all(axis=1)
    valid &= (norms[0] != 0) & (norms[1] != 0)
    for o, a in zip(out, state):
        o[~valid] = a[~valid]
    state = [a[valid] for a in state]
    idx = np.nonzero(valid)[0]
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
            ph, pl = oracles.dd_mul_d(u, lo[0], mu[:, None])
            v, lo[1] = oracles.dd_add(v, lo[1], -ph, -pl)
        else:
            v = v - mu[:, None] * u
        amu = np.abs(mu)
        ev = ev + amu * eu + c_mul * amu * np.sqrt(uu) + c_add * (mu != 0) * np.sqrt(
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
    done = valid.copy()
    done[idx] = False
    if dd:
        eu += U * np.sqrt(np.sum(u * u, axis=1))
        ev += U * np.sqrt(np.sum(v * v, axis=1))
    return u, v, eu, ev, done


def lagrange_batch(rng, m, d, dd):
    """Column pairs with entries from 1 to 1e8.  A third of them are near
    multiples of each other, which takes many passes to reduce; another
    third are small integer vectors, with exact ties in the norms and in
    the rounding of mu.  Then m // 10 more pairs at ratios near +-2^30,
    whose first mu is beyond 2^26, where Dekker's split of mu has a
    nonzero low half."""
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
    args = [u, v, rng.uniform(0, 1e-9, m), rng.uniform(0, 1e-9, m)]
    if dd:
        args += [u * U * rng.uniform(-1, 1, (m, d)), v * U * rng.uniform(-1, 1, (m, d))]
    n = m // 10
    u = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(0, 4, (n, 1))
    ratio = rng.uniform(2.0 ** 29, 2.0 ** 31, (n, 1)) * rng.choice([-1.0, 1.0], (n, 1))
    v = u * ratio + rng.standard_normal((n, d))
    more = [u, v, rng.uniform(0, 1e-9, n), rng.uniform(0, 1e-9, n)]
    if dd:
        more += [u * U * rng.uniform(-1, 1, (n, d)), v * U * rng.uniform(-1, 1, (n, d))]
    return [np.concatenate([a, b]) for a, b in zip(args, more)]


@pytest.mark.parametrize("dd", [False, True])
@pytest.mark.parametrize("d", [2, 3])
def test_lagrange_bit_identical_to_reference_loop(d, dd):
    rng = np.random.default_rng(40 + d + 2 * dd)
    args = lagrange_batch(rng, 3000, d, dd)
    args[0][7] = np.nan  # returned as it came, not converged
    got = sl2_lagrange(*args)
    want = reference_lagrange(*(a.copy() for a in args))
    assert not got[4][7] and np.count_nonzero(~got[4]) == 1
    assert got[0][7].tobytes() == args[0][7].tobytes()
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    empty = [a[:0] for a in args]
    for g, w in zip(sl2_lagrange(*empty), reference_lagrange(*empty)):
        assert g.shape == w.shape and g.size == 0


@pytest.fixture
def lagrange_passes(monkeypatch):
    """The number of active columns of every ``_lagrange_pass`` call."""
    passes = []
    lagrange_pass = boxflow.homspace._lagrange_pass

    def counting(*args):
        passes.append(args[0].shape[1])
        return lagrange_pass(*args)

    monkeypatch.setattr(boxflow.homspace, "_lagrange_pass", counting)
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
        ru, rv, _, _, done = sl2_lagrange(u, v, zero, zero, *lo)
    assert len(lagrange_passes) == 256 and lagrange_passes[-1] == 1
    assert done.tolist() == [False, True]
    assert np.isnan(rv[0]).all()
    assert ru[1].tolist() == [1.0, 0.0] and rv[1].tolist() == [0.0, 1.0]


@pytest.mark.parametrize("dd", [False, True])
def test_lagrange_returns_a_zero_column_at_once(dd, lagrange_passes):
    # |u|^2 = 0 or |v|^2 = 0: mu would be 0/0 on every pass, so the pair is
    # returned as it came, not converged, and never enters a pass
    u = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]])
    v = np.array([[1.0, 2.0], [7.0, 1.0], [0.0, 0.0]])
    e = np.array([0.0, 0.0, 1e-9])
    lo = (np.zeros((3, 2)), np.zeros((3, 2))) if dd else ()
    args = (u, v, e, e, *lo)
    ru, rv, eu, ev, done = sl2_lagrange(*args)
    assert done.tolist() == [False, True, False]
    assert ru[[0, 2]].tolist() == u[[0, 2]].tolist()
    assert rv[[0, 2]].tolist() == v[[0, 2]].tolist()
    assert ru[1].tolist() == [1.0, 0.0] and rv[1].tolist() == [0.0, 1.0]
    # the reduced pair alone: one pass moves v, the next finds mu = 0
    assert lagrange_passes == [1, 1]
    if not dd:
        assert eu[[0, 2]].tolist() == ev[[0, 2]].tolist() == [0.0, 1e-9]
    for g, w in zip((ru, rv, eu, ev, done),
                    reference_lagrange(*(np.copy(a) for a in args))):
        assert g.tobytes() == w.tobytes()


def test_lagrange_charges_nothing_on_a_reduced_pair():
    # both pairs are Lagrange-reduced already: the one step has mu = 0,
    # which is exact, so zero bounds stay zero
    u = np.array([[1.0, 0.0], [0.5, 0.25]])
    v = np.array([[0.3, 1.0], [-1.0, 1.5]])
    zero = np.zeros(2)
    ru, rv, eu, ev, done = sl2_lagrange(u, v, zero, zero)
    assert done.all() and (ru == u).all() and (rv == v).all()
    assert eu.tolist() == ev.tolist() == [0.0, 0.0]


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
        vals, excluded = siegel_batch(b1, b2, lam1, f)
        assert not excluded.any()
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
        (val,), (excluded,) = siegel_batch(b1[None], b2[None], np.array([lam1]), f)
        assert not excluded
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


def kernel3(mats, fs):
    """(lam1, values, excluded) of the certified kernel on float64 bases
    read as exact rationals: greedy reduction, which must certify every
    sample in float64, then ``certified_observables``."""
    b, e, done = sl3_greedy(mats, np.zeros((mats.shape[0], 3)))
    assert done.all() and np.max(e) <= PREC_TOL
    return experiment.certified_observables(
        b, e, fs, lambda k: [[Fraction(float(x)) for x in row] for row in mats[k]]
    )


def test_batch3_indicator_matches_enumeration_with_ties():
    # the elementary factors of random_sl3 often leave a unit column, so
    # many of these lattices hold vectors exactly on the unit sphere; the
    # float64 rows alone miscount 74 of the 2000
    rng = np.random.default_rng(7)
    mats = np.stack([random_sl3(rng) for _ in range(2000)])
    zero = np.zeros((2000, 3))
    f = TF("indicator", 1.0)
    lam1, (vals,), excluded = kernel3(mats, (f,))
    assert not excluded.any()
    brute = np.array([oracles.siegel_sum(g, f) for g in mats])
    b, e, _ = sl3_greedy(mats, zero)
    (raw,), _, (ties,) = siegel_sums(b, e, lam1, (f,))
    assert np.count_nonzero(raw != brute) > 0 and ties[raw != brute].all()
    assert vals.tolist() == brute.tolist()


def test_batch3_bump_matches_enumeration():
    rng = np.random.default_rng(13)
    mats = np.stack([random_sl3(rng) for _ in range(200)])
    f = TF("bump", 1.2)
    _, (vals,), _ = kernel3(mats, (f,))
    for g, val in zip(mats, vals):
        ref = oracles.siegel_sum(g, f)
        assert val == pytest.approx(ref, rel=0, abs=1e-12 * max(1.0, ref))


def test_batch3_shortest_matches_enumeration():
    rng = np.random.default_rng(8)
    mats = np.stack([random_sl3(rng) for _ in range(100)])
    b, _, done = sl3_greedy(mats, np.zeros((100, 3)))
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
    b, _, done = sl3_greedy(mats, np.zeros((40, 3)))
    assert done.all()
    lam1 = np.linalg.norm(b[:, :, 0], axis=1)
    shortest = [oracles.shortest(basis) for basis in bases]
    assert min(shortest) < 2e-3
    for x, found in zip(shortest, lam1):
        assert found == pytest.approx(x, rel=1e-9)
    for f in (TF("indicator", 1.0), TF("bump", 1.2)):
        _, (vals,), excluded = kernel3(mats, (f,))
        assert not excluded.any()
        for basis, val in zip(bases, vals):
            ref = oracles.siegel_sum(basis, f)
            if f.kind == "indicator":
                assert val == ref
            else:
                assert val == pytest.approx(ref, rel=0, abs=1e-12 * max(1.0, ref))


def reference_sub_step(v, ev, y, u, eu):
    """v - y u for an integer y per sample, and the bound of the result:
    ev + |y| eu plus the rounding of the float64 step (none when y = 0)."""
    w = v - y[:, None] * u
    ay = np.abs(y)
    rnd = U * 1.01 * (ay * np.sqrt(np.sum(u * u, axis=1))
                      + (ay > 0) * np.sqrt(np.sum(w * w, axis=1)))
    return w, ev + ay * eu + rnd


def reference_greedy(b, e):
    """``sl3_greedy`` on (m, 3, 3) arrays of columns, with ``np.sum`` over
    the short axes and a stable ``argsort``: the same float operations in
    the same order, so its results are bit-identical.  A sample whose
    coordinates, bounds or squared column norms are not finite on entry,
    or that has a column of squared norm 0, is returned as it came, not
    converged."""
    m = b.shape[0]
    out_b = np.array(b, dtype=float)
    out_e = np.array(e, dtype=float)
    done = np.zeros(m, dtype=bool)
    # the active samples' columns as rows: (sample, column, coordinate)
    cols = out_b.transpose(0, 2, 1)
    norms = np.sum(cols * cols, axis=2)
    valid = np.isfinite(np.column_stack([cols.reshape(m, 9), out_e, norms])).all(axis=1)
    valid &= (norms != 0).all(axis=1)
    cols, errs, idx = cols[valid], out_e[valid], np.nonzero(valid)[0]
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
        b3, e3 = reference_sub_step(b3, errs[:, 2], y1, b1, e1)
        b3, e3 = reference_sub_step(b3, e3, y2, b2, e2)
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


def assert_greedy_matches_reference(b, e):
    got = sl3_greedy(b, e)
    want = reference_greedy(b.copy(), e.copy())
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    return got


def heis3_benchmark_lattices():
    """The 14,976 float64 bases of one benchmark ``heis3`` sweep (the 24^3
    orbit points of the reference, and 24^2 jittered points at T = 10 and
    20) with the column bounds ``certified_reduce`` starts from."""
    heis3 = get_map("heis3")
    cases = [(heis3.orbit_map, heis3.orbit_vars,
              BoxRegion((0.0,) * 3, (1.0,) * 3), "grid")]
    cases += [(heis3.matrix, heis3.map_vars,
               BoxSpec(lam=heis3.default_lambda, T=T, grid=24).realized_region(),
               "jitter") for T in (10.0, 20.0)]
    gs, errs = [], []
    for matrix, map_vars, region, method in cases:
        pts = region.sample_points(24, 0, 24 ** region.dim, method, 1)
        tables = [[GridPoly(p, map_vars) for p in row] for row in matrix.entries]
        g, _, err = experiment._entries_f64(tables, pts)
        gs.append(g)
        errs.append(err)
    return np.concatenate(gs), np.concatenate(errs)


def greedy_inputs(name):
    """(bases, bounds) of one of the named batches of
    ``test_greedy_bit_identical_to_reference_loop``."""
    if name == "heis3_benchmark":
        return heis3_benchmark_lattices()
    if name == "random_sl3":
        rng = np.random.default_rng(7)
        mats = np.stack([random_sl3(rng) for _ in range(2000)])
        return mats, np.zeros((2000, 3))
    if name == "random_sl3_bounds":
        rng = np.random.default_rng(9)
        mats = np.stack([random_sl3(rng) for _ in range(1000)])
        return mats, rng.uniform(0, 1e-9, (1000, 3))
    if name == "near_cusp":
        rng = np.random.default_rng(35)
        lam = np.exp(rng.uniform(math.log(1e-3), math.log(0.2), 200))
        return (np.stack([reduced_basis3(rng, x) @ random_word(rng, GENS3) for x in lam]),
                rng.uniform(0, 1e-12, (200, 3)))
    # integer bases, many with columns of equal length, in every order:
    # the signed permutation matrices and short words in GENS3
    rng = np.random.default_rng(36)
    perms = [np.eye(3)[:, p] * s for p in ([0, 1, 2], [0, 2, 1], [1, 0, 2],
                                           [1, 2, 0], [2, 0, 1], [2, 1, 0])
             for s in itertools.product((1.0, -1.0), repeat=3)]
    mats = np.stack(perms + [random_word(rng, GENS3) for _ in range(500)])
    return mats, np.zeros((mats.shape[0], 3))


@pytest.mark.parametrize("name", ["random_sl3", "random_sl3_bounds", "heis3_benchmark",
                                  "near_cusp", "equal_lengths"])
def test_greedy_bit_identical_to_reference_loop(name):
    b, e = greedy_inputs(name)
    _, _, done = assert_greedy_matches_reference(b, e)
    assert done.all()


def test_greedy_compacts_over_passes_bit_identically(monkeypatch):
    # long words in GENS3 over near-cusp bases take one to several passes,
    # so the finished samples leave the state on at least three passes
    rng = np.random.default_rng(37)
    lam = np.exp(rng.uniform(math.log(1e-3), math.log(0.5), 300))
    mats = np.stack([reduced_basis3(rng, x) @ np.linalg.matrix_power(
        random_word(rng, GENS3), int(rng.integers(1, 6))) for x in lam])
    active = []
    closest_step = boxflow.homspace._closest_step

    def counting(s):
        active.append(s.shape[1])
        return closest_step(s)

    monkeypatch.setattr(boxflow.homspace, "_closest_step", counting)
    _, _, done = assert_greedy_matches_reference(mats, rng.uniform(0, 1e-12, (300, 3)))
    assert done.all()
    assert active[0] == 300 and len(active) >= 4
    assert all(x > y for x, y in zip(active, active[1:]))
    empty = (np.empty((0, 3, 3)), np.empty((0, 3)))
    for g, w in zip(sl3_greedy(*empty), reference_greedy(*empty)):
        assert g.shape == w.shape and g.size == 0


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
        rb, re, done = sl3_greedy(b, e)
        assert lagrange_passes == [1]
        lagrange_passes.clear()
        assert not sl3_greedy(b[1:], e[1:])[2].any()
        assert lagrange_passes == []
        for g, w in zip((rb, re, done), reference_greedy(b, e)):
            assert g.tobytes() == w.tobytes()
    assert done.tolist() == [True, False, False, False, False]
    assert rb.tobytes() == b.tobytes() and re.tobytes() == e.tobytes()
