"""Adapters between the (m, d) columns and (m, N, N) arrays of bases that
the tests hold and the row state that ``boxflow.homspace`` reduces in
place."""

from boxflow.homspace import BOUND, lagrange_reduce, row_state, sl3_greedy


def lagrange(u, v, eu, ev, u_lo=None, v_lo=None):
    """``homspace.lagrange_reduce`` on the (m, d) columns u and v, with
    their low parts u_lo and v_lo in double-double, and their bounds eu
    and ev: packed into a row state, reduced in place and unpacked.
    Returns (u, v, eu, ev, done)."""
    m, d = u.shape
    dd = u_lo is not None
    s = row_state(2, d, m, dd)
    for c, col, lo, e in zip(s, (u, v), (u_lo, v_lo), (eu, ev)):
        c[:d] = col.T
        if dd:
            c[d:2 * d] = lo.T
        c[BOUND] = e
    done = lagrange_reduce(s, d, dd)
    return (s[0, :d].T.copy(), s[1, :d].T.copy(), s[0, BOUND].copy(),
            s[1, BOUND].copy(), done)


def reduce_bases(b, e):
    """The bases b (m, N, N), N = 2 or 3, columns b[:, :, j], with column
    bounds e (m, N), reduced in their row state: Lagrange
    (``lagrange_reduce``) or greedy (``sl3_greedy``).  Returns (b, e, done),
    with b and e views of the state, as ``experiment.certified_reduce``
    returns them."""
    m, n = b.shape[:2]
    s = row_state(n, n, m, False)
    s[:, :n] = b.transpose(2, 1, 0)
    s[:, BOUND] = e.T
    done = lagrange_reduce(s, 2, False) if n == 2 else sl3_greedy(s)
    return s[:, :n].transpose(2, 1, 0), s[:, BOUND].T, done
