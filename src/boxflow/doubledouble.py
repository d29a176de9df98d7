"""Double-double arithmetic, elementwise and in place on float64 numpy
arrays (Dekker 1971).

A double-double number is an unevaluated sum hi + lo of two float64
arrays, normalized: |lo| <= ulp(hi) / 2 <= U |hi|, about 106 bits.  Only
the operations the certified lattice pipeline needs are provided.  Each
takes normalized inputs and writes a normalized result into arrays the
caller owns, with its temporaries in caller-owned scratch arrays (``out=``
throughout), so the passes over one chunk reuse one set of temporaries.
Each states the error bound it is charged with, in units of ``U2``, the
square of the float64 unit roundoff U, to first order and barring
underflow: the callers' factor 1.01 absorbs the factors 1 + O(U).  The
operations and their order are Dekker's two_prod, two_sum and
quick_two_sum, so the bits are those of the textbook functional forms.

There is no fused multiply-add in numpy, so exact products use Dekker's
splitting (``split``), valid while |a| < 2^996.
"""

from __future__ import annotations

import numpy as np

U = 2.0 ** -53
U2 = U * U

ADD_MUL_ERR = (9.0, 4.0)

# samples per chunk of the lattice kernel in both dimensions
# (``experiment._CHUNK``), which runs on coordinate rows of this length:
# its states, scratch rows and ``goodness.GridPoly.dd`` temporaries stay
# in cache and are recycled by the allocator rather than mapped afresh.
# Blocking the double-double loops of 16,384-sample chunks this way made
# them about 1.6 times faster (2-core Xeon); in 3D a chunk of this size
# makes about 8 times fewer numpy calls per sample than one of 1,024
BLOCK = 1 << 13

_SPLITTER = 134217729.0  # 2^27 + 1


def split(a):
    """Dekker's split (hi, lo) of a, hi + lo == a with 26-bit halves."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod_into(a, b, b_split, p, e, w):
    """p + e == a b exactly, p = fl(a b), for ``b_split`` = split(b); ``w``
    holds three scratch arrays."""
    ah, al, t = w[:3]
    bh, bl = b_split
    np.multiply(a, b, out=p)
    np.multiply(_SPLITTER, a, out=t)
    np.subtract(t, a, out=ah)
    np.subtract(t, ah, out=ah)
    np.subtract(a, ah, out=al)
    # ((ah bh - p) + ah bl + al bh) + al bl
    np.multiply(ah, bh, out=e)
    np.subtract(e, p, out=e)
    np.multiply(ah, bl, out=t)
    np.add(e, t, out=e)
    np.multiply(al, bh, out=t)
    np.add(e, t, out=e)
    np.multiply(al, bl, out=t)
    np.add(e, t, out=e)


def _two_sum_into(a, b, s, e, x):
    """s + e == a + b exactly, s = fl(a + b); ``s``, ``e`` and the scratch
    array ``x`` alias neither a nor b."""
    np.add(a, b, out=s)
    np.subtract(s, a, out=x)
    np.subtract(s, x, out=e)
    np.subtract(a, e, out=e)
    np.subtract(b, x, out=x)
    np.add(e, x, out=e)


def dd_mul_d_into(hi, lo, b, b_split, out, w):
    """out <- (hi + lo) * b for float64 b with ``b_split`` = split(b), with
    relative error 2 U2 (Joldes, Muller and Popescu, ACM TOMS 2017);
    ``out`` = (out_hi, out_lo) may be (hi, lo) itself.  ``w`` holds five
    scratch arrays of hi's shape."""
    p, e, t = w[0], w[1], w[4]
    _two_prod_into(hi, b, b_split, p, e, w[2:])
    np.multiply(lo, b, out=t)
    np.add(e, t, out=e)
    # quick_two_sum(p, e)
    oh, ol = out
    np.add(p, e, out=oh)
    np.subtract(oh, p, out=t)
    np.subtract(e, t, out=ol)


def dd_sum_into(ahi, alo, bhi, blo, w):
    """(ahi, alo) <- a + b: (s, e) = two_sum(ahi, bhi), then two_sum(s,
    e + (alo + blo)); b may be a itself.  ``w`` holds three scratch arrays
    of ahi's shape.

    Only the two float64 additions round, alo + blo by U2 (|ahi| + |bhi|)
    and the second, as |e| <= U |ahi + bhi|, by (2 + U) U2 (|ahi| + |bhi|),
    at most: 3 U2 (|a| + |b|) to first order."""
    s, e, x = w[:3]
    _two_sum_into(ahi, bhi, s, e, x)
    np.add(alo, blo, out=x)
    np.add(e, x, out=e)
    _two_sum_into(s, e, ahi, alo, x)


def dd_add_mul_into(vhi, vlo, uhi, ulo, b, b_split, w):
    """(vhi, vlo) <- v + b u for float64 b with ``b_split`` = split(b),
    fused: (p, e) = two_prod(uhi, b), (s, x) = two_sum(vhi, p), then
    two_sum(s, l) with l = ((vlo + b ulo) + e) + x.  ``w`` holds five
    scratch arrays of vhi's shape.  With b = 0 the value is unchanged.

    The error is that of the four roundings in l.  Let M = |b uhi|,
    V = |vhi| and W = |v + b u|; then |b ulo| <= U M, |vlo| <= U V,
    |e| <= U M, and |x| <= U |vhi + p| <= U W to first order, as
    vhi + p = v + b u - e - vlo - b ulo.  To first order b ulo rounds by
    U2 M, vlo + b ulo by U2 (V + M), adding e by U2 (V + 2M) and l, about
    x + e + vlo + b ulo, by U2 (W + 2M + V): U2 (6M + 3V + W) in all.
    With V <= W + |b u| and M <= |b u| that is U2 (9 |b u| + 4W), the
    charge ``ADD_MUL_ERR``."""
    p, e, s, x, t = w[:5]
    _two_prod_into(uhi, b, b_split, p, e, w[2:])
    _two_sum_into(vhi, p, s, x, t)
    np.multiply(ulo, b, out=t)
    np.add(vlo, t, out=t)
    np.add(t, e, out=t)
    np.add(t, x, out=t)
    _two_sum_into(s, t, vhi, vlo, x)
