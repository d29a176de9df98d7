"""Double-double arithmetic, elementwise and in place on float64 numpy
arrays (Dekker 1971).

A double-double number is an unevaluated sum hi + lo of two float64
arrays with |lo| <= ulp(hi) / 2, carrying about 106 bits.  Only the
operations the certified lattice pipeline needs are provided, each with
the relative error bound it is charged with (in units of ``U2``, the
square of the float64 unit roundoff; Joldes, Muller and Popescu, ACM TOMS
2017):

- ``dd_mul_d_into``: double-double times float64, <= 2 U2;
- ``dd_add_into``: accurate double-double sum, <= 3 U2;
- ``dd_sub_mul_d``: v <- v - b u, the two above on the negated product.

Each writes its result into arrays the caller owns and keeps its
temporaries in caller-owned scratch arrays (``out=`` throughout), so the
passes over one chunk reuse one set of temporaries.
The operations and their order are Dekker's two_prod, two_sum and
quick_two_sum, so the bits are those of the textbook functional forms.

There is no fused multiply-add in numpy, so exact products use Dekker's
splitting (``split``), valid while |a| < 2^996.
"""

from __future__ import annotations

import numpy as np

U = 2.0 ** -53
U2 = U * U

MUL_D_ERR = 2.0
ADD_ERR = 3.0

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


def dd_mul_d_into(hi, lo, b, b_split, out, w):
    """out <- (hi + lo) * b for float64 b with ``b_split`` = split(b);
    ``out`` = (out_hi, out_lo) may be (hi, lo) itself.  ``w`` holds five
    scratch arrays of hi's shape."""
    p, ah, al, e, t = w[:5]
    bh, bl = b_split
    np.multiply(hi, b, out=p)
    np.multiply(_SPLITTER, hi, out=t)
    np.subtract(t, hi, out=ah)
    np.subtract(t, ah, out=ah)
    np.subtract(hi, ah, out=al)
    # two_prod's error ((ah bh - p) + ah bl + al bh) + al bl, plus lo b
    np.multiply(ah, bh, out=e)
    np.subtract(e, p, out=e)
    np.multiply(ah, bl, out=t)
    np.add(e, t, out=e)
    np.multiply(al, bh, out=t)
    np.add(e, t, out=e)
    np.multiply(al, bl, out=t)
    np.add(e, t, out=e)
    np.multiply(lo, b, out=t)
    np.add(e, t, out=e)
    # quick_two_sum(p, e)
    oh, ol = out
    np.add(p, e, out=oh)
    np.subtract(oh, p, out=t)
    np.subtract(e, t, out=ol)


def dd_add_into(ahi, alo, bhi, blo, w):
    """(ahi, alo) <- (ahi + alo) + (bhi + blo).  ``w`` holds four scratch
    arrays of ahi's shape."""
    s, e, t, x = w[:4]
    # two_sum(ahi, bhi) -> (s, e)
    np.add(ahi, bhi, out=s)
    np.subtract(s, ahi, out=x)
    np.subtract(s, x, out=e)
    np.subtract(ahi, e, out=e)
    np.subtract(bhi, x, out=x)
    np.add(e, x, out=e)
    # two_sum(alo, blo) -> (t, f), f kept in ahi
    np.add(alo, blo, out=t)
    np.subtract(t, alo, out=x)
    np.subtract(t, x, out=ahi)
    np.subtract(alo, ahi, out=ahi)
    np.subtract(blo, x, out=x)
    np.add(ahi, x, out=ahi)
    # quick_two_sum(s, e + t) -> (t, e)
    np.add(e, t, out=e)
    np.add(s, e, out=t)
    np.subtract(t, s, out=x)
    np.subtract(e, x, out=e)
    # quick_two_sum(t, e + f)
    np.add(e, ahi, out=e)
    np.add(t, e, out=ahi)
    np.subtract(ahi, t, out=x)
    np.subtract(e, x, out=alo)


def dd_sub_mul_d(vhi, vlo, uhi, ulo, b, w):
    """(vhi, vlo) <- (vhi + vlo) - b (uhi + ulo) for float64 b: the product,
    negated, then added.  ``w`` holds seven scratch arrays of vhi's
    shape."""
    ph, pl = w[0], w[1]
    dd_mul_d_into(uhi, ulo, b, split(b), (ph, pl), w[2:])
    np.negative(ph, out=ph)
    np.negative(pl, out=pl)
    dd_add_into(vhi, vlo, ph, pl, w[2:])
