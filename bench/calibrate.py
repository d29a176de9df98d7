"""Fixed calibration kernel: how fast this machine runs at the moment.

On a shared host the same iteration can take 1.5x longer for minutes at a
time when neighbours are busy.  Those slow phases hit every kind of code
alike, so the benchmark times this kernel between iterations and also
reports each iteration's time in units of the kernel's median time just
before and after it.

The kernel mixes what the workloads do: NumPy passes over a sample array the
size of a quarter chunk, a scalar float loop and Fraction arithmetic.  It
does not use boxflow and must never change, or normalized figures from
before and after the change stop being comparable.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

_N = 16384


def kernel() -> float:
    rng = np.random.default_rng(12345)
    u = rng.random((_N, 2))
    v = rng.random((_N, 2))
    for _ in range(30):
        uu = np.sum(u * u, axis=1)
        mu = np.round(np.sum(u * v, axis=1) / uu)
        v = v - 1e-3 * mu[:, None] * u
    s = 0.0
    for i in range(20000):
        s += (i % 7) * 0.5 - s * 1e-6
    q = Fraction(0)
    for i in range(1, 400):
        q += Fraction(i % 13 - 6, i) ** 2
    return s + float(v[0, 0]) + float(q)


def timed(reps: int) -> list:
    """Wall times of ``reps`` kernel runs."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def timed_for(seconds: float) -> list:
    """Wall times of kernel runs repeated for about ``seconds``, at least one."""
    out = timed(1)
    while sum(out) < seconds:
        out += timed(1)
    return out
