"""In-memory span tracer that wraps boxflow's public functions from outside.

Each wrapped call records one span ``[name, start_ns, end_ns, parent, n]``:
``parent`` is the index of the enclosing span (-1 at the root) and ``n`` is
an optional item count taken from the call's arguments (samples, points).
A layer's self time is its span's duration minus the time covered by its
direct child spans.

Functions are replaced at the names through which their callers reach them
(``boxflow.experiment.sl2_reduce_batch``, not ``boxflow.homspace``'s), so
calls made inside the program are traced without changing it.  A name that
no longer exists is recorded as absent instead of failing, so the trace
keeps working after refactors delete or rename a function.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

_now = time.perf_counter_ns


def count_rows(args, kwargs):
    """Item count of a call: the length of its first argument."""
    return int(np.shape(args[0])[0])


class Tracer:
    """Records spans while installed; ``restore`` puts the originals back."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._patched = []

    # -- instrumentation ----------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None, result=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``count(args, kwargs)`` gives the span's item count; ``result(out)``
        may post-process the return value (used to wrap returned closures).
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(f"{owner.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = count(args, kwargs) if count else 0
            out = tracer.call(name, n, fn, args, kwargs)
            return result(out) if result else out

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))

    def wrap_closure(self, fn, name: str, count=count_rows):
        """Span-recording version of a function value (not an attribute)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, count(args, kwargs), fn, args, kwargs)

        return wrapper

    def call(self, name, n, fn, args, kwargs):
        rec = [name, _now(), 0, self._stack[-1] if self._stack else -1, n]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = _now()
            self._stack.pop()

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def aggregate(spans: list) -> dict:
    """Per-name totals of one batch of spans.

    Returns ``{name: {"calls", "total_s", "self_s", "n"}}``, plus the same
    totals keyed ``name~under_<a>`` for every distinct ancestor name ``a``
    of a span, so callers can split a layer by where it was called from.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "n": 0})

    def add(key, dur, self_ns, n):
        rec = out[key]
        rec["calls"] += 1
        rec["total_s"] += dur * 1e-9
        rec["self_s"] += self_ns * 1e-9
        rec["n"] += n

    for i, (name, start, end, parent, n) in enumerate(spans):
        dur = end - start
        self_ns = dur - child_ns[i]
        add(name, dur, self_ns, n)
        seen = set()
        p = parent
        while p >= 0:
            anc = spans[p][0]
            if anc not in seen and anc != name:
                seen.add(anc)
                add(f"{name}~under_{anc}", dur, self_ns, n)
            p = spans[p][3]
    return dict(out)
