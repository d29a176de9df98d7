"""Benchmark smoke test: every workload of ``bench/`` runs, passes its own
gates and gives the same output when traced, so a change that breaks the
benchmark fails here first."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# call-site names the sweeps no longer use; the trace records them as absent
STALE_NAMES = {
    "boxflow.experiment.sl2_reduce_batch",
    "boxflow.experiment.siegel_transform",
    "boxflow.experiment.reduce_basis",
    "boxflow.experiment.poly_grid_fn",
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_gates_traced_and_untraced(name):
    wl = workloads.WORKLOADS[name]
    st = wl.setup(1)
    out = wl.run(st)
    assert wl.check(st, out) == []
    tracer = Tracer()
    workloads.instrument(tracer)
    try:
        traced = tracer.call(wl.root, 0, wl.run, (st,), {})
    finally:
        tracer.restore()
    assert wl.fingerprint(traced) == wl.fingerprint(out)
    assert tracer.spans
    assert set(tracer.absent) <= STALE_NAMES
    if getattr(wl, "oracle", False):
        per_box = wl.oracle_check(st)
        assert set(per_box) == {f"{T:g}" for T in wl.T_list}
        assert all(box["compared"] > 0 for box in per_box.values())
