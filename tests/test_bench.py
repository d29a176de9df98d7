"""Benchmark smoke tests: every workload of ``bench/`` runs, passes its own
gates and gives the same output when traced, and the benchmark's command
line completes a correct run, so a change that breaks the benchmark fails
here first."""

import json
import re
import shutil
import subprocess
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
    # one Siegel kernel for both dimensions, homspace.siegel_sums
    "boxflow.experiment.siegel_batch",
    # the scalar enumeration left src/ for tests/oracles.py
    "boxflow.homspace.siegel_transform",
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
        # the float64-only kernels that the bench oracle compares are gone
        # from boxflow; test_certified.py compares the certified kernel,
        # recount included, with the exact oracle on these boxes
        assert wl.oracle_check(st) is None


def test_benchmark_command_completes_a_correct_run(tmp_path):
    # BENCHMARK.json's own command, with its set-up child processes, on a
    # copy of the tree (the run writes its records beside bench/)
    root = BENCH.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for part in ("bench", "src"):
        shutil.copytree(root / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        spec["command"] + ["--workload", "orbit3d_heis3", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_fingerprint_tool_prints_one_line_per_workload_and_seed():
    # tests/fingerprints.py shows a change byte-identical by a diff of its
    # output; no hash is pinned, since numpy's ** differs between hosts
    tool = BENCH.parent / "tests" / "fingerprints.py"
    proc = subprocess.run([sys.executable, str(tool), "--seeds", "1", "orbit3d_heis3"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"orbit3d_heis3 seed=1 [0-9a-f]{16} errors=0\n", proc.stdout)
