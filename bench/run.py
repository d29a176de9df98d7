"""boxflow benchmark: closed-loop workloads with correctness gates and an
optional span trace.

Usage, from the repository root:

    python3 bench/run.py --workload sweep2d_ul --seed 1 --seconds 12 --trace 0

``--workload`` is one of ``sweep2d_ul``, ``bcond2d_poly23``,
``orbit3d_heis3``, ``symbolic_catalog``, or ``all`` to run the four in turn
in one process.  The run repeats the workload's iteration (one sweep call,
or one catalog pass) until ``--seconds`` have passed, at least once, with
``workers=1`` and one BLAS thread, timing a fixed calibration kernel
between iterations (``calibrate.py``).  It imports boxflow only from
``src/`` next to this directory and exits with code 2 if that is missing.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced iterations and prints the per-layer metrics
plus the tracing overhead (traced minus untraced median iteration time).
Every iteration is checked (see ``workloads.py``); a failed check counts in
``failed`` and makes the exit code 1.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A run
record (revision, nproc, versions, seed, thread settings, every figure) and,
when traced, the raw spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: the harness is single-worker by design, and
# thread pools would add run-to-run noise
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

# fresh interpreters per run for setup_s; the median damps cold-cache starts
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 120
# calibration time after each iteration, as a share of that iteration
CALIB_SHARE = 0.05

# iter_p50_norm is the median over iterations of the iteration time in
# units of the calibration kernel's median time just before and after it
# (see calibrate.py); raw wall times swing by a third between runs on a
# shared host, these ratios far less
END_TO_END = {"iter_p50_norm": "calib", "setup_s": "s", "peak_rss_mb": "MB"}
# printed and recorded, but not gated: noisy wall times, zero on a correct
# run, or defined on the lattice workloads only
REPORTED = {"iter_p50_s": "s", "calib_p50_s": "s", "samples_per_s": "1/s",
            "failed_frac": "ratio", "oracle_mismatch_frac": "ratio"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_per_sample")):
        return "ratio"
    return "count"


def git_revision() -> str:
    """HEAD commit read from .git without running git; the benchmark may
    run in a plain copy of the tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(seed: int) -> dict:
    import numpy

    return {
        "revision": git_revision(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "setup_runs": SETUP_RUNS,
    }


def workload_whys() -> dict:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {w["name"]: w["why"] for w in spec.get("workloads", [])}


def measure_setup(name: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import boxflow, build
    the catalog and do the workload's symbolic prep, then exit."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S, text=True,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {name} failed: {proc.stderr.strip()}")
    return statistics.median(times)


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    import calibrate
    import workloads
    from boxflow.errors import BoxflowError
    from spans import Tracer, aggregate

    tracer = Tracer()
    setup_layers = {}
    if trace:
        workloads.instrument(tracer)
        try:
            st = tracer.call("setup", 0, wl.setup, (seed,), {})
        finally:
            tracer.restore()
        setup_spans = tracer.take()
        setup_layers = workloads.setup_metrics(aggregate(setup_spans))
    else:
        st = wl.setup(seed)

    iterations, layer_rows, span_log = [], [], []
    # calib[i] and calib[i + 1] are timed just before and after iteration i
    calib = [calibrate.timed(5)]
    first_fp = None
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(iterations) % 2 == 1
        if traced:
            workloads.instrument(tracer)
        out, errs = None, []
        t0 = time.perf_counter()
        try:
            out = tracer.call(wl.root, 0, wl.run, (st,), {}) if traced else wl.run(st)
        except BoxflowError as err:
            errs.append(f"{type(err).__name__}: {err}")
        finally:
            dt = time.perf_counter() - t0
            if traced:
                tracer.restore()
        if out is not None:
            errs += wl.check(st, out)
            fp = wl.fingerprint(out)
            if first_fp is None:
                first_fp = fp
            elif fp != first_fp:
                errs.append("output differs from the first iteration of this run")
        it = {"traced": traced, "seconds": dt, "errors": errs}
        if isinstance(wl, workloads.LatticeSweep) and out is not None:
            it["samples"] = wl.samples(out)
        iterations.append(it)
        calib.append(calibrate.timed_for(CALIB_SHARE * dt))
        if traced:
            spans = tracer.take()
            span_log.append(spans)
            layer_rows.append(workloads.layer_metrics(aggregate(spans), wl, st, out))
            layer_rows[-1]["trace.spans"] = len(spans)
        kinds = {i["traced"] for i in iterations}
        if time.perf_counter() >= deadline and len(kinds) == (2 if trace else 1):
            break
    calib[-1] += calibrate.timed(5)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untimed = [i for i in iterations if not i["traced"]]
    iter_p50 = statistics.median(i["seconds"] for i in untimed)
    iter_norm = [it["seconds"] / statistics.median(calib[k] + calib[k + 1])
                 for k, it in enumerate(iterations) if not it["traced"]]
    failed = sum(1 for i in iterations if i["errors"])
    end_to_end = {"iter_p50_norm": statistics.median(iter_norm)}
    if not trace:
        # set-up is not a per-layer figure; skipping it keeps traced runs short
        end_to_end["setup_s"] = measure_setup(wl.name, seed)
    end_to_end["peak_rss_mb"] = peak_rss_mb
    result = {
        "workload": wl.name,
        "end_to_end": end_to_end,
        "reported": {"iter_p50_s": iter_p50,
                     "calib_p50_s": statistics.median(t for c in calib for t in c),
                     "failed_frac": failed / len(iterations)},
        "iterations": iterations,
        "calibration_s": calib,
        "attempted": len(iterations),
        "failed": failed,
        "absent": tracer.absent,
    }
    if "samples" in untimed[0]:
        result["reported"]["samples_per_s"] = statistics.median(
            i["samples"] / i["seconds"] for i in untimed)
    per_box = wl.oracle_check(st) if not trace and getattr(wl, "oracle", False) else None
    if per_box is not None:
        compared = sum(b["compared"] for b in per_box.values())
        result["oracle"] = per_box
        result["reported"]["oracle_mismatch_frac"] = (
            sum(b["mismatched"] for b in per_box.values()) / compared)
    if trace:
        traced_p50 = statistics.median(i["seconds"] for i in iterations if i["traced"])
        layers = {k: statistics.median(row[k] for row in layer_rows) for k in layer_rows[0]}
        layers.update(setup_layers)
        layers["trace.overhead_s"] = traced_p50 - iter_p50
        layers["trace.absent"] = len(tracer.absent)
        result["per_layer"] = layers
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{wl.name}_seed{seed}_spans.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": wl.name, "seed": seed, "absent": tracer.absent,
                       "fields": ["name", "start_ns", "end_ns", "parent", "n"],
                       "setup": setup_spans, "iterations": span_log}, fh)
    return result


def emit(results: list, trace: bool, seed: int) -> int:
    """Print every metric, write the run record, print the JSON line."""
    metrics = {}
    prefix = len(results) > 1
    for res in results:
        name = res["workload"]
        shown = {**res["end_to_end"], **res["reported"]}
        for key, value in shown.items():
            unit = END_TO_END.get(key) or REPORTED[key]
            print(f"{name:18s} {key:24s} {value:.6g} {unit}")
        for err in dict.fromkeys(e for i in res["iterations"] for e in i["errors"]):
            print(f"{name:18s} GATE FAILED: {err}")
        for label in res["absent"]:
            print(f"{name:18s} layer absent: {label}")
        if trace:
            for key, value in res["per_layer"].items():
                print(f"{name:18s} {key:52s} {value:.6g} {layer_unit(key)}")
        chosen = res["per_layer"] if trace else res["end_to_end"]
        for key, value in chosen.items():
            unit = layer_unit(key) if trace else END_TO_END[key]
            metrics[f"{name}.{key}" if prefix else key] = {"value": value, "unit": unit}

    whys = workload_whys()
    record = {**run_record(seed), "trace": trace,
              "why": {r["workload"]: whys.get(r["workload"]) for r in results},
              "results": results}
    OUT.mkdir(exist_ok=True)
    tag = results[0]["workload"] if len(results) == 1 else "all"
    path = OUT / f"{tag}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"run record: {path.relative_to(ROOT)}")

    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        import boxflow
    except ImportError as err:
        print(f"cannot import boxflow from {SRC}: {err}", file=sys.stderr)
        return 2
    if Path(boxflow.__file__).resolve().parent.parent != SRC:
        print(f"boxflow imported from {boxflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.setup_only:
        WORKLOADS[names[0]].setup(args.seed)
        return 0
    results = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
               for n in names]
    return emit(results, bool(args.trace), args.seed)


if __name__ == "__main__":
    sys.exit(main())
