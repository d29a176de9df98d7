"""Output fingerprints of the benchmark workloads, to show that a change
leaves every output byte-identical.

    python tests/fingerprints.py [--seeds 1,7,11] [WORKLOAD ...]

Run from a checkout: it imports that checkout's ``src/`` and ``bench/``
and writes nothing.  For each workload (all four by default) and seed it
runs one iteration and prints one line: the workload, the seed, the first
16 hex digits of the sha256 of the workload's fingerprint of the output,
and the count of errors from the workload's own ``check``.  It exits with
1 when any iteration has an error, 2 on an unknown workload.

Two checkouts agree when their outputs ``diff`` clean.  The hashes are
not pinned anywhere: numpy's ``**`` differs in the last bit between hosts.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# one BLAS thread, as the benchmark runs; no bytecode written beside the sources
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from boxflow.errors import BoxflowError  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def fingerprint_line(name: str, seed: int) -> tuple:
    """The printed line of one iteration and its error count."""
    wl = WORKLOADS[name]
    st = wl.setup(seed)
    try:
        out = wl.run(st)
    except BoxflowError as err:
        return f"{name} seed={seed} {'-' * 16} errors=1 ({type(err).__name__}: {err})", 1
    errs = wl.check(st, out)
    digest = hashlib.sha256(wl.fingerprint(out).encode()).hexdigest()[:16]
    return f"{name} seed={seed} {digest} errors={len(errs)}", len(errs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,7,11", help="comma-separated seeds")
    ap.add_argument("workloads", nargs="*", help=f"default: {' '.join(WORKLOADS)}")
    args = ap.parse_args(argv)
    names = args.workloads or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workloads: {', '.join(unknown)}", file=sys.stderr)
        return 2
    errors = 0
    for name in names:
        for seed in (int(s) for s in args.seeds.split(",")):
            line, n = fingerprint_line(name, seed)
            print(line, flush=True)
            errors += n
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
