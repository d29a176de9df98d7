"""The mutation register: changes to ``src/`` that named tests must
catch, kept so that they can be run again after any edit to the tests.

    python tests/mutants.py [name ...]

For each registered mutation (all of them, or the named ones) the runner
copies ``src/``, ``tests/``, ``bench/``, ``BENCHMARK.json`` and
``pyproject.toml`` to a temporary directory, replaces the mutation's old
text by its new text there, and runs the mutation's tests with this
interpreter's directory first on ``PATH`` (the benchmark smoke test runs
``python3``).  A mutation is killed when every one of its tests fails.

A mutation with ``until`` set is a known survivor: its tests are the
contract tests it gets past today, and ``until`` names the open item
(ROADMAP.md) whose test is to kill it.  The runner reports it as a
recorded survivor while its tests pass.  It exits with 1 when a mutation
that should be killed survives, or when a recorded survivor is killed and
the register needs updating.

``tests/test_mutants.py`` checks in Tier-1 that each old text occurs
exactly once in ``src/`` and that every registered test id is collected,
so that the register cannot go stale unseen: pytest exits with 4, not 1,
on an id it does not find, which the runner would not count as a failure.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "BENCHMARK.json", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/boxflow
    old: str
    new: str
    tests: tuple  # pytest ids, relative to the repository root
    until: str = ""  # for a known survivor: the open item that will kill it


_CERT = "tests/test_certified.py::"
_NEAR_TIES = _CERT + "test_near_ties_are_counted_exactly_or_flagged"
_COVER2 = _CERT + "test_2d_bounds_cover_the_distance_to_the_exact_lattice"
_COVER3 = _CERT + "test_3d_bounds_cover_the_distance_to_the_exact_lattice"
_HOM = "tests/test_homspace.py::"
_EXP = "tests/test_experiment.py::"
_FORMULA = "tests/test_goodness.py::test_grid_poly_bit_identical_to_both_old_evaluators"
_POLY = "tests/test_polyalg.py::"

MUTANTS = [
    # the float64 tier takes every sample, its entries read as exact: no
    # entry bound, no routing, no double-double
    Mutant("float64_accepts_all", "experiment.py",
           "    s[0, BOUND, ~f64] = np.inf\n",
           "    f64[:], s[:, BOUND] = True, 0.0\n",
           (_COVER2 + "[poly23_T2_10]", _CERT + "test_tier_results_land_on_their_samples",
            _CERT + "test_kernel_matches_exact_oracle_on_criterion_10_boxes[10.0]")),
    Mutant("lagrange_pass_without_mu_eu", "homspace.py",
           "    np.multiply(amu, eu, out=t)\n",
           "    np.multiply(0.0, eu, out=t)\n",
           (_COVER2 + "[poly23_T2_20]", _HOM + "test_lagrange_charges_the_documented_bounds",
            _HOM + "test_lagrange_bounds_cover_the_distance_to_the_exact_lattice[2-False]")),
    Mutant("closest_step_without_y_eu", "homspace.py",
           "        e3 += ay * eu\n",
           "        e3 += 0.0 * eu\n",
           (_COVER3 + "[T_1e4]", _CERT + "test_sl3_greedy_bounds_cover_the_distance_to_the_exact_lattice",
            _HOM + "test_closest_step_charges_the_documented_bound")),
    Mutant("c64_without_sum_charge", "goodness.py",
           "self.c64 = (n64 + max(n - 1, 0)) * U * 1.01",
           "self.c64 = n64 * U * 1.01",
           (_COVER2 + "[poly23_T2_5]", _FORMULA)),
    # killed only by the formula copy and by the pinned exact-tier counts of
    # test_the_exact_budget_is_per_box_across_a_spanning_chunk
    Mutant("cdd_without_sum_charge", "goodness.py",
           "self.cdd = (ndd + 3 * n) * U2 * 1.01",
           "self.cdd = ndd * U2 * 1.01",
           (_COVER2 + "[poly23_T2_20]",), until="item 20"),
    Mutant("n64_without_inexact", "goodness.py",
           "n64 = max(n64, inexact + pows + max(mults, 0))",
           "n64 = max(n64, pows + max(mults, 0))",
           (_CERT + "test_3d_ties_count_exactly_through_certified_kernel[rows3]", _FORMULA)),
    Mutant("margin_halved", "homspace.py",
           "    return sum(k * x for k, x in zip((c1_max, c2_max, c3_max), eps))\n",
           "    return 0.5 * sum(k * x for k, x in zip((c1_max, c2_max, c3_max), eps))\n",
           (_NEAR_TIES + "[row_past_R]", _NEAR_TIES + "[row_c3]")),
    Mutant("rho_row_without_c2", "homspace.py",
           "big / norm) * eps[0][k] + np.abs(c2) * eps[1][k]\n",
           "big / norm) * eps[0][k]\n",
           (_NEAR_TIES + "[row_past_R]",)),
    Mutant("rho_row_without_c3", "homspace.py",
           "            rho_row += c3 * eps[2][k]\n",
           "            rho_row += 0.0 * eps[2][k]\n",
           (_NEAR_TIES + "[row_c3]",)),
    Mutant("origin_margin_zero", "homspace.py",
           "    outer = big / norm1 * eps[0]\n",
           "    outer = 0.0 * eps[0]\n",
           (_NEAR_TIES + "[origin_row]", _CERT + "test_tie_recount_fires_on_ties_only[rows1-0.5]")),
    # 3D chunks of a full block, whose row state has 15 rows to 8
    Mutant("chunk_3d_full_block", "experiment.py",
           "_CHUNK if matrix.dim == 2 else _CHUNK // 2",
           "_CHUNK",
           (_EXP + "test_a_sweep_makes_one_kernel_call_per_chunk_of_its_samples",
            _EXP + "test_heis3_worker_count_independence",
            _EXP + "test_one_process_pool_per_sweep")),
    # a chunk that spans boxes gets one box's exact-tier budget
    Mutant("budget_one_box_per_chunk", "experiment.py",
           "_EXACT_BUDGET * n * len(segments)",
           "_EXACT_BUDGET * n",
           (_EXP + "test_the_exact_budget_is_per_box_across_a_spanning_chunk",)),
    # exact evaluation takes t^(1/2) as t^0
    Mutant("exact_takes_fractional_exponents", "polyalg.py",
           "if exact and exp.denominator != 1:",
           "if False:",
           (_POLY + "test_evaluate_exact_rational_points",)),
    # t^-1 at t <= 0 passes the domain rule of every evaluation
    Mutant("t_rule_without_negative_exponents", "polyalg.py",
           "(exp.denominator != 1 or exp < 0)",
           "exp.denominator != 1",
           (_POLY + "test_evaluate_pole_is_error",)),
]


def run(mutant: Mutant) -> str:
    """The outcome of one mutation: "killed", "survived" or, for a known
    survivor, "recorded survivor" or "killed (update the register)";
    "stale" when its old text no longer applies."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in COPIED:
            src, dst = ROOT / name, Path(tmp) / name
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, dst)
        path = Path(tmp) / "src" / "boxflow" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "stale: its old text is not in src/ exactly once"
        path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"),
                   PYTHONDONTWRITEBYTECODE="1",
                   PATH=os.pathsep.join([os.path.dirname(sys.executable),
                                         os.environ.get("PATH", "")]))
        failed = 0
        for test in mutant.tests:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test],
                cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            failed += proc.returncode == 1
    if mutant.until:
        return "killed (update the register)" if failed else "recorded survivor"
    return "killed" if failed == len(mutant.tests) else "survived"


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutations: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = 0
    for mutant in chosen:
        outcome = run(mutant)
        note = f" (until {mutant.until})" if outcome == "recorded survivor" else ""
        print(f"{mutant.name}: {outcome}{note}", flush=True)
        bad += outcome not in ("killed", "recorded survivor")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
