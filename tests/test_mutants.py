"""The mutation register (``tests/mutants.py``) stays in step with
``src/`` and the tests: each mutation still applies to exactly one place,
and each of its tests still exists."""

import subprocess
import sys
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "boxflow"


def test_each_registered_old_text_occurs_once_in_src():
    stale = [m.name for m in MUTANTS if (SRC / m.file).read_text().count(m.old) != 1]
    assert stale == []


def test_every_registered_test_id_is_collected():
    # a renamed or removed test makes pytest exit with 4, which the runner
    # does not count as a failure: its mutation would survive in silence
    ids = sorted({test for m in MUTANTS for test in m.tests})
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *ids], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
