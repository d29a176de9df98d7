"""The mutation register (``tests/mutants.py``) stays in step with
``src/``: each mutation still applies to exactly one place."""

from pathlib import Path

from mutants import MUTANTS

SRC = Path(__file__).resolve().parent.parent / "src" / "boxflow"


def test_each_registered_old_text_occurs_once_in_src():
    stale = [m.name for m in MUTANTS if (SRC / m.file).read_text().count(m.old) != 1]
    assert stale == []
