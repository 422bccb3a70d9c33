"""The mutation catalogue stays runnable: every mutant's old text occurs
exactly once in its file and its selection names test files that exist.
Whether each mutant is caught is `python tests/mutants.py`, outside the
suite: it runs one pytest per mutant."""

from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).parents[1]


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once(mutant):
    assert mutant.old != mutant.new
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    for sel in mutant.tests:
        assert (ROOT / sel.split("::")[0]).is_file(), sel
