"""The static half of tools/mutants.py: the old text of every mutant row
occurs exactly once in its file under src/mapcalc, and the test files it
names exist.  A refactor that moves the code a row attacks fails here, on
every Python the suite runs on, before any mutant is run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_row_names_text_that_occurs_once():
    mutants = load_mutants()
    assert mutants.bad_rows() == []
    for mutant in mutants.MUTANTS:
        assert mutant.old != mutant.new
        assert all((ROOT / "tests" / name).is_file() for name in mutant.tests), mutant.attacks
