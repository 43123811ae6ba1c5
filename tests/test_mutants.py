"""The mutation probe's list cannot rot: each mutant's text is still there.

``tools/mutants.py`` runs the suite against one-token mutants of the chain
formulas; it stays out of the suite because each mutant costs a full run.
This checks, without running any mutant, that each one still applies to
exactly one place in ``src/fracon``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", _TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_text_occurs_exactly_once_in_src(mutant):
    assert len(mutants.locate(mutant)) == 1
    assert mutant.new != mutant.old


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
