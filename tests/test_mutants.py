"""The mutation pass's list stays current: each mutant's line is in its file once."""

import importlib.util
import os

_TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "mutants.py")


def test_every_mutant_line_is_in_its_file_once():
    spec = importlib.util.spec_from_file_location("mutants", _TOOL)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.check(mutants.MUTANTS) == []
