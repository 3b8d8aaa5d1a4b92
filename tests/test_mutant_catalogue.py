"""The mutant catalogue of tests/mutants/run.py still points at the code and tests it names.

The mutation run itself takes minutes; a line moved or a test renamed would
otherwise show only when that run stops partway at the mutant concerned.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "binflux"


def _catalogue():
    spec = importlib.util.spec_from_file_location("mutant_catalogue", TESTS / "mutants" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = _catalogue()


def _test_names(path: Path) -> set[str]:
    return {node.name for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)}


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies_once_and_names_existing_tests(mutant):
    text = (SRC / mutant.module).read_text()
    assert text.count(mutant.original) == 1, f"{mutant.original!r} occurs {text.count(mutant.original)} times"
    assert mutant.mutated != mutant.original
    assert mutant.tests
    for test in mutant.tests:
        file, _, name = test.partition("::")
        path = TESTS / file
        assert path.is_file(), test
        assert not name or name in _test_names(path), test
