"""``scripts/mutants.py``'s table still fits the tree it mutates.

The script itself runs pytest once per mutant, which takes about a
minute.  This checks in a few milliseconds the two ways a refactor
orphans an entry: its old text is gone or no longer unique, or a test
it names no longer exists.  No mutant is applied and no test is run.
"""

import ast
import importlib.util
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = _load_mutants()


@lru_cache(maxsize=None)
def _test_nodes(path):
    """Every ``file::test`` and ``file::Class::test`` that ``path``
    defines at its top level."""
    nodes = set()
    for node in ast.parse((ROOT / path).read_text()).body:
        if isinstance(node, ast.FunctionDef):
            nodes.add(f"{path}::{node.name}")
        elif isinstance(node, ast.ClassDef):
            nodes.update(
                f"{path}::{node.name}::{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            )
    return nodes


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    assert mutant.tests
    for test in mutant.tests:
        assert test in _test_nodes(test.split("::")[0]), test

