"""The mutant table of ``mutants/`` stays live: each mutant's old text
occurs exactly once in its file, and each test it names exists."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _table():
    spec = importlib.util.spec_from_file_location("mutant_table", ROOT / "mutants" / "table.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _test_functions(path):
    tree = ast.parse(path.read_text())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_every_mutant_applies_once_and_names_existing_tests():
    table = _table()
    mutants = table.MUTANTS + [table.NOOP]
    ids = [m[0] for m in mutants]
    assert len(set(ids)) == len(ids)
    for mutant_id, file, old, new, tests in mutants:
        assert old != new, mutant_id
        assert (ROOT / file).read_text().count(old) == 1, (mutant_id, file)
        assert tests, mutant_id
        for test in tests:
            path, name = test.split("::")
            assert name.split("[")[0] in _test_functions(ROOT / path), (mutant_id, test)
