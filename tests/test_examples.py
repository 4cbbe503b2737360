"""Every ``from repro... import name`` in ``examples/`` resolves."""

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def repro_imports(path: Path) -> list[tuple[str, str]]:
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and node.level == 0
        and (node.module == "repro" or node.module.startswith("repro."))
        for alias in node.names
    ]


def test_there_are_examples():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    names = repro_imports(path)
    assert names, f"{path.name} imports nothing from repro"
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{path.name}: {missing}"
