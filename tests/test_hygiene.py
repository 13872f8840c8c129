"""Import hygiene of the package: every module imports at module level only
and uses each name it imports. ``__future__`` imports and the re-exports
of ``__init__.py`` are exempt."""

import ast
from pathlib import Path

import pytest

import chunkfuse

MODULES = sorted(Path(chunkfuse.__file__).parent.glob("*.py"))


def nested_imports(tree: ast.Module) -> list[int]:
    """Lines of the imports that are not statements of the module body."""
    top = {id(node) for node in tree.body}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    assert nested_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_imported_names_are_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_checks_catch_what_they_look_for():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from x import used, unused as alias\n"
        "def f():\n"
        "    import json\n"
        "    return used\n"
    )
    assert nested_imports(tree) == [5]
    assert unused_imports(tree) == ["alias", "os"]
