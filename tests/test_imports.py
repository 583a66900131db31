"""Static checks on the package's imports and exports."""

import ast
from pathlib import Path

import pytest

import nla

SRC = Path(nla.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module binds by import and never reads; a name listed in the
    module's __all__ counts as read, since that is a re-export."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_public_names_resolve():
    assert [name for name in nla.__all__ if not hasattr(nla, name)] == []
