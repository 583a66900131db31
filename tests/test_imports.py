"""Static checks on the package's imports and exports."""

import ast
import re
from pathlib import Path

import pytest

import nla

SRC = Path(nla.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))
ROOT = SRC.parent.parent


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


def public_definitions(tree: ast.Module) -> list[str]:
    """Public names a module binds at top level by def, class or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("_")]


def test_every_public_name_is_read():
    """A public name nothing reads in the package, its tests, the benchmark
    or the README is dead code."""
    sources = [*MODULES, *sorted(ROOT.glob("tests/*.py")), *sorted(ROOT.glob("bench/*.py"))]
    read = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = [
        f"{path.stem}.{name}"
        for path in MODULES
        for name in public_definitions(ast.parse(path.read_text()))
        if name not in read
    ]
    assert dead == []
