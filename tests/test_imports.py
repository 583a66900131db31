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
    """Public names a module binds at top level by def, class or assignment,
    and the public methods and dataclass fields of its public classes as
    Class.member."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    names.append(f"{node.name}.{member.name}")
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    names.append(f"{node.name}.{member.target.id}")
    return [name for name in names if not name.rpartition(".")[2].startswith("_")]


def reads(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(names, attributes) a module loads; an attribute read through self is
    how a class reads its own member, so it does not count."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                attrs.add(node.attr)
    return names, attrs


def test_every_public_name_is_read():
    """A public name, method or field that nothing reads in the package, the
    benchmark, the acceptance tests or the README's code is dead code; the
    unit tests do not count as readers. A top-level name may be read bare
    or as an attribute, a class member only as an attribute."""
    readme = (ROOT / "README.md").read_text()
    code = " ".join(re.findall(r"```.*?```|`[^`\n]+`", readme, flags=re.S))
    names, attrs = set(), set(re.findall(r"\w+", code))
    readers = [*MODULES, *sorted(ROOT.glob("bench/*.py")), ROOT / "tests" / "test_acceptance.py"]
    for path in readers:
        loaded, read = reads(ast.parse(path.read_text()))
        names |= loaded
        attrs |= read
    dead = []
    for path in MODULES:
        for name in public_definitions(ast.parse(path.read_text())):
            owner, _, member = name.rpartition(".")
            if member not in attrs and (owner or member not in names):
                dead.append(f"{path.stem}.{name}")
    assert dead == []
