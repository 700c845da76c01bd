"""Every name a ttflow module imports is referenced in that module.

A name imported only so that something outside the module can find it looks
alive to a search and hides that nothing in the module calls it. The package
``__init__`` is the exception: it imports exactly the names in its
``__all__``, and each of those names must be used by a ttflow module, a
demo or the acceptance tests, not only by tests of its own behaviour.
"""

import ast
from pathlib import Path

import pytest

import ttflow

MODULES = sorted(p for p in Path(ttflow.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _dead_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_flags_an_unused_import():
    src = "import os\nfrom math import pi, tau as t\nprint(pi)\n"
    assert _dead_imports(src) == [(1, "os"), (2, "t")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_dead_imports(path):
    assert _dead_imports(path.read_text()) == []


def test_package_imports_match_all():
    tree = ast.parse(Path(ttflow.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    public = [name for name in imported if not name.startswith("_")]
    assert sorted(public) == sorted(ttflow.__all__)
    assert len(set(ttflow.__all__)) == len(ttflow.__all__)


def _references(path: Path) -> set:
    """Names a file loads or reads as attributes, except inside each name's
    own top-level definition (a recursive call keeps nothing alive)."""
    refs = set()
    for stmt in ast.parse(path.read_text()).body:
        own = set()
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            own = {stmt.name}
        elif isinstance(stmt, ast.Assign):
            own = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name not in own:
                refs.add(name)
    return refs


def _referenced() -> set:
    """Names the src modules, the demos and the acceptance tests reference."""
    root = Path(ttflow.__file__).resolve().parents[2]
    users = [*MODULES, *sorted((root / "demos").glob("*.py")),
             root / "tests" / "test_acceptance.py"]
    return set().union(*map(_references, users))


def test_every_public_name_has_a_caller():
    # a public name that only its own tests call belongs in tests/ or nowhere
    assert sorted(set(ttflow.__all__) - _referenced()) == []


def test_every_top_level_definition_has_a_caller():
    # a renamed or emptied helper must not survive on its own tests alone
    defined = {stmt.name for path in MODULES for stmt in ast.parse(path.read_text()).body
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
    assert sorted(defined - _referenced()) == []
