"""Every name a ttflow module imports is referenced in that module.

A name imported only so that something outside the module can find it looks
alive to a search and hides that nothing in the module calls it. The package
``__init__`` is the exception: it imports exactly the names in its
``__all__``.
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
