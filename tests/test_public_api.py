"""The public API: ``__all__`` lists each name the package binds, once."""

import ast
from pathlib import Path

import ribbonforge

INIT = Path(ribbonforge.__file__)


def public_bindings(source: str) -> set[str]:
    """Names without a leading underscore that a module's top level binds."""
    names: set[str] = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_bindings_checker():
    source = "import os.path\nfrom a import b as c, _d\ndef f(): pass\nX = _y = 1\n"
    assert public_bindings(source) == {"os", "c", "f", "X"}


def test_all_lists_each_bound_name_once():
    assert len(ribbonforge.__all__) == len(set(ribbonforge.__all__))
    assert set(ribbonforge.__all__) == public_bindings(INIT.read_text(encoding="utf-8"))


def test_every_listed_name_resolves():
    missing = [name for name in ribbonforge.__all__ if not hasattr(ribbonforge, name)]
    assert missing == []
    namespace: dict = {}
    exec("from ribbonforge import *", namespace)
    assert set(ribbonforge.__all__) <= namespace.keys()
