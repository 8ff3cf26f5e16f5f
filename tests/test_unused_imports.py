"""Every imported name is used, and every module-level name of the package
is mentioned somewhere (two stdlib lints)."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ribbonforge").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"] + TESTS
EXEMPT = {"__all__", "__version__"}


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never mentions."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b as c, d\nd()\n") == [
        "os (line 1)",
        "c (line 2)",
    ]
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): unused
        for path in SOURCES
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def mentions(tree: ast.AST) -> Counter:
    """How often each name is referred to: as a name, attribute or import."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.split(".")[-1]] += 1
    return found


def definitions(tree: ast.Module):
    """(name, node) for each module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def dead_names(trees: dict[str, ast.Module], package: list[str]) -> list[str]:
    """Module-level names of ``package`` mentioned only in their own definition."""
    total = sum((mentions(tree) for tree in trees.values()), Counter())
    return [
        f"{path}: {name}"
        for path in package
        for name, node in definitions(trees[path])
        if name not in EXEMPT and total[name] == mentions(node)[name]
    ]


def test_checker_flags_a_dead_name():
    tree = ast.parse(
        "def f():\n    return f()\n\n\ndef g():\n    return h\n\n\n"
        "h = 1\nX: int = 2\n__all__ = []\n"
    )
    assert dead_names({"m.py": tree}, ["m.py"]) == ["m.py: f", "m.py: g", "m.py: X"]
    user = ast.parse("from m import g\nprint(m.X)\n")
    assert dead_names({"m.py": tree, "u.py": user}, ["m.py"]) == ["m.py: f"]


def test_no_dead_module_level_names():
    trees = {
        str(path.relative_to(ROOT)): ast.parse(path.read_text(encoding="utf-8"))
        for path in PACKAGE + TESTS
    }
    package = [str(path.relative_to(ROOT)) for path in PACKAGE]
    assert dead_names(trees, package) == []
