"""Every imported name in the package and the tests is used (a stdlib lint)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p for p in (ROOT / "src" / "ribbonforge").glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


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
