"""Every name a module imports is referenced in that module.

Covers the package under ``src/nabla_lmo/`` and the test suite. A package
``__init__.py`` is exempt: its imports are re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in ``source`` that no expression
    reads; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_imports_detects_a_dead_name():
    assert unused_imports("import os\nfrom a.b import c as d, e\nprint(e)\n") == [
        "d (line 2)",
        "os (line 1)",
    ]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


def test_every_imported_name_is_used():
    paths = sorted((ROOT / "src" / "nabla_lmo").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    found = {
        str(path.relative_to(ROOT)): names
        for path in paths
        if path.name != "__init__.py"
        for names in [unused_imports(path.read_text(encoding="utf-8"))]
        if names
    }
    assert found == {}
