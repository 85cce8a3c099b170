"""Every name a module imports is referenced in that module, and every
helper of the package is referenced in the package or exported.

The import check covers the package under ``src/nabla_lmo/`` and the test
suite; a package ``__init__.py`` is exempt, its imports are re-exports. The
helper check covers the module-level functions and classes of
``src/nabla_lmo/``: a private one must be named elsewhere in the package, and
a public one too unless ``nabla_lmo.__all__`` exports it.
"""

import ast
from pathlib import Path

import nabla_lmo

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


def dead_helpers(sources: dict[str, str], exported=()) -> list[str]:
    """Module-level functions and classes in ``sources`` (module name to
    source), private or public, that ``exported`` does not list and no code
    outside their own definition names, whether as a name, an attribute or
    an import."""
    defined, used = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                if own not in exported and not (own.startswith("__") and own.endswith("__")):
                    defined.append((module, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                used.update(name for name in names if name != own)
    return sorted(f"{module}.{name}" for module, name in defined if name not in used)


def test_dead_private_names_detects_an_unreferenced_helper():
    sources = {
        "a": "def _dead(n):\n    return _dead(n - 1)\n\nclass _Used:\n    pass\n"
        "def _imported():\n    pass\n\ndef __getattr__(name):\n    pass\n",
        "b": "from .a import _imported\nimport a\n\nx = a._Used()\n",
    }
    assert dead_helpers(sources) == ["a._dead"]


def test_dead_helpers_detects_an_unexported_public_helper():
    sources = {
        "a": "class Exported:\n    pass\n\ndef dead(n):\n    return dead(n - 1)\n\n"
        "def used():\n    pass\n",
        "b": "from . import a\n\nx = a.used()\n",
    }
    assert dead_helpers(sources, exported=["Exported"]) == ["a.dead"]


def test_every_helper_is_referenced_or_exported():
    # the package __init__ only re-exports, so it is left out, and __all__ stands for it
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src" / "nabla_lmo").glob("*.py"))
        if path.name != "__init__.py"
    }
    assert dead_helpers(sources, nabla_lmo.__all__) == []
