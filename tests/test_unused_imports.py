"""Every name a module imports is referenced in that module, every helper
of the package is referenced in the package or exported, and every public
member of a package class is read.

The import check covers the package under ``src/nabla_lmo/`` and the test
suite; a package ``__init__.py`` is exempt, its imports are re-exports. The
helper check covers the module-level functions and classes of
``src/nabla_lmo/``: a private one must be named elsewhere in the package, and
a public one too unless ``nabla_lmo.__all__`` exports it. The member check
covers the public methods, properties and fields of those classes: each must
be read as an attribute in the package or in the acceptance suite.
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
    outside their own definition names. An attribute or a ``from … import``
    names a helper anywhere; a bare name only in the helper's own module,
    since elsewhere it is some other binding unless an import made it."""
    defined, used, bare = [], set(), {}
    for module, source in sources.items():
        bare[module] = set()
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                if own not in exported and not (own.startswith("__") and own.endswith("__")):
                    defined.append((module, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names, into = [node.id], bare[module]
                elif isinstance(node, ast.Attribute):
                    names, into = [node.attr], used
                elif isinstance(node, ast.ImportFrom):
                    names, into = [alias.name for alias in node.names], used
                else:
                    continue
                into.update(name for name in names if name != own)
    return sorted(
        f"{module}.{name}"
        for module, name in defined
        if name not in used and name not in bare[module]
    )


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


def test_dead_helpers_resolves_a_bare_name_to_its_own_module():
    # b's local ``rank`` is not a use of a.rank
    sources = {"a": "def rank(x): ...", "b": "def f(v):\n    rank = len(v)\n    return rank\n"}
    assert dead_helpers(sources, exported=["f"]) == ["a.rank"]
    sources["b"] = "from .a import rank\n\ndef f(v):\n    return rank(v)\n"
    assert dead_helpers(sources, exported=["f"]) == []


def unread_members(sources: dict[str, str], readers=()) -> list[str]:
    """Public methods, properties, classmethods and annotated fields of the
    module-level classes in ``sources`` (module name to source) whose name no
    code in ``sources`` or ``readers`` (more sources) reads as an attribute,
    outside the member's own definition. Names match across classes, so a
    read of ``x.size`` keeps every member called ``size``; dunders and
    private names are exempt."""
    members, read = [], set()

    def collect_reads(node, own=None):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load) and sub.attr != own:
                read.add(sub.attr)

    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if not isinstance(stmt, ast.ClassDef):
                collect_reads(stmt)
                continue
            for node in stmt.decorator_list + stmt.bases + stmt.keywords:
                collect_reads(node)
            for item in stmt.body:
                own = None
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    own = item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    own = item.target.id
                if own is not None and not own.startswith("_"):
                    members.append(f"{module}.{stmt.name}.{own}")
                collect_reads(item, own)
    for source in readers:
        collect_reads(ast.parse(source))
    return sorted(m for m in members if m.rsplit(".", 1)[1] not in read)


def test_unread_members_detects_an_unread_method_and_field():
    sources = {
        "a": "@dataclass\nclass A:\n    kept: int\n    dropped: int\n    _private: int\n\n"
        "    @property\n    def size(self):\n        return self.size + self.kept\n\n"
        "    def __len__(self):\n        return 0\n\n"
        "    @classmethod\n    def make(cls):\n        return cls(0, 0, 0)\n",
        "b": "from .a import A\n\ndef f(x):\n    x.dropped = 1\n    return A.make()\n",
    }
    # ``size`` reads only itself and ``dropped`` is only stored
    assert unread_members(sources) == ["a.A.dropped", "a.A.size"]
    assert unread_members(sources, readers=["y.size\n"]) == ["a.A.dropped"]


def test_every_public_member_is_read():
    # the package __init__ only re-exports, so it neither defines nor reads
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src" / "nabla_lmo").glob("*.py"))
        if path.name != "__init__.py"
    }
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    assert unread_members(sources, [acceptance]) == []
