"""Import and definition lints.

A module under ``src/geognn/`` or ``tests/`` that imports a name it never
references fails here. ``geognn/__init__.py`` is exempt, since its imports
are the package's re-exports.

A function, class or method under ``src/geognn/`` whose name nothing in
``src/geognn/`` reads fails too; see ``dead_definitions``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "geognn").glob("*.py"))
MODULES = sorted(
    p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")]
    if p != ROOT / "src" / "geognn" / "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression in source reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_referenced(path):
    assert unused_imports(path.read_text()) == []


def test_lint_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom math import pi, tau as t\nprint(pi)\n"
    assert unused_imports(source) == ["line 2: os", "line 3: t"]


def dead_definitions(sources: dict[str, str], exempt_files: set[str]) -> list[str]:
    """Functions, classes and methods defined in ``sources`` (file name ->
    source) whose name no ``ast.Name``, ``ast.Attribute`` or import alias in
    any of them reads. Definitions in ``exempt_files`` and dunder methods,
    which Python calls by protocol, are not reported; reads in every file
    count.

    The check goes by bare name, so any read of a name counts for every
    definition of it: a name shared with numpy, such as ``np.matmul``, hides
    a dead op of the same name."""
    defined, read = [], set()
    for file, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if file not in exempt_files:
                    defined.append((file, node.lineno, node.name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.split(".")[-1])
    return [f"{file}:{line}: {name}" for file, line, name in defined
            if name not in read and not (name.startswith("__") and name.endswith("__"))]


def test_every_definition_is_read():
    # synth.py generates the tests' and the benchmark's data, so it needs no
    # reader in the package
    sources = {p.name: p.read_text() for p in PACKAGE}
    assert dead_definitions(sources, {"synth.py"}) == []


def test_lint_sees_a_dead_definition():
    sources = {
        "a.py": "import numpy as np\nfrom b import used\n"
                "def dead(): pass\ndef matmul(): pass\n"
                "class C:\n    def __len__(self): return 0\n    def live(self): pass\n"
                "    def gone(self): pass\n"
                "def caller(c):\n    c.live()\n    return np.matmul\n",
        "b.py": "def used(): pass\ndef unread(): pass\nx = caller\n",
        "gen.py": "def generated(): pass\nC()\n",
    }
    assert dead_definitions(sources, {"gen.py"}) == [
        "a.py:3: dead", "a.py:8: gone", "b.py:2: unread"]
