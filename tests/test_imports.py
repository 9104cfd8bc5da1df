"""Import lint: a module under ``src/geognn/`` or ``tests/`` that imports a
name it never references fails here. ``geognn/__init__.py`` is exempt,
since its imports are the package's re-exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p for p in [*(ROOT / "src" / "geognn").glob("*.py"), *(ROOT / "tests").glob("*.py")]
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
