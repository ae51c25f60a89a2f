"""Every name a ``src/nnops`` module imports is used in that module.

No linter runs on this repository, so this stands in for the unused-import
rule: it reads each module's syntax tree with the standard library alone.
``__init__.py`` imports only to re-export, and ``from __future__`` imports
switch on language features, so neither counts."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nnops"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads; an
    attribute chain such as ``np.linalg`` reads its root name."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in sorted(imported) if name not in used]


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport math\nimport numpy as np\n"
              "from .signals import Signal, sample_function\n"
              "def f(s: Signal):\n    return np.pi\n")
    assert _unused_imports(source) == ["line 2: math", "line 4: sample_function"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert _unused_imports(path.read_text()) == []
