"""Every name a ``src/nnops`` module imports is used in that module, and
every module-level private name is read by some ``src/nnops`` module.

No linter runs on this repository, so this stands in for the unused-import
and unused-private-name rules: it reads each module's syntax tree with the
standard library alone.  ``__init__.py`` imports only to re-export, and
``from __future__`` imports switch on language features, so neither counts."""

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


def _unread_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private names (one leading underscore, not dunder) that
    no module in ``sources`` reads: as a name, as an attribute, or through a
    ``from`` import."""
    defined, read = [], set()
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [f"{module}: {name}" for name in names
                        if name.startswith("_") and not name.startswith("__")]
        read |= _reads(tree)
    return [entry for entry in defined if entry.split(": ")[1] not in read]


def _reads(tree: ast.AST) -> set[str]:
    """The names ``tree`` reads: as a name, as an attribute, or through a
    ``from`` import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_the_scan_finds_an_unread_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_scale: float = 2.0\ndef _rate(x):\n    return x\n"
                "def _helper():\n    return _LIMIT\n__all__ = []\n",
        "b.py": "from .a import _helper\nimport a\ndef f():\n    return _helper() + a._scale\n",
    }
    assert _unread_privates(sources) == ["a.py: _rate"]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert _unread_privates(sources) == []


def _unread_exports(init: str, sources: dict[str, str]) -> list[str]:
    """Names that ``init`` re-exports through a ``from`` import and that no
    source in ``sources`` reads: a public name that only front ends outside
    the package could call, such as a helper only the tests use."""
    exported = [alias.asname or alias.name for node in ast.parse(init).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    read = set().union(*(_reads(ast.parse(source)) for source in sources.values()))
    return [name for name in exported if name not in read]


def test_the_scan_finds_an_unread_export():
    init = "from .a import f, g\nfrom .b import h as k\n__version__ = '1'\n"
    sources = {"a.py": "def f():\n    return 1\ndef g():\n    return f()\n",
               "b.py": "def h():\n    return 2\n",
               "c.py": "import a\ndef run():\n    return a.g()\n"}
    assert _unread_exports(init, sources) == ["k"]


def test_every_export_is_read_inside_the_package_or_by_the_benchmark():
    paths = [*MODULES, *(SRC.parent.parent / "perfbench").glob("*.py")]
    sources = {str(path): path.read_text() for path in paths}
    assert _unread_exports((SRC / "__init__.py").read_text(), sources) == []
