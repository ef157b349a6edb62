"""Every module-level import in the library is used: its name appears
in the module's code or in the module's ``__all__``."""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src" / "rankmil"
_MODULES = sorted(p.name for p in _SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source``'s module-level imports bind and that
    neither its code nor its ``__all__`` list mentions."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in bound.items()
        if name not in used and name not in exported
    ]


def test_checker_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Iterable, Iterator\n"
        "from .data import Bag as B, Dataset\n"
        "def f(x: Iterator) -> B:\n"
        "    return os.path.join(x)\n"
        "__all__ = ['Dataset']\n"
    )
    assert unused_imports(source) == ["line 3: Iterable"]


@pytest.mark.parametrize("module", _MODULES)
def test_module_has_no_unused_import(module):
    assert unused_imports((_SRC / module).read_text(encoding="utf-8")) == []
