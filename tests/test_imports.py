"""Every module-level import in the library is used: its name appears
in the module's code or in the module's ``__all__``. The package root
only re-exports: each library module's ``__all__`` is the one list of
its public names."""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src" / "rankmil"
_MODULES = sorted(p.name for p in _SRC.glob("*.py") if p.name != "__init__.py")


def declared_all(tree: ast.Module) -> list[str] | None:
    """The names a module's ``__all__`` assignment lists, or None if it
    has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return None


def unused_imports(source: str) -> list[str]:
    """The names that ``source``'s module-level imports bind and that
    neither its code nor its ``__all__`` list mentions."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    exported = set(declared_all(tree) or ())
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
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


def test_package_root_star_imports_each_library_module():
    init = (_SRC / "__init__.py").read_text(encoding="utf-8")
    docstring, *imports, version = ast.parse(init).body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert isinstance(version, ast.Assign)
    assert [ast.unparse(t) for t in version.targets] == ["__version__"]
    for node in imports:
        assert isinstance(node, ast.ImportFrom) and node.level == 1, ast.unparse(node)
        assert [alias.name for alias in node.names] == ["*"], ast.unparse(node)
    library = sorted(p.stem for p in _SRC.glob("*.py") if p.name not in ("__init__.py", "cli.py"))
    assert sorted(node.module for node in imports) == library
    owner: dict[str, str] = {}
    for module in library:
        names = declared_all(ast.parse((_SRC / f"{module}.py").read_text(encoding="utf-8")))
        assert names is not None, f"{module}.py has no __all__"
        for name in names:
            # A second star import of the same name would silently shadow the first.
            assert name not in owner, f"{name!r} is in both {owner[name]} and {module} __all__"
            owner[name] = module
