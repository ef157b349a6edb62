"""Every module-level import in the library is used: its name appears
in the module's code or in the module's ``__all__``. Every private name
the library defines at module or class level is read somewhere in it,
and every public function, method, property and dataclass field is read
by the library or by the acceptance tests. The package root only
re-exports: each library module's ``__all__`` is the one list of its
public names. Only ``data.py`` creates directories: its atomic writer
makes the missing parents of every file the library writes."""

import ast
from pathlib import Path
from typing import Iterable, Iterator

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


def _private_definitions(body: list[ast.stmt]) -> Iterator[tuple[int, str]]:
    """(line, name) of each non-dunder ``_name`` that ``body`` defines,
    and that the bodies of the classes it defines do, recursively."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
            if isinstance(node, ast.ClassDef):
                yield from _private_definitions(node.body)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield node.lineno, name


def _read_names(trees: Iterable[ast.Module]) -> set[str]:
    """Every name that ``trees`` read, as a bare name or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """The private names that a module of ``sources`` (file name ->
    source) defines at module or class level and that no module of
    ``sources`` reads, as a bare name or as an attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = _read_names(trees.values())
    return [
        f"{module}:{line}: {name}"
        for module, tree in trees.items()
        for line, name in _private_definitions(tree.body)
        if name not in read
    ]


def test_checker_finds_an_unused_private_name():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_UNUSED: int = 4\n"
            "def _helper():\n"
            "    return 1\n"
            "class C:\n"
            "    _slot = 0\n"
            "    def __init__(self):\n"
            "        self._slot = _LIMIT\n"
            "    def _dead(self):\n"
            "        pass\n"
        ),
        "b.py": "from .a import C, _helper\nprint(_helper(), C()._x)\n",
    }
    assert unused_private_names(sources) == ["a.py:2: _UNUSED", "a.py:6: _slot", "a.py:9: _dead"]


def test_library_has_no_unused_private_name():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(_SRC.glob("*.py"))}
    assert unused_private_names(sources) == []


def _public_members(body: list[ast.stmt], fields: bool = False) -> Iterator[tuple[int, str]]:
    """(line, name) of each public function and method that ``body``
    defines, recursing into its classes, and, where ``fields`` is set,
    of each annotated class attribute (a dataclass's fields)."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            dataclass = any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            yield from _public_members(node.body, dataclass)
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
        elif fields and isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name = node.target.id
        else:
            continue
        if not name.startswith("_"):
            yield node.lineno, name


def unread_public_members(sources: dict[str, str], readers: Iterable[str]) -> list[str]:
    """The public functions, methods, properties and dataclass fields
    that a module of ``sources`` (file name -> source) defines and that
    neither ``sources`` nor ``readers`` (more sources) reads. The match
    is by name only: a member whose name some other, read member shares
    gets past it; an unread ``EvalReport.n_pos`` field, for example,
    would pass because training reads ``Dataset.n_pos``."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = _read_names([*trees.values(), *map(ast.parse, readers)])
    return [
        f"{module}:{line}: {name}"
        for module, tree in trees.items()
        for line, name in _public_members(tree.body)
        if name not in read
    ]


def test_checker_finds_an_unread_public_member():
    sources = {
        "a.py": (
            "from dataclasses import dataclass\n"
            "def run():\n"
            "    return Report(1, 2).size\n"
            "def unused():\n"
            "    pass\n"
            "@dataclass(frozen=True)\n"
            "class Report:\n"
            "    size: int\n"
            "    count: int\n"
            "    def _private(self):\n"
            "        return self.size\n"
            "    @property\n"
            "    def total(self) -> int:\n"
            "        return self.count\n"
            "class Plain:\n"
            "    limit: int = 3\n"
            "    def shown(self):\n"
            "        pass\n"
        ),
        "b.py": "from .a import run\nrun()\n",
    }
    assert unread_public_members(sources, ["Plain().shown()\n"]) == [
        "a.py:4: unused",
        "a.py:13: total",
    ]


def test_library_has_no_member_only_tests_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(_SRC.glob("*.py"))}
    acceptance = (Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8")
    assert unread_public_members(sources, [acceptance]) == []


def mkdir_calls(sources: dict[str, str]) -> list[str]:
    """``file:line`` of each ``.mkdir(`` call in ``sources`` outside
    ``data.py``."""
    return [
        f"{name}:{node.lineno}"
        for name, source in sources.items()
        if name != "data.py"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "mkdir"
    ]


def test_checker_finds_a_mkdir_call_outside_data():
    sources = {
        "data.py": "def w(p):\n    p.parent.mkdir(parents=True)\n",
        "cli.py": "import os\ndef f(p):\n    os.mkdir(p)\n    p.mkdir(exist_ok=True)\n",
        "synth.py": "mkdir = None\n",
    }
    assert mkdir_calls(sources) == ["cli.py:3", "cli.py:4"]


def test_only_data_creates_directories():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(_SRC.glob("*.py"))}
    assert mkdir_calls(sources) == []


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
