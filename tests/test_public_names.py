"""The package exports no name that only tests use, and no module
imports a name it does not use.

A public name of ``grqi`` must be used by the program: the package
modules other than ``__init__.py``, the scripts or the benchmark.  A use
is a loaded name, an attribute or a string constant equal to the name
(the benchmark looks traced functions up by string).  Imports,
``__all__`` lists and the name's own ``def``, ``class`` or assignment
are not uses.  Reference code that only tests call lives under
``tests/``.

An imported name is used when its module loads it (``os.path.join``
loads ``os``); ``__init__.py`` re-exports, so it is not scanned.
"""
import ast
import inspect
import pathlib

import grqi

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROGRAM = [
    *(p for p in (ROOT / "src" / "grqi").glob("*.py") if p.name != "__init__.py"),
    *(ROOT / "scripts").glob("*.py"),
    *(ROOT / "perfbench").glob("*.py"),
]
TESTS = sorted((ROOT / "tests").glob("*.py"))


def used_names(tree: ast.AST) -> set:
    listed = {
        id(node)
        for assign in ast.walk(tree)
        if isinstance(assign, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in assign.targets)
        for node in ast.walk(assign.value)
    }
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and id(node) not in listed:
            used.add(node.value)
    return used


def test_every_public_name_is_used_by_the_program():
    assert len(PROGRAM) > 10
    used = set()
    for path in PROGRAM:
        used |= used_names(ast.parse(path.read_text(), str(path)))
    public = {
        name for name, value in vars(grqi).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(public - used) == []


def unused_imports(tree: ast.AST) -> list:
    imported = [
        (node.lineno, alias.asname or alias.name.split(".")[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [(line, name) for line, name in imported if name not in loaded]


def test_no_module_imports_a_name_it_does_not_load():
    assert len(TESTS) > 10
    unused = {}
    for path in PROGRAM + TESTS:
        names = unused_imports(ast.parse(path.read_text(), str(path)))
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert unused == {}
