"""Every name and keyword the benchmark uses from grqi exists.

``perfbench/`` reaches the program through module aliases
(``from grqi import kernels as kn``, then ``kn.residual_angle(...)``)
and looks traced functions up by string (``tracing.TRACED``).  A
refactor that drops or renames such a name, or a keyword that a call
passes, would otherwise show only when the benchmark runs.  The benchmark
files are parsed, not imported.
"""
import ast
import importlib
import inspect
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def parsed():
    return [(path.name, ast.parse(path.read_text())) for path in BENCH]


def grqi_imports(tree):
    """(alias -> imported grqi object, [(module, name) of each import])."""
    aliases, imported = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module == "grqi" or node.module.startswith("grqi.")
        ):
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported.append((node.module, alias.name))
                if hasattr(module, alias.name):
                    aliases[alias.asname or alias.name] = getattr(
                        module, alias.name
                    )
    return aliases, imported


def accepts(obj, keyword: str) -> bool:
    params = inspect.signature(obj).parameters.values()
    return any(
        p.name == keyword and p.kind != p.POSITIONAL_ONLY
        or p.kind == p.VAR_KEYWORD
        for p in params
    )


def test_the_benchmark_reaches_grqi_through_module_aliases():
    aliases = {}
    for _, tree in parsed():
        aliases.update(grqi_imports(tree)[0])
    assert {"gcli", "ex", "it", "kn", "st", "tg", "mmio"} <= set(aliases)


@pytest.mark.parametrize("name,tree", parsed(), ids=[p.name for p in BENCH])
def test_every_grqi_name_and_keyword_the_benchmark_uses_exists(name, tree):
    aliases, imported = grqi_imports(tree)
    missing = [
        f"{module}.{attr}" for module, attr in imported
        if not hasattr(importlib.import_module(module), attr)
    ]
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            continue
        owner = aliases[node.value.id]
        if not hasattr(owner, node.attr):
            missing.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if not (
            isinstance(node, ast.Call)
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in aliases
            and hasattr(aliases[func.value.id], func.attr)
        ):
            continue
        target = getattr(aliases[func.value.id], func.attr)
        for kw in node.keywords:
            if kw.arg is not None and not accepts(target, kw.arg):
                missing.append(
                    f"{func.value.id}.{func.attr}({kw.arg}=) "
                    f"(line {node.lineno})"
                )
    assert not missing, f"{name} uses what grqi lacks: {missing}"


def test_every_traced_name_exists():
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    values = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("TRACED", "MODULES")
    }
    assert len(values["TRACED"]) > 10
    missing = [
        f"{home}.{attr}" for home, attr in values["TRACED"]
        if not callable(
            getattr(importlib.import_module(f"grqi.{home}"), attr, None)
        )
    ]
    for module in values["MODULES"]:
        importlib.import_module(f"grqi.{module}")
    assert not missing, f"TRACED names missing from grqi: {missing}"
