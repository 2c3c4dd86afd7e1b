"""The package's public name list."""

import ast
import re
import types
import typing
from pathlib import Path

import reelsim as rs

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in rs.__all__ if not hasattr(rs, name)]
    assert missing == []


def test_every_exported_annotation_resolves():
    # Annotations name only what their module imports at run time, so
    # typing.get_type_hints works on every public function and class.
    for name in rs.__all__:
        value = getattr(rs, name)
        if callable(value):
            typing.get_type_hints(value)


def test_exported_names_are_unique():
    assert len(set(rs.__all__)) == len(rs.__all__)


def test_star_import_gives_exactly_the_exported_names():
    namespace = {}
    exec("from reelsim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(rs.__all__)


def test_every_export_is_used_or_documented():
    # A public name must be used in the package beyond its definition or
    # in the benchmark's code, as a loaded name or an attribute (a
    # docstring or string literal naming it does not count), or be
    # documented in the README: no name is public only for the tests.
    modules = [*(ROOT / "src" / "reelsim").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    used = set()
    for module in modules:
        if module.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    readme = (ROOT / "README.md").read_text()
    documented = {name for name in rs.__all__ if re.search(rf"\b{name}\b", readme)}
    assert [name for name in rs.__all__ if name not in used | documented] == []


def test_exported_names_are_the_names_the_package_imports():
    # __all__ is derived, so a name the package imports is public and no
    # submodule or private name is.
    assert not any(isinstance(getattr(rs, name), types.ModuleType) for name in rs.__all__)
    assert not any(name.startswith("_") for name in rs.__all__)
    tree = ast.parse((ROOT / "src" / "reelsim" / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert set(rs.__all__) == imported


def test_engine_modules_import_no_front_end_module():
    # the engine reads its own settings classes; the file format, the
    # exporters and the command line sit on top of it
    front_end = {"scenario", "exports", "cli"}
    for stem in ("core", "sampling", "utility", "equilibrium", "frames", "reels"):
        tree = ast.parse((ROOT / "src" / "reelsim" / f"{stem}.py").read_text())
        modules = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["reelsim" if node.level else "", node.module]))
                modules += [f"{base}.{alias.name}" for alias in node.names]
        imported = {name.split(".")[1] for name in modules if name.startswith("reelsim.")}
        assert imported.isdisjoint(front_end), (stem, sorted(imported & front_end))


def test_no_function_body_imports():
    # every dependency is declared at the top of its module
    for path in sorted((ROOT / "src" / "reelsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [
                    child.lineno
                    for child in ast.walk(node)
                    if isinstance(child, (ast.Import, ast.ImportFrom))
                ]
                assert inner == [], (path.name, node.name, inner)
