"""The package's public name list."""

import ast
import re
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
