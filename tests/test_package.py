"""The package's public name list."""

import reelsim as rs


def test_every_exported_name_resolves():
    missing = [name for name in rs.__all__ if not hasattr(rs, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(set(rs.__all__)) == len(rs.__all__)


def test_star_import_gives_exactly_the_exported_names():
    namespace = {}
    exec("from reelsim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(rs.__all__)
