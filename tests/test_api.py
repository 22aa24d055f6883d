"""The public export list: every name resolves, once, and a star import
gives exactly that list."""

import equilab


def test_every_exported_name_resolves():
    missing = [name for name in equilab.__all__ if not hasattr(equilab, name)]
    assert missing == []


def test_no_duplicate_names():
    assert len(equilab.__all__) == len(set(equilab.__all__))


def test_star_import_exposes_exactly_all():
    namespace = {}
    exec("from equilab import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(equilab.__all__)
