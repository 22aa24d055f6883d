"""The public export list: every name resolves, once, and a star import
gives exactly that list; no module-level name of the package is dead."""

import ast
import pathlib

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


def module_level_names():
    """(module, name, statement) of every function, class and assigned name
    at the top of a package module, and per name the top-level statements of
    the package that read it: as a name loaded, an attribute or an import."""
    defined, readers = [], {}
    for path in sorted(pathlib.Path(equilab.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name, node))
            elif isinstance(node, ast.Assign):
                defined += [(path.stem, t.id, node) for t in node.targets
                            if isinstance(t, ast.Name)]
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
                        else sub.attr if isinstance(sub, ast.Attribute)
                        else sub.name if isinstance(sub, ast.alias) else None)
                readers.setdefault(name, []).append(node)
    return defined, readers


def test_every_name_is_exported_or_read():
    # a public name the package never reads is exported; a private one is
    # read outside its own definition, or it is dead code
    defined, readers = module_level_names()
    dead = [f"{module}.{name}" for module, name, node in defined
            if not name.startswith("__")
            and not any(reader is not node for reader in readers.get(name, ()))
            and (name.startswith("_") or name not in equilab.__all__)]
    assert dead == []
