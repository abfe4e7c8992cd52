"""The package's exports: every name listed in an ``__all__`` resolves, only
one module lists it, and the package itself uses it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import eigenshift

SRC = Path(eigenshift.__file__).parent

# exported names with no caller in the package, each with its reason
UNUSED_EXPORTS = {
    "hilbert.intersection_subspace": "perfbench/tracer.py's TARGETS wraps it by name, "
    "and tests/test_tracer_targets.py checks that binding; it goes with that target",
}


def _module_names():
    return ["eigenshift"] + [
        f"eigenshift.{info.name}" for info in pkgutil.iter_modules(eigenshift.__path__)
    ]


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone breaks
    # ``from eigenshift.<module> import *`` and misleads readers
    names = _module_names()
    missing = []
    for name in names:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        missing += [f"{name}.{attr}" for attr in exported if not hasattr(module, attr)]
    assert len(names) > 5 and not missing


def _used_names(tree):
    """Names a module reads: every Name and attribute access.  A def or
    class statement binds its name without a Name node, and an ``__all__``
    entry is a string, so neither counts as a use."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_exported_name_has_a_caller_in_the_package():
    # a public routine that only the tests call belongs next to those tests
    used = set()
    for path in sorted(SRC.glob("*.py")):
        used |= _used_names(ast.parse(path.read_text(encoding="utf-8")))
    unused = set()
    for name in _module_names():
        short = name.removeprefix("eigenshift.")
        for attr in getattr(importlib.import_module(name), "__all__", ()):
            # dunder metadata such as __version__ is not a routine
            if not attr.startswith("__") and attr not in used:
                unused.add(f"{short}.{attr}")
    assert unused == set(UNUSED_EXPORTS)


def test_no_name_is_exported_by_two_modules():
    # each routine has one public name, in the module that defines it
    owners = {}
    for name in _module_names():
        for attr in getattr(importlib.import_module(name), "__all__", ()):
            owners.setdefault(attr, []).append(name)
    assert {attr: names for attr, names in owners.items() if len(names) > 1} == {}


# records the report writes whole, through dataclasses.asdict and vars
WRITTEN_WHOLE = {"ScenarioCell", "PredictionRow"}


def _dataclasses(tree):
    """The class definitions in tree decorated with dataclass, called or not."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            ast.unparse(d).split("(")[0] == "dataclass" for d in node.decorator_list
        ):
            yield node


def test_every_record_field_is_read_in_the_package():
    # a field that nothing reads is state each construction must fill in for
    # no reader; the records the report writes whole are read by being written
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = set()
    for tree in trees:
        for cls in _dataclasses(tree):
            if cls.name in WRITTEN_WHOLE:
                continue
            for stmt in cls.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in ast.unparse(stmt.annotation)
                    and stmt.target.id not in read
                ):
                    unread.add(f"{cls.name}.{stmt.target.id}")
    assert unread == set()
