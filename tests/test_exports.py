"""The package's exports: every name listed in an ``__all__`` resolves."""

import importlib
import pkgutil

import eigenshift


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone breaks
    # ``from eigenshift.<module> import *`` and misleads readers
    names = ["eigenshift"] + [
        f"eigenshift.{info.name}" for info in pkgutil.iter_modules(eigenshift.__path__)
    ]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        missing += [f"{name}.{attr}" for attr in exported if not hasattr(module, attr)]
    assert len(names) > 5 and not missing
