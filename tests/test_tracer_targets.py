"""The benchmark's span tracer binds package names, which must keep resolving.

``perfbench/tracer.py`` wraps every ``(module, attr)`` in its ``TARGETS`` and
reads call arguments by parameter name in its ``ATTRS``.  The benchmark's own
self-tests lie outside this suite's test paths, so without these checks a
rename that breaks the traced bench run would still pass here.  The tracer is
loaded from its file and not modified.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from eigenshift import fem2d, hilbert
from eigenshift.eigsolve import SymmetricPencil, solve_pencil
from eigenshift.fem2d import CoefficientField

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def test_tracer_targets_resolve():
    missing = []
    for module_name, attr in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"tracer targets no longer in the package: {missing}"


def test_tracer_attrs_bind_by_parameter_name():
    # each ATTRS reader gets the arguments of a real call, bound as the tracer
    # binds them, so a renamed parameter fails here with a KeyError
    mesh = fem2d.unit_square_mesh(4)
    space = fem2d.assemble(mesh, CoefficientField.identity())
    calls = {
        "eigsolve.solve_pencil": (solve_pencil, (SymmetricPencil(np.eye(2), np.eye(2)),), {}),
        "hilbert.solve_operator_eigs": (
            hilbert.solve_operator_eigs, (space.whole(),), {"n_lowest": 2}
        ),
        "fem2d.assemble": (fem2d.assemble, (mesh, CoefficientField.identity()), {}),
    }
    assert set(calls) == set(tracer.ATTRS)
    for name, (func, args, kwargs) in calls.items():
        bound = inspect.signature(func).bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.ATTRS[name](bound, func(*args, **kwargs))
