"""The benchmark's span tracer and setup task bind package names, which must keep resolving.

``perfbench/tracer.py`` wraps every ``(module, attr)`` in its ``TARGETS`` and
reads call arguments by parameter name in its ``ATTRS``; ``perfbench/child.py``
times the calls ``run_scenario`` makes before its eps loop.  The benchmark's
own self-tests lie outside this suite's test paths, so without these checks a
rename that breaks the bench run would still pass here.  Both are loaded from
their files and not modified, and so are the bench's FEM workloads, whose
factorizations and Lanczos solves are counted here.
"""

import argparse
import importlib
import importlib.util
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from eigenshift import fem2d, harness, hilbert
from eigenshift.eigsolve import SymmetricPencil, solve_pencil
from eigenshift.fem2d import CoefficientField

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("perfbench_tracer", PERFBENCH / "tracer.py")


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


def test_bench_setup_task_runs_on_the_smoke_config(monkeypatch, tmp_path):
    # child.py imports its siblings by their bare names
    workloads = _load("perfbench_workloads", PERFBENCH / "workloads.py")
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    child = _load("perfbench_child", PERFBENCH / "child.py")
    config = tmp_path / "smoke.json"
    config.write_text(json.dumps(workloads.FEM_CONFIGS["smoke"]))
    out = child.task_setup(argparse.Namespace(config=str(config)))
    assert out["setup_s"] > out["import_s"] >= 0.0


def test_traced_smoke_run_solves_sigma_inside_its_span(monkeypatch):
    # the bench's sigma metrics read the hilbert.sigma_distance spans: one per
    # eps, with the Lanczos solve of the pair's pencil inside it, and none in
    # the hilbert.sigma_star span, which reads the same solve
    importlib.import_module("eigenshift.cli")  # the tracer wraps cli.main too
    workloads = _load("perfbench_workloads", PERFBENCH / "workloads.py")
    config = harness.ScenarioConfig.from_dict(workloads.FEM_CONFIGS["smoke"])
    started = []
    true_lanczos = hilbert._lanczos_top

    def spy(*args):
        started.append(time.perf_counter())
        return true_lanczos(*args)

    monkeypatch.setattr(hilbert, "_lanczos_top", spy)
    probe = tracer.Tracer("tier1")
    probe.install()
    try:
        report = harness.run_scenario(config)
    finally:
        probe.uninstall()
    assert report.passed, report.failures

    def solves_inside(name):
        spans = [span for span in probe.spans if span[2] == name]
        return [sum(span[3] <= t <= span[4] for t in started) for span in spans]

    assert solves_inside("hilbert.sigma_distance") == [1] * len(config.eps)
    assert solves_inside("hilbert.sigma_star") == [0] * len(config.eps)


@pytest.mark.parametrize(
    "workload, factors, solves", [("shrink_sweep", 10, 8), ("notch_checker", 11, 9)]
)
def test_bench_fem_workloads_keep_their_sparse_solves(
    dense_free, monkeypatch, workload, factors, solves
):
    # the bench measures these sparse factorizations and ARPACK solves; a
    # change to how pencils are solved must not add, drop or densify any
    workloads = _load("perfbench_workloads", PERFBENCH / "workloads.py")
    config = harness.ScenarioConfig.from_dict(workloads.FEM_CONFIGS[workload])
    counts = {"factors": 0, "solves": 0}
    true_splu, true_lanczos = hilbert._symmetric_splu, hilbert._lanczos_top

    def splu(mat):
        counts["factors"] += 1
        return true_splu(mat)

    def lanczos(*args):
        counts["solves"] += 1
        return true_lanczos(*args)

    monkeypatch.setattr(hilbert, "_symmetric_splu", splu)
    monkeypatch.setattr(hilbert, "_lanczos_top", lanczos)
    report = harness.run_scenario(config)
    assert report.passed, report.failures
    assert counts == {"factors": factors, "solves": solves}
