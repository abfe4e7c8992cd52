"""The benchmark's span tracer and setup task bind package names, which must keep resolving.

``perfbench/tracer.py`` wraps every ``(module, attr)`` in its ``TARGETS`` and
reads call arguments by parameter name in its ``ATTRS``; ``perfbench/child.py``
times the calls ``run_scenario`` makes before its eps loop.  The benchmark's
own self-tests lie outside this suite's test paths, so without these checks a
rename that breaks the bench run would still pass here.  Both are loaded from
their files and not modified, and so are the bench's FEM workloads, whose
solver census is checked here.
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
            hilbert.solve_operator_eigs, (space.whole(),), {"group_tol": 1e-6, "n_lowest": 2}
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


def _solves_inside_sigma_spans(monkeypatch, config, solver):
    """For each eps of a traced run of config, the number of calls of the
    hilbert routine ``solver`` inside its hilbert.sigma_distance span and
    inside its hilbert.sigma_star span."""
    started = []
    true_solver = getattr(hilbert, solver)

    def spy(*args):
        started.append(time.perf_counter())
        return true_solver(*args)

    monkeypatch.setattr(hilbert, solver, spy)
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

    return solves_inside("hilbert.sigma_distance"), solves_inside("hilbert.sigma_star")


def test_traced_smoke_run_solves_sigma_inside_its_span(monkeypatch):
    # the bench's sigma metrics read the hilbert.sigma_distance spans: one per
    # eps, with the solve of the pair's pencil inside it, and none in the
    # hilbert.sigma_star span, which reads the same solve.  The smoke pairs
    # remove at most 40 dofs, so their pencils are the dense capacitance
    # pencils; at h=1/16 the same sweep removes more, and runs Lanczos
    importlib.import_module("eigenshift.cli")  # the tracer wraps cli.main too
    workloads = _load("perfbench_workloads", PERFBENCH / "workloads.py")
    smoke = workloads.FEM_CONFIGS["smoke"]
    eps = [1.0 / 8.0, 2.0 / 8.0]
    assert smoke["h"] == 1.0 / 8.0 and smoke["eps"] == eps
    runs = (
        (harness.ScenarioConfig.from_dict(smoke), "solve_pencil"),
        (harness.ScenarioConfig.from_dict({**smoke, "h": 1.0 / 16.0, "eps": eps}), "_lanczos_top"),
    )
    for config, solver in runs:
        inside = _solves_inside_sigma_spans(monkeypatch, config, solver)
        assert inside == ([1] * len(eps), [0] * len(eps)), solver


# ids: the workload, its factorizations and its Lanczos solves
@pytest.mark.parametrize(
    "workload, line",
    [
        pytest.param(
            "shrink_sweep", ([4, 5, 5, 5, 5], 8, (0, 5, 3), 1, 3, []), id="shrink_sweep-8-8"
        ),
        pytest.param(
            "notch_checker", ([4, 3, 3, 3, 3], 7, (0, 3, 2), 3, 2, [8, 28]), id="notch_checker-5-7"
        ),
    ],
)
def test_bench_fem_workloads_keep_their_sparse_solves(dense_free, workload, line):
    # the bench measures these sparse factorizations and ARPACK solves; a
    # change to how pencils are solved must not add, drop or densify any.
    # The line is the census line tools/compare_trees.py prints: the requests,
    # the Lanczos solves, the factors split into the space's pivot proofs
    # (none, as assemble proves its Grams definite), the subspace solve
    # factors and the Sylvester count factors, the partial spectra proved by
    # interlacing and by a count, and the |R| of each pair solved through the
    # union.  The notch's eps = 2h and 4h pairs remove 8 and 28 dofs, so they
    # build no solve factor, and their sigma is a dense capacitance pencil
    workloads = _load("perfbench_workloads", PERFBENCH / "workloads.py")
    config = harness.ScenarioConfig.from_dict(workloads.FEM_CONFIGS[workload])
    with hilbert.census() as census:
        report = harness.run_scenario(config)
    assert report.passed, report.failures
    kinds = [kind for kind, _ in census["factors"]]
    assert (
        census["requests"],
        len(census["lanczos"]),
        tuple(kinds.count(kind) for kind in ("space", "solve", "count")),
        len(census["interlaced"]),
        len(census["counts"]),
        census["through_union"],
    ) == line
