"""One benchmark task in a fresh interpreter; writes one JSON result to ``--result``.

Tasks:
  setup     time the eigenshift import and, for a FEM config, the public calls
            ``run_scenario`` makes before its eps loop (mesh, assembly,
            reference carve, reference eigensolve)
  sweep     ``eigenshift.cli.main(["run", ...])`` on a FEM config
  abstract  ``harness.verify_abstract`` in batches of ``workloads.CASES_PER_BATCH`` cases

The orchestrator (``run.py``) starts this with the thread environment pinned
and ``src`` on ``PYTHONPATH``.  With ``--spans`` the task runs traced and the
spans are written there when it ends.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import time
import traceback

import workloads
from tracer import Tracer

def _import_cli():
    start = time.perf_counter()
    from eigenshift import cli

    return cli, time.perf_counter() - start


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": numpy.show_config(mode="dicts")["Build Dependencies"],
        "threads": {name: os.environ.get(name) for name in workloads.THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def task_setup(args) -> dict:
    _, import_s = _import_cli()
    out = {"import_s": import_s, "setup_s": import_s}
    if args.config:
        from eigenshift import fem2d, hilbert
        from eigenshift.harness import ScenarioConfig

        start = time.perf_counter()
        config = ScenarioConfig.from_json(args.config)
        mesh = fem2d.unit_square_mesh(config.subdivisions)
        space = fem2d.assemble(mesh, config.coefficient_field())
        dom1 = config.reference_domain()
        h1 = fem2d.carve_subspace(space, mesh, dom1)
        n_lowest = config.n_lowest if config.n_lowest < h1.dim else None
        hilbert.solve_operator_eigs(h1, config.group_tol_for(dom1), n_lowest=n_lowest)
        out["setup_s"] += time.perf_counter() - start
    return out


def task_sweep(args, tracer) -> dict:
    cli, import_s = _import_cli()
    if tracer:
        tracer.install()
    start = time.perf_counter()
    rc = cli.main(["run", "--config", args.config, "--out", args.out])
    wall_s = time.perf_counter() - start
    return {"import_s": import_s, "wall_s": wall_s, "rc": rc}


def task_abstract(args, tracer) -> dict:
    _, import_s = _import_cli()
    from eigenshift import harness

    if tracer:
        tracer.install()
    batches = []
    begin = time.perf_counter()
    for index in itertools.count():
        if args.batches and index == args.batches:
            break
        if not args.batches and index and time.perf_counter() - begin >= args.seconds:
            break
        seed = workloads.batch_seed(args.seed, index)
        start = time.perf_counter()
        try:
            summary = harness.verify_abstract(seed=seed, n_cases=workloads.CASES_PER_BATCH)
        except Exception as exc:  # noqa: BLE001 - a failed batch is recorded, the run goes on
            wall_s = time.perf_counter() - start
            batches.append(
                {"seed": seed, "wall_s": wall_s, "status": "raised",
                 "error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}
            )
            continue
        wall_s = time.perf_counter() - start
        violated = sorted(
            name
            for name, value in summary.items()
            if isinstance(value, dict) and (value.get("worst_margin") or 0.0) < 0
        )
        if summary["seed"] != seed or summary["n_cases"] != workloads.CASES_PER_BATCH:
            status = "incomplete"
        else:
            status = "passed" if summary["passed"] else "violated"
        batches.append({"seed": seed, "wall_s": wall_s, "status": status, "violated": violated})
    return {"import_s": import_s, "batches": batches}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("task", choices=("setup", "sweep", "abstract"))
    parser.add_argument("--result", required=True)
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--batches", type=int, default=0)
    parser.add_argument("--env", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args(argv)

    tracer = Tracer(args.run_id) if args.spans else None
    if args.task == "setup":
        out = task_setup(args)
    elif args.task == "sweep":
        out = task_sweep(args, tracer)
    else:
        out = task_abstract(args, tracer)
    out["peak_rss_mb"] = _peak_rss_mb()
    if args.env:
        out["env"] = environment()
    if tracer:
        tracer.uninstall()
        tracer.dump(args.spans)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
