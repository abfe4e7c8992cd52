"""eigenshift benchmark: one workload per run, each measured part in a fresh child process.

Run from the repository root:

    python3 perfbench/run.py --workload shrink_sweep --seed 0 --seconds 50 --trace 0

Workloads (``BENCHMARK.json`` gives the reason for each declared one):
  shrink_sweep     ``eigenshift run`` on square_shrink, h=1/36, 4 eps x 2 m
  notch_checker    ``eigenshift run`` on boundary_notch with the checker coefficient
  abstract_verify  ``harness.verify_abstract`` in batches of 10 cases; not declared,
                   because its Python-bound batch times drift with the load on a
                   shared host far more than the FEM sweeps do

With ``--trace 0`` the run measures ``wall_s``, ``peak_rss_mb`` and
``setup_s``, each the median over fresh children.  A FEM workload runs a
setup child and a whole sweep in turn until ``--seconds`` is spent, at
least one of each, so that both sets of samples span the run; ``wall_s``
is the median sweep time.  ``abstract_verify`` runs one child that runs
batches for ``--seconds``, with SETUP_REPEATS setup children, half before
and half after it, and ``wall_s`` is the median time of its completed
batches.

With ``--trace 1`` the run makes one untraced and one traced pass over the
same inputs and reports the per-layer metrics of the traced pass.
``trace.overhead_s`` is the traced ``wall_s`` minus the untraced one.

Every run checks the program's outputs (``checks.py``), prints each metric
with its unit and sample count and ``fail_frac``, writes a record with the
environment to ``perfbench/results/``, and prints as its last line one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  It exits 2,
printing no result, when the eigenshift sources are not in the working
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 4
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not measure the workload."""


class Run:
    """One invocation: its working directory, deadline and child processes."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 results: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        stamp = time.strftime("%Y%m%dT%H%M%S")
        self.run_id = f"{workload}-s{seed}-t{int(trace)}-{stamp}-{uuid.uuid4().hex[:6]}"
        self.results = results
        self.work = results / self.run_id
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.children = 0
        self.env = dict(os.environ, **workloads.THREAD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
        )

    def child(self, task: str, *args: str, spans: bool = False, env: bool = False) -> dict:
        """Run one child task to completion and return its result."""
        self.children += 1
        tag = f"{self.children:02d}-{task}"
        result = self.work / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "child.py"), task, "--result", str(result), *args]
        if env:
            cmd.append("--env")
        if spans:
            cmd += ["--spans", str(self.work / f"{tag}.spans.json"), "--run-id", self.run_id]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s before child {tag}")
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child {tag} did not finish within {remaining:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"child {tag} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        with open(result, encoding="utf-8") as handle:
            out = json.load(handle)
        if spans:
            with open(self.work / f"{tag}.spans.json", encoding="utf-8") as handle:
                out["spans"] = json.load(handle)["spans"]
        return out

    # -- setup ---------------------------------------------------------------

    def config_path(self) -> Path:
        path = self.work / "config.json"
        if not path.exists():
            path.write_text(json.dumps(workloads.FEM_CONFIGS[self.workload], indent=2))
        return path

    @property
    def fem(self) -> bool:
        return self.workload in workloads.FEM_CONFIGS

    def setup(self, repeats: int, env: bool = False) -> list:
        """``repeats`` setup children; the first returns the environment if ``env``."""
        args = ["--config", str(self.config_path())] if self.fem else []
        return [self.child("setup", *args, env=env and i == 0) for i in range(repeats)]

    # -- measured part -------------------------------------------------------

    def sweep(self, traced: bool = False, env: bool = False) -> dict:
        """One ``eigenshift run`` of the FEM config, checked against the reference."""
        out_dir = self.work / f"out-{self.children + 1:02d}"
        out = self.child("sweep", "--config", str(self.config_path()), "--out", str(out_dir),
                         spans=traced, env=env)
        ref = HERE / "reference" / f"{self.workload}.rows.csv"
        out["ops"] = checks.check_sweep(out_dir, ref, workloads.FEM_CONFIGS[self.workload],
                                        out["rc"])
        out["wrong"] = any(out["ops"].values())
        out["total_s"] = out["wall_s"]
        if not out["wrong"]:
            shutil.rmtree(out_dir, ignore_errors=True)
        return out

    def sweeps(self) -> tuple[dict, list]:
        """(setup, sweep) pairs of children until ``--seconds`` is spent, at least one.

        The setup children alternate with the sweeps, so both sets of samples
        span the whole run.
        """
        begin = time.monotonic()
        setups, passes = [], []
        pair_s = 0.0
        while not passes or time.monotonic() - begin + pair_s <= self.seconds:
            start = time.monotonic()
            setups += self.setup(1, env=not setups)
            passes.append(self.sweep())
            pair_s = time.monotonic() - start
        samples = [p["wall_s"] for p in passes]
        part = {
            "ops": {f"sweep {i + 1} {cell}": found
                    for i, p in enumerate(passes) for cell, found in p["ops"].items()},
            "samples": samples,
            "wall_s": statistics.median(samples),
            "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
            "wrong": any(p["wrong"] for p in passes),
        }
        return part, setups

    def abstract(self, batches: int = 0, traced: bool = False, env: bool = False) -> dict:
        args = ["--seed", str(self.seed), "--seconds", str(self.seconds)]
        if batches:
            args += ["--batches", str(batches)]
        out = self.child("abstract", *args, spans=traced, env=env)
        out["ops"] = checks.check_batches(out["batches"])
        # raised and violated batches are failed operations of the program's own
        # suite; only a summary that does not match the request is a wrong output
        out["wrong"] = any(b["status"] == "incomplete" for b in out["batches"])
        done = [b["wall_s"] for b in out["batches"] if b["status"] != "raised"]
        out["samples"] = done or [b["wall_s"] for b in out["batches"]]
        out["wall_s"] = statistics.median(out["samples"])
        out["total_s"] = sum(b["wall_s"] for b in out["batches"])
        return out

    def measure(self) -> tuple[dict, list]:
        """The measured part and the setup children taken around it."""
        if self.fem:
            return self.sweeps()
        before = self.setup(SETUP_REPEATS // 2, env=True)
        part = self.abstract()
        part["peak_rss_mb"] = [part["peak_rss_mb"]]
        return part, before + self.setup(SETUP_REPEATS - len(before))

    def traced_pair(self) -> tuple[dict, dict]:
        """An untraced and a traced pass over the same inputs."""
        if not self.fem:
            plain = self.abstract(env=True)
            return plain, self.abstract(batches=len(plain["batches"]), traced=True)
        return self.sweep(env=True), self.sweep(traced=True)


def declared_metrics(root: Path) -> dict:
    """name -> (unit, kind) for every metric BENCHMARK.json declares."""
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    out = {m["name"]: (m["unit"], "end_to_end") for m in spec["end_to_end"]}
    out.update({m["name"]: (m["unit"], "per_layer") for m in spec["per_layer"]})
    return out


def git_commit(root: Path):
    """HEAD of the checkout; None when it is not a git repository or git is missing."""
    # the ceiling keeps git from taking the commit of a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def load_records(results: Path) -> list:
    records = []
    for path in sorted(results.glob("*.json")):
        try:
            records.append(json.loads(path.read_text()))
        except (OSError, ValueError):
            continue
    return records


def spread_between_runs(results: Path, record: dict) -> dict:
    """Per metric: (q3 - q1) / median over the recorded runs of the same workload,
    trace setting and commit, this one included."""
    values = {name: [entry["value"]] for name, entry in record["metrics"].items()}
    for other in load_records(results):
        if any(other.get(key) != record[key] for key in ("workload", "trace", "commit")):
            continue
        for name, entry in other.get("metrics", {}).items():
            if name in values:
                values[name].append(entry["value"])
    spread = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread[name] = {"runs": len(vals), "iqr_over_median": (q3 - q1) / abs(med)}
        else:
            spread[name] = {"runs": len(vals), "iqr_over_median": None}
    return spread


def run_untraced(run: Run) -> tuple[dict, dict, dict]:
    part, setups = run.measure()
    env = setups[0]["env"]
    setup_samples = [out["setup_s"] for out in setups]
    rss = part["peak_rss_mb"]
    values = {
        "wall_s": (part["wall_s"], len(part["samples"])),
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "peak_rss_mb": (statistics.median(rss), len(rss)),
    }
    samples = {"wall_s": part["samples"], "setup_s": setup_samples, "peak_rss_mb": rss}
    return values, part, {"env": env, "samples": samples}


def run_traced(run: Run) -> tuple[dict, dict, dict]:
    plain, traced = run.traced_pair()
    spans = traced.pop("spans")
    cells = workloads.cells_per_sweep(run.workload) if run.fem else len(traced["ops"])
    layer = tracer.layer_metrics(spans, cells if run.fem else 0)
    layer["harness.cells"] = cells
    layer["cli.import_s"] = traced["import_s"]
    layer["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    values = {name: (value, 1) for name, value in layer.items()}
    ops = {f"traced {k}": v for k, v in traced["ops"].items()}
    ops.update({f"untraced {k}": v for k, v in plain["ops"].items()})
    part = {"ops": ops, "wrong": traced["wrong"] or plain["wrong"]}
    extra = {
        "spans": len(spans),
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "traced_total_s": traced["total_s"],
        "env": plain["env"],
    }
    return values, part, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(Path("perfbench") / "results"),
                        help="directory for run records (default: perfbench/results)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "eigenshift" / "cli.py").is_file():
        print(f"error: no eigenshift sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    declared = declared_metrics(root)
    results = Path(args.results)
    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace), results)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        values, part, extra = (run_traced if run.trace else run_untraced)(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    kind = "per_layer" if run.trace else "end_to_end"
    wanted = [name for name, (_, k) in declared.items() if k == kind]
    missing = sorted(set(wanted) - set(values))
    if missing:
        print(f"error: declared metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name][0], "unit": declared[name][0]} for name in wanted}
    attempted = len(part["ops"])
    failed = sum(1 for found in part["ops"].values() if found)

    print(f"workload {run.workload}  seed {run.seed}"
          f"{' (fixed config: the seed does not apply)' if run.fem else ''}"
          f"  seconds {run.seconds:g}  trace {int(run.trace)}  run {run.run_id}")
    for name in wanted:
        value, count = values[name]
        where = "traced pass" if run.trace else f"{count} samples"
        print(f"  {name:44s} {value:.6g} {declared[name][0]}  ({where})")
    print(f"  {'fail_frac':44s} {failed / attempted:.6g}  ({failed} of {attempted} operations)")
    if run.trace:
        total = extra["traced_total_s"]
        top = sorted((values[n][0] / total, n) for n in wanted if n.endswith(".s") and n != "cli.main.s")
        print("  largest inclusive shares of the traced pass (nested spans overlap):")
        for share, name in reversed(top[-6:]):
            print(f"    {name:42s} {share:.3f}")
    for op, found in part["ops"].items():
        for miss in found:
            print(f"  FAIL {op}: {miss}")

    record = {
        "run_id": run.run_id,
        "workload": run.workload,
        "seed": run.seed,
        "seed_applies": not run.fem,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "metrics": metrics,
        "counts": {name: values[name][1] for name in wanted},
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failures": {op: found for op, found in part["ops"].items() if found},
        "commit": git_commit(root),
        **extra,
    }
    record["env"]["thread_pins"] = workloads.THREAD_ENV
    record["spread_between_runs"] = spread_between_runs(results, record)
    (results / f"{run.run_id}.json").write_text(json.dumps(record, indent=1))
    if not part["wrong"] and not run.trace:
        shutil.rmtree(run.work, ignore_errors=True)
    print(json.dumps({"correct": not part["wrong"], "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
