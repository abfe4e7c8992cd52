"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMOKE_REF = HERE / "reference" / "smoke.rows.csv"


def _bench(tmp_path, workload, trace, seconds=1):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", str(seconds), "--trace", str(trace), "--results", str(tmp_path)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke_sweep(tmp_path_factory):
    """One h=1/8 sweep through the benchmark's own sweep child."""
    work = tmp_path_factory.mktemp("smoke")
    config = work / "config.json"
    config.write_text(json.dumps(workloads.FEM_CONFIGS["smoke"]))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "child.py"), "sweep", "--result", str(work / "r.json"),
           "--config", str(config), "--out", str(work / "out")]
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True, timeout=120)
    result = json.loads((work / "r.json").read_text())
    return work / "out", result


def test_smoke_config_runs_clean_in_seconds(smoke_sweep):
    out, result = smoke_sweep
    assert result["rc"] == 0
    assert result["wall_s"] < 10.0
    verdict = checks.check_sweep(out, SMOKE_REF, workloads.FEM_CONFIGS["smoke"], result["rc"])
    assert len(verdict) == workloads.cells_per_sweep("smoke")
    assert not any(verdict.values()), verdict


def test_corrupted_reference_row_is_a_failure(smoke_sweep, tmp_path):
    out, result = smoke_sweep
    header, rows = checks.read_rows(SMOKE_REF)
    column = header.index("tau")
    rows[1][column] = repr(float(rows[1][column]) * (1.0 + 1e-6))
    bad = tmp_path / "bad.rows.csv"
    bad.write_text("\n".join(",".join(row) for row in [header, *rows]) + "\n")
    verdict = checks.check_sweep(out, bad, workloads.FEM_CONFIGS["smoke"], result["rc"])
    failed = {cell: found for cell, found in verdict.items() if found}
    assert len(failed) == 1
    (found,) = failed.values()
    assert "tau" in found[0]


def test_tolerance_admits_a_1e9_relative_change(smoke_sweep, tmp_path):
    out, result = smoke_sweep
    header, rows = checks.read_rows(SMOKE_REF)
    for row in rows:
        for j, name in enumerate(header):
            if name not in checks.EXACT_COLUMNS:
                row[j] = repr(float(row[j]) * (1.0 + 1e-9))
    shifted = tmp_path / "shifted.rows.csv"
    shifted.write_text("\n".join(",".join(row) for row in [header, *rows]) + "\n")
    verdict = checks.check_sweep(out, shifted, workloads.FEM_CONFIGS["smoke"], result["rc"])
    assert not any(verdict.values()), verdict


def test_missing_report_fails_every_cell(tmp_path):
    verdict = checks.check_sweep(tmp_path / "none", SMOKE_REF, workloads.FEM_CONFIGS["smoke"], 2)
    assert len(verdict) == workloads.cells_per_sweep("smoke")
    assert all(verdict.values())


def test_tracer_covers_every_lookup_site():
    from eigenshift import cli  # noqa: F401 - loads every layer module

    originals = {}
    for module_name, attr in tracer.TARGETS:
        owner = sys.modules[module_name]
        if "." in attr:
            class_name, attr = attr.split(".")
            owner = getattr(owner, class_name)
        originals[id(vars(owner)[attr])] = f"{module_name}.{attr}"
    probe = tracer.Tracer("probe")
    probe.install()
    try:
        left = [
            f"{module.__name__}.{key} is still {originals[id(value)]}"
            for module in tracer._package_modules()
            for key, value in vars(module).items()
            if id(value) in originals
        ]
        assert not left
        # names imported into other modules are patched there too
        assert len(probe.sites) > len(tracer.TARGETS)
    finally:
        probe.uninstall()
    assert not any(
        hasattr(value, "__wrapped__")
        for module in tracer._package_modules()
        for value in vars(module).values()
    )


def test_raised_and_violated_batches_are_failures():
    verdict = checks.check_batches([
        {"seed": 1, "wall_s": 0.1, "status": "passed", "violated": []},
        {"seed": 2, "wall_s": 0.1, "status": "raised", "error": "IllConditionedIntersectionError: x"},
        {"seed": 3, "wall_s": 0.1, "status": "violated", "violated": ["distance_triangle"]},
        {"seed": 4, "wall_s": 0.1, "status": "incomplete", "violated": []},
    ])
    assert [bool(found) for found in verdict.values()] == [False, True, True, True]
    assert "IllConditionedIntersectionError" in verdict["seed=2"][0]
    assert "distance_triangle" in verdict["seed=3"][0]


@pytest.mark.parametrize("workload", ["smoke", "abstract_verify"])
def test_every_declared_metric_is_printed(tmp_path, workload):
    declared = _declared()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        lines = _bench(tmp_path, workload, trace)
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert result["failed"] == 0 or workload == "abstract_verify"
        names = [m["name"] for m in declared[kind]]
        assert sorted(result["metrics"]) == sorted(names)
        for metric in declared[kind]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any("fail_frac" in line for line in lines)
    records = [json.loads(p.read_text()) for p in tmp_path.glob("*.json")]
    assert len(records) == 2
    for record in records:
        assert record["env"]["numpy"] and record["env"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_traced_smoke_nests_spans_at_by_name_lookups(tmp_path):
    lines = _bench(tmp_path, "smoke", 1)
    metrics = json.loads(lines[-1])["metrics"]
    assert metrics["hilbert.sigma_distance.pencil_dim_sum"]["value"] > 0
    assert metrics["fem2d.unit_square_mesh.s"]["value"] > 0
    assert metrics["hilbert.compute_rho.s"]["value"] > 0
    assert metrics["hilbert.corrector_block.per_cell"]["value"] > 0


def test_mapping_names_every_per_layer_metric():
    mapping = json.loads((HERE / "mapping.json").read_text())
    declared = _declared()
    assert sorted(mapping) == sorted(m["name"] for m in declared["per_layer"])
    workload_names = {w["name"] for w in declared["workloads"]}
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    for entry in mapping.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= workload_names


def test_refuses_to_run_without_sources(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bare / "perfbench" / path.name).write_text(path.read_text())
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shrink_sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
