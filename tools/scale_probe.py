"""Time and peak memory of one sweep per scenario family, for one or more source trees.

Run from anywhere:

    python tools/scale_probe.py N ROOT [ROOT ...]

At h = 1/N, N a multiple of 4 and at least 64 (so that the expanding
square stays inside D), each of three sweeps runs eps in {2h, 4h, 8h, 16h}
and m in {1, 2}: ``square_shrink`` and ``square_expand`` with the
identity coefficient, and ``boundary_notch`` (anchor (0.5, 1)) with the
checker coefficient, nu = 0.5.  Every sweep runs ``harness.run_scenario``
in a fresh interpreter with that ROOT's ``src`` on PYTHONPATH and the
bench's one-thread BLAS settings (``perfbench/workloads.py``); the roots
take turns within each family, so drift on a shared host spreads over all
of them.  Name a root twice to run it twice.  One line per sweep gives the
wall time of ``run_scenario``, the interpreter's peak resident set
(``ru_maxrss``) in MiB, and the report's ``passed``.
"""

from __future__ import annotations

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

FAMILIES = {
    "square_shrink": {"coefficient": {"kind": "identity"}},
    "boundary_notch": {"coefficient": {"kind": "checker", "nu": 0.5}, "anchor": [0.5, 1.0]},
    "square_expand": {"coefficient": {"kind": "identity"}},
}

# argv: src dir, config JSON; prints wall seconds, peak RSS in MiB and passed as JSON
CHILD = """
import json, resource, sys, time
from pathlib import Path
import eigenshift
from eigenshift import harness

src = Path(sys.argv[1]).resolve()
if Path(eigenshift.__file__).resolve().parent != src / "eigenshift":
    sys.exit(f"imported eigenshift from {eigenshift.__file__}, not from {src}")
config = harness.ScenarioConfig.from_dict(json.loads(sys.argv[2]))
start = time.perf_counter()
report = harness.run_scenario(config)
wall = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
print(json.dumps([wall, peak, report.passed]))
"""


def sweep(family: str, n: int) -> dict:
    h = 1.0 / n
    return {
        "scenario": family, "h": h, "eps": [k * h for k in (2, 4, 8, 16)], "m": [1, 2],
        "q": 2.0, **FAMILIES[family],
    }


def main(argv: list) -> int:
    if len(argv) < 2 or not argv[0].isdigit() or int(argv[0]) % 4 or int(argv[0]) < 64:
        print("usage: python tools/scale_probe.py N ROOT [ROOT ...], N >= 64 a multiple of 4",
              file=sys.stderr)
        return 2
    n, roots = int(argv[0]), [Path(arg).resolve() for arg in argv[1:]]
    repo = Path(__file__).resolve().parent.parent
    workloads = runpy.run_path(str(repo / "perfbench" / "workloads.py"))
    print(f"h=1/{n}, one fresh interpreter per sweep")
    print(f"{'family':16} {'wall_s':>8} {'peak_MiB':>9}  passed  root")
    status = 0
    for family in FAMILIES:
        config = json.dumps(sweep(family, n))
        for root in roots:
            src = root / "src"
            env = {**os.environ, **workloads["THREAD_ENV"], "PYTHONPATH": str(src)}
            done = subprocess.run(
                [sys.executable, "-c", CHILD, str(src), config],
                env=env, cwd=root, capture_output=True, text=True,
            )
            if done.returncode != 0:
                print(f"{family:16} failed: {done.stderr.strip().splitlines()[-1:]}  {root}")
                status = 1
                continue
            wall, peak, passed = json.loads(done.stdout)
            print(f"{family:16} {wall:8.2f} {peak:9.1f}  {str(passed):6}  {root}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
