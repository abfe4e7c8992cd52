"""Check that two eigenshift source trees produce the same outputs.

Run from anywhere:

    python tools/compare_trees.py PARENT_ROOT CHANGE_ROOT

Each tree runs in its own interpreter, with that tree's ``src`` on
PYTHONPATH and one BLAS thread.  Both run the same inputs, read from
CHANGE_ROOT: every config under ``configs/``, every ``config.json`` under
``tests/golden/``, and the ``shrink_sweep`` and ``notch_checker`` configs of
``perfbench/workloads.py`` (identical configs run once).  Each config goes
through ``harness.run_scenario`` and ``harness.write_report``;
``harness.verify_abstract(seed, 300)`` runs for the seeds 2024, 11 and 3,
and ``harness.verify_fem()`` once, each summary written as sorted JSON.
Every output file is then compared byte for byte, one ``same`` or
``differ`` line per file, as ``cmp`` decides.  A config that raises on a
tree gets one ``failed`` line instead, naming the exception's type and
message on each tree that raised, and the other configs are still
compared.  The exit status is 1 when any file differs or is missing on one
side, or any config failed.  Under each ``differ`` line come the
worst float drift, relative to the largest magnitude of its column on
either side, then the drift of each float column that drifts, one line
each, worst first (a column whose values all stay equal is not listed),
then each column that drifts but stays below ``ZERO_FLOOR`` =
1e-20 on both sides, zero up to rounding as ``tests/test_golden.py`` reads
it, as ``exact-zero column, largest |x| ...`` and outside the worst drift,
and every non-float difference (a string, int, bool or null,
or a value present on one side only), one line each.  A column is a CSV
column, or a JSON key path with the list indices left out
(``cells.rows.ratio``).  For each config it then prints, on each tree,
what the solvers did, read from a ``hilbert.census()`` block around the
config's run in the tree's own interpreter, so a change to the workloads'
eigensolves and factors shows even when every output is the same;
``verify_fem`` gets the same line.  The line gives the ``n_lowest`` of every
request that a ``hilbert.solve_operator_eigs`` call makes (the ``n`` of
each ``hilbert._lowest_attempt`` it runs, so a call that grows its request
lists each attempt), the count of Lanczos solves and of sparse
factorizations, split by kind: space factors (the pivot proofs that an
``EnergySpace``'s A and M are definite), solve factors (a subspace's A_II,
each built on first use) and Sylvester count factors (one per shift tried).
A space that ``fem2d.assemble`` proves definite by construction makes no
space factor.  The partial spectra (the reference's among them) are split
by what proved them complete: interlacing with the reference, or a
Sylvester count.  Then come the pairs that solved through the union's
factor: the |R| of each nested ``hilbert.SubspacePair`` that removed at most
``hilbert._CAPACITANCE_MAX`` dofs R.  The line ends with the operator
applications summed over the Lanczos solves and the count of subspace
solves (``hilbert.Subspace._solve`` calls) with their columns, each
``n/a`` on a tree whose census does not record it.  Both trees must have
``hilbert.census``; to compare against a tree that lacks it, run that
tree's own copy of this tool, which reads the same counts by wrapping the
solver routines.  Last it prints the size of each tree's package,
``src lines: PARENT -> CHANGE``, counted as ``wc -l src/eigenshift/*.py``
counts it, and the exported names the change
drops or adds, ``exports: -module.name +module.name`` (``unchanged`` when
none), read from each module's ``__all__`` with ``eigenshift.name`` for the
package's own; dunder metadata such as ``__version__`` is not counted.
"""

from __future__ import annotations

import ast
import csv
import filecmp
import json
import math
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_CONFIGS = ("shrink_sweep", "notch_checker")
ABSTRACT_SEEDS = (2024, 11, 3)
ABSTRACT_CASES = 300
# columns below this magnitude are exact zeros up to rounding (tests/test_golden.py)
ZERO_FLOOR = 1e-20

# argv: src dir, config dir, output dir, JSON list of abstract seeds, cases per
# seed, eigensolve log file; the log lies outside the compared output dir
CHILD = """
import json, sys
from pathlib import Path
import eigenshift
from eigenshift import harness, hilbert

src, configs, out = (Path(arg).resolve() for arg in sys.argv[1:4])
if Path(eigenshift.__file__).resolve().parent != src / "eigenshift":
    sys.exit(f"imported eigenshift from {eigenshift.__file__}, not from {src}")
if not hasattr(hilbert, "census"):
    sys.exit(f"{src} has no hilbert.census; compare with that tree's own tools/compare_trees.py")
log = {}
for path in sorted(configs.glob("*.json")):
    try:
        with hilbert.census() as log[path.stem]:
            config = harness.ScenarioConfig.from_json(path)
            harness.write_report(harness.run_scenario(config), out / path.stem)
    except Exception as exc:  # this config's failure; the others still run
        log[path.stem]["error"] = type(exc).__name__ + ": " + " ".join(str(exc).split())
with hilbert.census() as log["verify_fem"]:
    text = json.dumps(harness.verify_fem(), indent=2, sort_keys=True)
(out / "verify_fem.json").write_text(text + "\\n", encoding="utf-8")
Path(sys.argv[6]).write_text(json.dumps(log), encoding="utf-8")
for seed in json.loads(sys.argv[4]):
    summary = harness.verify_abstract(seed, int(sys.argv[5]))
    text = json.dumps(summary, indent=2, sort_keys=True)
    (out / f"verify_abstract_{seed}.json").write_text(text + "\\n", encoding="utf-8")
"""


def collect_configs(root: Path) -> tuple[dict, dict]:
    """The distinct configs by name (configs/*.json, the golden config.json
    files and the bench's FEM workloads), and the bench's thread settings."""
    found = {path.stem: path for path in sorted((root / "configs").glob("*.json"))}
    found.update(
        (f"golden_{path.parent.name}", path)
        for path in sorted((root / "tests" / "golden").glob("*/config.json"))
    )
    configs = {name: json.loads(path.read_text(encoding="utf-8")) for name, path in found.items()}
    workloads = runpy.run_path(str(root / "perfbench" / "workloads.py"))
    configs.update((f"bench_{name}", workloads["FEM_CONFIGS"][name]) for name in BENCH_CONFIGS)
    distinct = {}
    for name, config in configs.items():
        if config not in distinct.values():
            distinct[name] = config
    return distinct, workloads["THREAD_ENV"]


def factor_split(factors: list) -> str:
    """``total = space + solve + count`` of a census's (kind, dimension) factors."""
    kinds = [kind for kind, _ in factors]
    return f"{len(kinds)} = " + " + ".join(str(kinds.count(k)) for k in ("space", "solve", "count"))


def census_line(entry: dict) -> str:
    """One config's census: its requests (Lanczos solves, factor split;
    partial spectra proved by interlacing + counted; |R| through the union;
    Lanczos applications, subspace solves and their columns), ``n/a`` for
    the last two where the tree's census lacks them."""
    applications, solves = entry.get("applications"), entry.get("solves")
    applied = "n/a" if applications is None else sum(applications)
    solved = "n/a" if solves is None else f"{len(solves)} ({sum(c for _, c in solves)} columns)"
    return (
        f"{entry['requests']} ({len(entry['lanczos'])}, {factor_split(entry['factors'])}; "
        f"{len(entry['interlaced'])} + {len(entry['counts'])}; "
        f"through the union: {', '.join(map(str, entry['through_union'])) or 'none'}; "
        f"applications {applied}, solves {solved})"
    )


def _scalar(text: str):
    """A CSV field as the int, float or string it was written from."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def leaves(path: Path) -> dict:
    """{location: (column, value)} of a JSON or CSV output's scalars."""
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        return {
            f"row {i} {column}": (column, _scalar(text))
            for i, row in enumerate(rows, 1)
            for column, text in row.items()
        }
    found = {}

    def walk(node, location, column):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{location}.{key}" if location else key,
                     f"{column}.{key}" if column else key)
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{location}[{i}]", column)
        else:
            found[location] = (column, node)

    walk(json.loads(path.read_text(encoding="utf-8")), "", "")
    return found


def _finite(value) -> bool:
    """A finite number that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def differences(left: Path, right: Path) -> list:
    """The worst relative float drift, then the drift of every float column
    that drifts, worst first, then every non-float difference of two
    outputs, one line each.  Two finite numbers of which one is a float (a
    CSV float can read as an int) drift relative to the largest finite
    magnitude of their column on either side, unless that is below
    ZERO_FLOOR, where the column is reported by its largest magnitude
    alone; a column whose values are all equal is not listed, and anything
    else must be equal, NaN to NaN."""
    if not (left.is_file() and right.is_file()):
        return [f"only in the {'change' if right.is_file() else 'parent'} tree"]
    old, new = leaves(left), leaves(right)
    scale = {}
    for column, value in (*old.values(), *new.values()):
        if _finite(value):
            scale[column] = max(scale.get(column, 0.0), abs(value))
    drifts, zeros, lines = {}, set(), []
    for location in sorted(old.keys() | new.keys()):
        if location not in old or location not in new:
            side = "parent" if location in old else "change"
            lines.append(f"{location}: only in the {side} tree")
            continue
        (column, a), (_, b) = old[location], new[location]
        if _finite(a) and _finite(b) and float in (type(a), type(b)):
            if scale[column] < ZERO_FLOOR:
                if a != b:
                    zeros.add(column)
                continue
            drift = abs(a - b) / scale[column]
            if drift > drifts.get(column, 0.0):
                drifts[column] = drift
        elif not (a == b or a != a and b != b):  # NaN equals NaN here
            lines.append(f"{location}: {json.dumps(a)} -> {json.dumps(b)}")
    lines[:0] = [
        f"exact-zero column, largest |x| {scale[column]:.2e}, in {column}"
        for column in sorted(zeros)
    ]
    ranked = sorted(drifts.items(), key=lambda item: (-item[1], item[0]))
    if ranked:
        lines[:0] = [
            f"worst float drift {ranked[0][1]:.2e} of its column's largest magnitude, "
            f"in {ranked[0][0]}",
            *(f"  drift {drift:.2e} in {column}" for column, drift in ranked),
        ]
    return lines


def src_lines(root: Path) -> int:
    """Newlines in src/eigenshift/*.py, the total of ``wc -l``."""
    paths = (root / "src" / "eigenshift").glob("*.py")
    return sum(path.read_bytes().count(b"\n") for path in paths)


def exports(root: Path) -> set:
    """``module.name`` for each name but dunders in a src/eigenshift/*.py ``__all__``."""
    names = set()
    for path in (root / "src" / "eigenshift").glob("*.py"):
        module = "eigenshift" if path.stem == "__init__" else path.stem
        for node in ast.parse(path.read_bytes()).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                listed = ast.literal_eval(node.value)
                names |= {f"{module}.{name}" for name in listed if not name.startswith("__")}
    return names


def start(
    root: Path, config_dir: Path, out: Path, log: Path, thread_env: dict
) -> subprocess.Popen:
    out.mkdir(parents=True)
    src = root / "src"
    env = {**os.environ, **thread_env, "PYTHONPATH": str(src)}
    args = [src, config_dir, out, json.dumps(ABSTRACT_SEEDS), ABSTRACT_CASES, log]
    return subprocess.Popen([sys.executable, "-c", CHILD, *map(str, args)], env=env, cwd=root)


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: python tools/compare_trees.py PARENT_ROOT CHANGE_ROOT", file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in argv)
    configs, thread_env = collect_configs(change)
    with tempfile.TemporaryDirectory(prefix="compare_trees_") as tmp:
        tmp = Path(tmp)
        config_dir = tmp / "configs"
        config_dir.mkdir()
        for name, config in configs.items():
            (config_dir / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")
        outs = {"parent": tmp / "parent", "change": tmp / "change"}
        logs = {side: tmp / f"{side}_eigensolves.json" for side in outs}
        children = {
            side: start(root, config_dir, outs[side], logs[side], thread_env)
            for side, root in (("parent", parent), ("change", change))
        }
        failed = [side for side, child in children.items() if child.wait() != 0]
        if failed:
            print(f"error: the {' and '.join(failed)} tree failed to run", file=sys.stderr)
            return 2
        solves = {side: json.loads(log.read_text(encoding="utf-8")) for side, log in logs.items()}
        failures = {
            name: [f"the {side} tree raised {log[name]['error']}"
                   for side, log in solves.items() if "error" in log[name]]
            for name in configs
        }
        failures = {name: lines for name, lines in failures.items() if lines}
        # a failed config's files are its failure line, not a comparison
        names = sorted({
            str(path.relative_to(out))
            for out in outs.values()
            for path in out.rglob("*")
            if path.is_file() and path.relative_to(out).parts[0] not in failures
        })
        differ = 0
        for name in names:
            left, right = outs["parent"] / name, outs["change"] / name
            same = left.is_file() and right.is_file() and filecmp.cmp(left, right, shallow=False)
            differ += not same
            print(f"{'same' if same else 'differ':6}  {name}")
            for line in [] if same else differences(left, right):
                print(f"        {line}")
    for name, lines in failures.items():
        print(f"failed  {name}: {'; '.join(lines)}")
    print(f"{len(configs)} configs, {len(ABSTRACT_SEEDS)} abstract seeds, verify_fem: "
          f"{len(names) - differ} files same, {differ} differ, {len(failures)} configs failed")
    print("eigensolves per config: n_lowest of every request (Lanczos solves, factorizations = "
          "space + solve + count; partial spectra proved by interlacing + counted; "
          "|R| of each pair solved through the union; Lanczos operator applications; "
          "subspace solves (their columns)), PARENT -> CHANGE")
    for name in [*configs, "verify_fem"]:
        old, new = (census_line(log[name]) for log in solves.values())
        print(f"  {name}: {old} -> {new}" if old != new else f"  {name}: {old}, unchanged")
    print(f"src lines: {src_lines(parent)} -> {src_lines(change)}")
    old, new = exports(parent), exports(change)
    changed = [f"-{name}" for name in sorted(old - new)]
    changed += [f"+{name}" for name in sorted(new - old)]
    print(f"exports: {' '.join(changed) if changed else 'unchanged'}")
    return 1 if differ or failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
