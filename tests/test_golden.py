"""Regression of report.json and rows.csv against stored goldens.

Each golden directory under ``tests/golden/`` holds the two files written by
``eigenshift run`` for one config.  The sweeps reuse the session fixtures of
``conftest.py``; the config each fixture runs must equal its config file, so
a golden can be regenerated with

    eigenshift run --config <config file> --out tests/golden/<name>

A golden is only ever regenerated for a change that is meant to alter the
numbers, never to make this test pass after a refactor.

Tolerance: every key, string, bool, int and null (``direction``, ``error``,
``failures``, ``passed``, ``m``, ``k``, ``multiplicity`` ...) must match
exactly.  Every float must match to 1e-9 times the largest magnitude of its
column in the golden: a column is one report field across all cells (list
positions merged), or one CSV column (an all-zero column must stay exactly
zero).  A column whose golden magnitudes are all below 1e-20 but not all
zero holds a quantity that is zero in exact arithmetic (``psi_norm2_range``
for nested shrinks and notches, ``t_norm2_range`` for the expand: squared
norms of an eigen-residual, 1e-30 to 1e-26), so no relative comparison
applies; its fresh values must stay below 1e-20 instead.  The goldens were
written by dense factorizations and dense pencils; nodal subspaces now solve
through sparse LU factors, and one Lanczos routine gives them sigma and
sigma* and, as the top eigenpairs of (M_II, A_II), their lowest eigenpairs
in place of the dense partial eigensolve.  That changes results in the last
bits (about 1e-14 relative for the eigenvalues), so byte identity no longer
holds across these backend swaps.  Run-to-run byte identity is still checked by
``test_harness.py::test_report_json_deterministic``.
"""

import csv
import json
import math
import re
from collections import defaultdict
from pathlib import Path

import pytest

from eigenshift.harness import ScenarioConfig, run_scenario, write_report

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parent.parent / "configs"

REL_TOL = 1e-9
# columns below this magnitude are exact zeros up to rounding
ZERO_FLOOR = 1e-20

CONFIG_FILES = {
    "square_shrink": CONFIGS / "square_shrink_sweep.json",
    "square_expand": GOLDEN / "square_expand" / "config.json",
    "boundary_notch": GOLDEN / "boundary_notch" / "config.json",
    "l_shape": GOLDEN / "l_shape" / "config.json",
    "th1_check": CONFIGS / "th1_check.json",
    "notch_checker": CONFIGS / "notch_checker.json",
}

# CSV columns compared as text; every other column is a float
CSV_EXACT = {"scenario", "m", "k"}


@pytest.fixture(scope="module")
def notch_checker_report():
    return run_scenario(ScenarioConfig.from_json(CONFIG_FILES["notch_checker"]))


def _report(request, name):
    if name == "th1_check":
        return request.getfixturevalue("th1_report")
    if name == "notch_checker":
        return request.getfixturevalue("notch_checker_report")
    return request.getfixturevalue("sweep_reports")[name]


def _leaves(value, path=""):
    """(path, leaf) pairs of a JSON value, in document order."""
    if isinstance(value, dict):
        yield path, ("dict", sorted(value))
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}.{key}")
    elif isinstance(value, list):
        yield path, ("list", len(value))
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _column(path):
    """The column of a leaf: its path with list positions merged."""
    return re.sub(r"\[\d+\]", "[]", path)


def _compare(want_pairs, got_pairs, where):
    """Exact match for non-floats, REL_TOL of the column max for floats,
    and below ZERO_FLOOR for columns that are zero up to rounding."""
    assert [p for p, _ in got_pairs] == [p for p, _ in want_pairs], f"{where}: layout differs"
    scale = defaultdict(float)
    for path, value in want_pairs:
        if type(value) is float and math.isfinite(value):
            scale[_column(path)] = max(scale[_column(path)], abs(value))
    for (path, want), (_, got) in zip(want_pairs, got_pairs):
        if type(want) is float and math.isfinite(want):
            assert type(got) is float, f"{where}{path}: {got!r} is not a float"
            column_max = scale[_column(path)]
            if 0.0 < column_max < ZERO_FLOOR:
                assert abs(got) < ZERO_FLOOR, f"{where}{path}: {got!r} is not zero"
                continue
            allowed = REL_TOL * column_max
            assert abs(got - want) <= allowed, (
                f"{where}{path}: {got!r} vs golden {want!r} (allowed {allowed:.3e})"
            )
        else:
            assert type(got) is type(want) and got == want, (
                f"{where}{path}: {got!r} vs golden {want!r}"
            )


def _csv_pairs(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    pairs = [("header", tuple(header))]
    for r, row in enumerate(body):
        assert len(row) == len(header), f"{path} row {r} has {len(row)} fields"
        for name, text in zip(header, row):
            exact = name in CSV_EXACT or not math.isfinite(float(text))
            pairs.append((f"[{r}].{name}", text if exact else float(text)))
    return pairs


@pytest.mark.parametrize("name", sorted(CONFIG_FILES))
def test_report_matches_golden(request, tmp_path, name):
    report = _report(request, name)
    assert report.config.to_dict() == ScenarioConfig.from_json(CONFIG_FILES[name]).to_dict()
    write_report(report, tmp_path)
    golden = GOLDEN / name
    with open(golden / "report.json", encoding="utf-8") as handle:
        want = json.load(handle)
    with open(tmp_path / "report.json", encoding="utf-8") as handle:
        got = json.load(handle)
    _compare(list(_leaves(want)), list(_leaves(got)), f"{name}/report.json")
    _compare(
        _csv_pairs(golden / "rows.csv"), _csv_pairs(tmp_path / "rows.csv"), f"{name}/rows.csv"
    )
