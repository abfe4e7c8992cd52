"""Byte-for-byte regression of report.json and rows.csv against stored goldens.

Each golden directory under ``tests/golden/`` holds the two files written by
``eigenshift run`` for one config.  The sweeps reuse the session fixtures of
``conftest.py``; the config each fixture runs must equal its config file, so
a golden can be regenerated with

    eigenshift run --config <config file> --out tests/golden/<name>

A golden is only ever regenerated for a change that is meant to alter the
numbers, never to make this test pass after a refactor.
"""

from pathlib import Path

import pytest

from eigenshift.harness import ScenarioConfig, run_scenario, write_report

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parent.parent / "configs"

CONFIG_FILES = {
    "square_shrink": CONFIGS / "square_shrink_sweep.json",
    "square_expand": GOLDEN / "square_expand" / "config.json",
    "boundary_notch": GOLDEN / "boundary_notch" / "config.json",
    "l_shape": GOLDEN / "l_shape" / "config.json",
    "th1_check": CONFIGS / "th1_check.json",
    "notch_checker": CONFIGS / "notch_checker.json",
}


@pytest.fixture(scope="module")
def notch_checker_report():
    return run_scenario(ScenarioConfig.from_json(CONFIG_FILES["notch_checker"]))


def _report(request, name):
    if name == "th1_check":
        return request.getfixturevalue("th1_report")
    if name == "notch_checker":
        return request.getfixturevalue("notch_checker_report")
    return request.getfixturevalue("sweep_reports")[name]


@pytest.mark.parametrize("name", sorted(CONFIG_FILES))
def test_report_matches_golden(request, tmp_path, name):
    report = _report(request, name)
    assert report.config.to_dict() == ScenarioConfig.from_json(CONFIG_FILES[name]).to_dict()
    write_report(report, tmp_path)
    for filename in ("report.json", "rows.csv"):
        got = (tmp_path / filename).read_bytes()
        assert got == (GOLDEN / name / filename).read_bytes(), f"{name}/{filename} differs"
