import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenshift import _oracle_grid, hilbert
from eigenshift.cli import main
from eigenshift.fem2d import MeshError
from eigenshift.harness import (
    CSV_COLUMNS,
    ScenarioConfig,
    run_scenario,
    verify_abstract,
    verify_fem,
    write_csv,
    write_report,
)

import oracles


@pytest.fixture(scope="module")
def tiny_report():
    config = ScenarioConfig(
        scenario="square_shrink", h=1.0 / 16.0, eps=[0.0, 1.0 / 16.0], m=[1, 2]
    )
    return run_scenario(config)


# -- config validation -----------------------------------------------------------


def test_config_rejects_bad_h():
    with pytest.raises(ValueError, match="reciprocal"):
        ScenarioConfig(scenario="square_shrink", h=0.3, eps=[0.3], m=[1])


def test_config_rejects_nonconforming_eps():
    with pytest.raises(ValueError, match="multiple"):
        ScenarioConfig(scenario="square_shrink", h=1.0 / 16.0, eps=[0.1], m=[1])


def test_config_rejects_empty_sweeps():
    with pytest.raises(ValueError, match="eps"):
        ScenarioConfig(scenario="square_shrink", h=1.0 / 16.0, eps=[], m=[1])
    with pytest.raises(ValueError, match="m list"):
        ScenarioConfig(scenario="square_shrink", h=1.0 / 16.0, eps=[0.0], m=[])


def test_config_rejects_unknown_scenario_and_coefficient():
    with pytest.raises(ValueError, match="scenario"):
        ScenarioConfig(scenario="moebius", h=1.0 / 16.0, eps=[0.0], m=[1])
    with pytest.raises(ValueError, match="coefficient"):
        ScenarioConfig(
            scenario="l_shape", h=1.0 / 16.0, eps=[0.0], m=[1],
            coefficient={"kind": "sparkly"},
        )
    with pytest.raises(ValueError, match="nu"):
        ScenarioConfig(
            scenario="l_shape", h=1.0 / 16.0, eps=[0.0], m=[1],
            coefficient={"kind": "checker", "nu": 2.0},
        )
    # a missing field would otherwise surface as a bare KeyError in `run`,
    # and an unknown one would be recorded in report.json but never used
    for coefficient, field_name in [
        ({"kind": "checker"}, "nu"),
        ({"kind": "constant", "nu": 0.5}, "matrix"),
        ({"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]}, "nu"),
        ({"kind": "checker", "nu": 0.5, "cells": 3}, "cells"),
        ({"kind": "identity", "nu": 0.5}, "nu"),
    ]:
        with pytest.raises(ValueError, match=field_name):
            ScenarioConfig(
                scenario="l_shape", h=1.0 / 16.0, eps=[0.0], m=[1],
                coefficient=coefficient,
            )
    # wrongly typed numbers (a bool is no number, and m = 1.5 must not run as 1)
    # and mesh sizes that give no mesh
    valid = {"scenario": "l_shape", "h": 1.0 / 16.0, "eps": [0.0], "m": [1]}
    for change, message in [
        ({"coefficient": {"kind": "checker", "nu": "0.5"}}, "nu must be a real number"),
        ({"coefficient": {"kind": "checker", "nu": True}}, "nu must be a real number"),
        ({"m": [1.5]}, "m must be an integer"),
        ({"m": ["1"]}, "m must be an integer"),
        ({"m": [True]}, "m must be an integer"),
        ({"eps": ["0.125"]}, "eps must be a real number"),
        ({"eps": [True]}, "eps must be a real number"),
        ({"h": "0.0625"}, "h must be a real number"),
        ({"h": True}, "h must be a real number"),
        ({"h": 0.0}, "h must be in"),
        ({"h": -0.125}, "h must be in"),
        ({"h": float("inf")}, "h must be in"),
    ]:
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(**{**valid, **change})


def test_config_roundtrip_and_unknown_fields():
    config = ScenarioConfig(
        scenario="boundary_notch", h=1.0 / 16.0, eps=[1.0 / 16.0], m=[1],
        anchor=(0.5, 1.0), seed=3,
    )
    clone = ScenarioConfig.from_dict(config.to_dict())
    assert clone == config
    with pytest.raises(ValueError, match="unknown config fields"):
        ScenarioConfig.from_dict({**config.to_dict(), "surprise": 1})


@st.composite
def scenario_configs(draw):
    n = draw(st.integers(2, 64))
    h = 1.0 / n
    coefficient = draw(
        st.sampled_from(
            [
                {"kind": "identity"},
                {"kind": "checker", "nu": 0.5},
                {"kind": "constant", "matrix": [[1.0, 0.1], [0.1, 0.8]], "nu": 0.7},
            ]
        )
    )
    scenarios = ["square_shrink", "square_expand", "boundary_notch", "l_shape"]
    return ScenarioConfig(
        scenario=draw(st.sampled_from(scenarios)),
        h=h,
        eps=[k * h for k in draw(st.lists(st.integers(0, n), min_size=1, max_size=4))],
        m=draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)),
        coefficient=coefficient,
        q=draw(st.floats(1.5, 4.0)),
        group_tol=draw(st.none() | st.floats(1e-9, 1e-3)),
        seed=draw(st.integers(0, 99)),
        anchor=draw(st.sampled_from([(0.5, 1.0), (0.0, 0.25)])),
        n_lowest=draw(st.integers(1, 20)),
    )


@settings(derandomize=True, max_examples=10, deadline=None)
@given(config=scenario_configs(), frac=st.floats(0.01, 0.99))
def test_config_roundtrip_property(config, frac):
    assert ScenarioConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
    bad = {**config.to_dict(), "eps": [config.eps[0] + frac * config.h]}
    with pytest.raises(MeshError, match="multiple"):
        ScenarioConfig.from_dict(bad)


# -- run and outputs ---------------------------------------------------------------


def test_run_row_count_contract(tiny_report):
    # J1 = 1 and J2 = 2: three rows per eps
    rows = tiny_report.csv_rows()
    assert len(rows) == 2 * 3
    per_eps = {}
    for row in rows:
        per_eps.setdefault(row[2], []).append(row)
    assert all(len(v) == 3 for v in per_eps.values())


def test_zero_eps_rows_are_exact(tiny_report):
    for cell in tiny_report.cells:
        if cell.eps == 0.0:
            assert cell.sigma == 0.0 and cell.sigma_star == 0.0
            assert cell.rho == 0.0 and cell.rho0 == 0.0
            for row in cell.rows:
                assert row.remainder == 0.0 and row.tau == 0.0


def test_csv_schema_and_determinism(tiny_report, tmp_path):
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_csv(tiny_report, path_a)
    rerun = run_scenario(tiny_report.config)
    write_csv(rerun, path_b)
    content_a = path_a.read_bytes()
    assert content_a == path_b.read_bytes()
    header = content_a.decode().splitlines()[0]
    assert header.split(",") == CSV_COLUMNS


def test_report_json_written(tiny_report, tmp_path):
    path = write_report(tiny_report, tmp_path / "out")
    data = json.loads(path.read_text())
    assert data["passed"] is True
    assert data["config"]["scenario"] == "square_shrink"
    assert len(data["cells"]) == 4
    assert (tmp_path / "out" / "rows.csv").exists()


def test_run_surfaces_cell_errors(tmp_path):
    # an eps that empties the domain must produce a coordinate-tagged failure,
    # and the report must still serialize to strict JSON
    config = ScenarioConfig(
        scenario="square_shrink", h=1.0 / 16.0, eps=[8.0 / 16.0], m=[1]
    )
    report = run_scenario(config)
    assert not report.passed
    assert any("eps=0.5" in f and "square_shrink" in f for f in report.failures)
    path = write_report(report, tmp_path / "err")
    data = json.loads(path.read_text())
    assert data["cells"][0]["error"] is not None
    assert data["cells"][0]["lambda"] is None


def test_nested_pair_reuses_sigma_as_sigma_star(monkeypatch):
    def solved_again(h1, h2):
        raise AssertionError("sigma* solved for a nested pair")

    monkeypatch.setattr(hilbert, "sigma_star", solved_again)
    config = ScenarioConfig(scenario="square_shrink", h=1.0 / 8.0, eps=[1.0 / 8.0], m=[1])
    cell = run_scenario(config).cells[0]
    assert cell.error is None
    assert cell.sigma_star == cell.sigma > 0.0


def test_programming_errors_propagate(monkeypatch):
    # only numerical and geometric failures become error cells
    def broken(*args):
        raise TypeError("broken layer")

    monkeypatch.setattr(hilbert, "eigenspace_images", broken)
    config = ScenarioConfig(scenario="square_shrink", h=1.0 / 8.0, eps=[1.0 / 8.0], m=[1])
    with pytest.raises(TypeError, match="broken layer"):
        run_scenario(config)


def test_notch_checker_run_is_dense_free(dense_free):
    path = Path(__file__).parent.parent / "configs" / "notch_checker.json"
    h = 1.0 / 12.0
    data = {**json.loads(path.read_text()), "h": h, "eps": [2 * h, 4 * h]}
    report = run_scenario(ScenarioConfig.from_dict(data))
    assert report.passed, report.failures


def test_shrink_at_h128_is_dense_free(dense_free):
    # at h=1/128 one dense Gram alone would take 2.1 GB
    h = 1.0 / 128.0
    report = run_scenario(ScenarioConfig(scenario="square_shrink", h=h, eps=[2 * h], m=[1]))
    assert report.passed, report.failures
    assert report.cells[0].tracked and report.cells[0].admitted


def test_report_json_deterministic(tiny_report, tmp_path):
    a = write_report(tiny_report, tmp_path / "a").read_bytes()
    b = write_report(run_scenario(tiny_report.config), tmp_path / "b").read_bytes()
    assert a == b


def test_group_tol_scales_with_domain():
    config = ScenarioConfig(
        scenario="square_expand", h=1.0 / 16.0, eps=[0.0], m=[1], base=0.25
    )
    tol_ref = config.group_tol_for(config.reference_domain())
    tol_pert = config.group_tol_for(config.perturbed_domain(0.25))
    assert tol_ref == pytest.approx(4.0 * tol_pert)


# -- verification suites -------------------------------------------------------------


def test_verify_abstract_rejects_zero_cases():
    with pytest.raises(ValueError, match="n_cases"):
        verify_abstract(seed=0, n_cases=0)


def test_verify_abstract_small_run_passes_and_is_deterministic():
    first = verify_abstract(seed=11, n_cases=40)
    second = verify_abstract(seed=11, n_cases=40)
    assert first["passed"]
    margins_a = {k: v["worst_margin"] for k, v in first.items() if isinstance(v, dict)}
    margins_b = {k: v["worst_margin"] for k, v in second.items() if isinstance(v, dict)}
    assert margins_a == margins_b
    assert first["fitted_projected_pair_constant"] >= 0.0


def test_verify_abstract_records_distance_axiom_counterexamples(monkeypatch):
    # an asymmetric distance must be reported as a violation with its case,
    # not crash the suite
    true_sigma = hilbert.sigma_distance

    def skewed(h1, h2):
        value = true_sigma(h1, h2)
        return 2.0 * value if h1.basis.sum() > h2.basis.sum() else value

    monkeypatch.setattr(hilbert, "sigma_distance", skewed)
    summary = verify_abstract(seed=3, n_cases=1)
    assert summary["passed"] is False
    (case,) = summary["distance_symmetry"]["violations"]
    assert case["case"] == 0 and len(case["bases"]) == 3


def test_sphere_grid_matches_oracle_loop():
    # the suite's grid is built in one vectorized pass; the test oracle keeps
    # the per-point loop, and both multiply in the same order
    for k in range(1, 6):
        assert np.array_equal(_oracle_grid._sphere_grid(k, 6), oracles._sphere_grid(k, 6))


def test_verify_fem_suite():
    summary = verify_fem()
    assert summary["passed"], summary


# -- CLI -------------------------------------------------------------------------


def write_config(tmp_path, **overrides):
    config = {
        "scenario": "square_shrink",
        "h": 1.0 / 16.0,
        "eps": [0.0, 1.0 / 16.0],
        "m": [1],
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_cli_run(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status: ok" in out
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "rows.csv").exists()


def test_cli_sweep(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["sweep", "--config", str(cfg), "--csv", str(tmp_path / "rows.csv")])
    assert rc == 0
    lines = (tmp_path / "rows.csv").read_text().splitlines()
    assert lines[0].split(",") == CSV_COLUMNS
    assert len(lines) == 1 + 2


def test_cli_bad_config_is_an_error(tmp_path, capsys):
    cfg = write_config(tmp_path, h=0.3)
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_failing_run_exits_nonzero(tmp_path, capsys):
    cfg = write_config(tmp_path, eps=[0.5])
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_verify_abstract(capsys):
    rc = main(["verify", "--suite", "abstract", "--seed", "5", "--cases", "25"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "worst margin" in out
    assert "passed: True" in out
