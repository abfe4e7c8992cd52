import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenshift import _oracle_grid, cli, eigsolve, fem2d, harness, hilbert, perturbation
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
    # wrongly typed numbers (a bool is no number, and m = 1.5 must not run as 1),
    # mesh sizes that give no mesh, and malformed JSON; a row that is not a
    # dict replaces the whole config
    valid = {"scenario": "l_shape", "h": 1.0 / 16.0, "eps": [0.0], "m": [1]}
    for change, message in [
        (None, "config must be an object"),
        ([], "config must be an object"),
        ([{}], "config must be an object"),
        ({"eps": 0.125}, "eps must be a list"),
        ({"m": 1}, "m must be a list"),
        ({"coefficient": "identity"}, "coefficient must be an object"),
        ({"coefficient": None}, "coefficient must be an object"),
        ({"coefficient": {"kind": ["identity"]}}, "unknown coefficient kind"),
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
        ({"h": float("inf")}, "h must be finite"),
        ({"eps": [-0.0625]}, "eps must be nonnegative"),
        # each of these once passed validation and could only fail in the run:
        # h=1 gives a mesh of one cell, an off-boundary anchor an error cell
        # per eps, and a repeat solves its eps twice into rows of one key; an
        # eps whose ratio to h overflows raised an OverflowError
        ({"h": 1.0}, "h must be in"),
        ({"h": 1.0 / 64.0, "eps": [1e307]}, "eps=1e\\+307 is not a multiple"),
        ({"scenario": "boundary_notch", "anchor": (0.5, 0.5)}, "anchor"),
        # a square_expand base inset off the mesh raised MeshError in the run
        (
            {"scenario": "square_expand", "h": 1.0 / 6.0, "eps": [1.0 / 6.0]},
            "base=0.25 is not a multiple",
        ),
        # a base past 1/2 - h leaves the reference square no interior vertex;
        # it loaded, and the run raised "has an empty interior"
        (
            {"scenario": "square_expand", "h": 0.2, "eps": [0.2], "base": 0.4},
            "base=0.4 leaves the reference square without an interior vertex",
        ),
        ({"eps": [0.0625, 0.0625]}, "eps must not repeat"),
        ({"m": [1, 2, 1]}, "m must not repeat"),
        ({"n_lowest": 2.5}, "n_lowest must be an integer"),
        ({"n_lowest": True}, "n_lowest must be an integer"),
        ({"n_lowest": 0}, "n_lowest must be at least 1"),
        ({"group_tol": "1e-6"}, "group_tol must be a real number"),
        ({"group_tol": 0.0}, "group_tol must be positive"),
        ({"q": "2"}, "q must be a real number"),
        ({"q": 1.0}, "q must be greater than 1"),
        ({"base": "0.25"}, "base must be a real number"),
        ({"anchor": ("a", 1.0)}, "anchor must be a real number"),
        ({"anchor": (0.5,)}, "anchor must be two real numbers"),
        ({"anchor": 0.5}, "anchor must be two real numbers"),
        ({"seed": float("nan")}, "seed must be an integer"),
        ({"seed": "0"}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"seed": 2.5}, "seed must be an integer"),
        (
            {"coefficient": {"kind": "constant", "matrix": "x", "nu": 0.5}},
            "coefficient matrix must be 2x2",
        ),
        (
            {"coefficient": {"kind": "constant", "matrix": [[1.0, "0"], [0.0, 1.0]], "nu": 0.5}},
            "coefficient matrix entry must be a real number",
        ),
        (
            {"coefficient": {"kind": "constant", "matrix": [[1.0, 0.5], [0.0, 1.0]], "nu": 0.5}},
            "symmetric",
        ),
    ]:
        data = {**valid, **change} if isinstance(change, dict) else change
        with pytest.raises(ValueError, match=message):
            ScenarioConfig.from_dict(data)
    with pytest.raises(ValueError, match=r"missing config fields: \['h'\]"):
        ScenarioConfig.from_dict({key: valid[key] for key in ("scenario", "eps", "m")})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=str)
@pytest.mark.parametrize(
    "field_name", ["eps", "base", "anchor", "q", "group_tol", "nu", "matrix"]
)
def test_config_rejects_non_finite_reals(field_name, bad):
    # eps=inf once raised OverflowError and eps=nan "cannot convert float NaN
    # to integer"; a NaN base, anchor or matrix entry, or an infinite q or
    # group_tol, constructed and failed later or not at all
    changes = {
        "eps": {"eps": [bad]},
        "base": {"base": bad},
        "anchor": {"anchor": (bad, 1.0)},
        "q": {"q": bad},
        "group_tol": {"group_tol": bad},
        "nu": {"coefficient": {"kind": "checker", "nu": bad}},
        "matrix": {
            "coefficient": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, bad]], "nu": 0.5}
        },
    }
    valid = {"scenario": "l_shape", "h": 1.0 / 16.0, "eps": [0.0], "m": [1]}
    with pytest.raises(ValueError, match=f"{field_name}.* must be finite"):
        ScenarioConfig(**{**valid, **changes[field_name]})


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
        eps=[
            k * h for k in draw(st.lists(st.integers(0, n), min_size=1, max_size=4, unique=True))
        ],
        m=draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True)),
        coefficient=coefficient,
        q=draw(st.floats(1.5, 4.0)),
        group_tol=draw(st.none() | st.floats(1e-9, 1e-3)),
        seed=draw(st.integers(0, 99)),
        # square_expand's base must conform to h and be at most 1/2 - h
        base=draw(st.integers(0, n // 2 - 1)) * h,
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
    # the run asks each eps's pair for sigma and sigma*; a nested pair's sigma
    # is its sigma* pencil, so one pencil is solved per eps
    asked, solved = [], []
    true_star, true_max = hilbert.sigma_star, hilbert._pencil_max

    def spy_star(pair):
        asked.append(pair.direction)
        return true_star(pair)

    def spy_max(union, *rest):
        solved.append(union.dim)
        return true_max(union, *rest)

    monkeypatch.setattr(hilbert, "sigma_star", spy_star)
    monkeypatch.setattr(hilbert, "_pencil_max", spy_max)
    h = 1.0 / 8.0
    report = run_scenario(ScenarioConfig(scenario="square_shrink", h=h, eps=[h, 2 * h], m=[1]))
    assert report.passed, report.failures
    assert asked == ["shrink", "shrink"]
    assert len(solved) == 2
    assert all(cell.sigma_star == cell.sigma > 0.0 for cell in report.cells)


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


# one small config per scenario family: shrink and notch nest H2 in H1, the
# expand nests H1 in H2, and the l_shape cuts a corner
_FAMILY_CONFIGS = {
    "square_shrink": {"h": 1.0 / 12.0, "eps": [1.0 / 12.0, 2.0 / 12.0]},
    "square_expand": {"h": 1.0 / 16.0, "eps": [1.0 / 16.0, 2.0 / 16.0]},
    "boundary_notch": {"h": 1.0 / 12.0, "eps": [1.0 / 12.0, 2.0 / 12.0]},
    "l_shape": {"h": 1.0 / 12.0, "eps": [2.0 / 12.0, 4.0 / 12.0]},
}


def _family_config(scenario):
    return ScenarioConfig(scenario=scenario, m=[1, 2], **_FAMILY_CONFIGS[scenario])


@pytest.mark.parametrize("scenario", sorted(_FAMILY_CONFIGS))
def test_runs_need_no_explicit_basis(monkeypatch, scenario):
    # a run builds no subspace but its carved domains: the proximities
    # project onto span(S2 X) through the Gram of S2 X, with no subspace
    # spanned by that basis, and a nested pair's intersection is an operand
    built, carved = [], []
    init, carve = hilbert.Subspace.__init__, fem2d.carve_subspace

    def spy_init(self, *args):
        built.append(self)
        init(self, *args)

    def spy_carve(*args):
        carved.append(carve(*args))
        return carved[-1]

    monkeypatch.setattr(hilbert.Subspace, "__init__", spy_init)
    monkeypatch.setattr(fem2d, "carve_subspace", spy_carve)
    report = run_scenario(_family_config(scenario))
    assert report.passed, report.failures
    assert built == carved and len(carved) == 1 + len(report.config.eps)


@pytest.mark.parametrize("scenario", sorted(_FAMILY_CONFIGS))
def test_each_cell_makes_two_nodal_solves(monkeypatch, scenario):
    # S2 X and the correctors; T0 X is read from the pair, and the
    # proximities project through the Gram of S2 X
    solves, per_cell = [], []
    solve, cell_for = hilbert.Subspace._solve, harness._cell_for

    def spy_solve(self, rhs):
        solves.append(self.dim)
        return solve(self, rhs)

    def spy_cell(*args):
        solves.clear()
        cell = cell_for(*args)
        per_cell.append(len(solves))
        return cell

    monkeypatch.setattr(hilbert.Subspace, "_solve", spy_solve)
    monkeypatch.setattr(harness, "_cell_for", spy_cell)
    report = run_scenario(_family_config(scenario))
    assert report.passed, report.failures
    assert per_cell == [2] * len(report.cells)


def test_traced_run_nests_rho_in_the_correction_with_one_corrector_per_cell():
    # the spans and the per-cell count that the benchmark's traced run reads,
    # with its tracer loaded from its file
    path = Path(__file__).parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    h = 1.0 / 8.0
    config = ScenarioConfig(scenario="square_shrink", h=h, eps=[h, 2 * h], m=[1, 2])
    probe = tracer.Tracer("tier1")
    probe.install()
    try:
        report = harness.run_scenario(config)
    finally:
        probe.uninstall()
    assert report.passed, report.failures
    spans = probe.spans
    rho = [span for span in spans if span[2] == "hilbert.compute_rho"]
    assert rho and all(spans[span[1]][2] == "perturbation.assemble_correction" for span in rho)
    metrics = tracer.layer_metrics(spans, len(report.cells))
    assert metrics["hilbert.corrector_block.per_cell"] == 1.0


def test_reference_that_resolves_too_few_groups_asks_for_more():
    # n_lowest = 1 asks for 4 pairs: group 1, the double group 2 and a
    # trailing group that may be incomplete, so the window of m = 3 is unknown
    config = ScenarioConfig(
        scenario="square_shrink", h=1.0 / 8.0, eps=[1.0 / 8.0], m=[3], n_lowest=1
    )
    with pytest.raises(ValueError, match="resolves 2 groups, but m up to 3 .*increase n_lowest"):
        run_scenario(config)


# -- gated assertions --------------------------------------------------------------

_GATE_CONFIG = ScenarioConfig(scenario="square_shrink", h=1.0 / 8.0, eps=[1.0 / 8.0], m=[1])
_SPREAD = 1e-3
_FLOOR = 4.0 * _SPREAD + 1e-12  # the gate's allowance for tau


def _gate_cell(**changes):
    """A finite, admitted shrink cell at lambda = 2 with no drift, which
    passes every gate."""
    fields = dict(
        eps=1.0 / 8.0, m=1, lam_m=2.0, multiplicity=1, sigma=0.1, sigma_star=0.1,
        rho=0.01, rho0=0.01, gate_value=0.1, admitted=True, tracked=True,
        direction="shrink", mu_inv=[0.5], tau=[0.0], group_spread=_SPREAD,
    )
    return perturbation.ScenarioCell(**{**fields, **changes})


# each gate's failure message, and the change to the passing cell that trips it
# alone; a tau one float past the floor fails
_GATE_BREAKS = {
    "non-finite reported quantity": {"rho": np.nan},
    "zero perturbation produced 1.000e-01": {"eps": 0.0},
    "admitted cell failed the window count": {"tracked": False},
    "positive shift predicted for a shrinking domain": {"tau": [np.nextafter(_FLOOR, 1.0)]},
    "eigenvalue decreased on a shrinking domain": {"mu_inv": [0.5 + 2 * _FLOOR]},
    "negative shift predicted for a growing domain": {
        "direction": "expand", "tau": [np.nextafter(-_FLOOR, -1.0)]
    },
    "eigenvalue increased on a growing domain": {
        "direction": "expand", "mu_inv": [0.5 - 2 * _FLOOR]
    },
}


@pytest.mark.parametrize("message", sorted(_GATE_BREAKS))
def test_each_gated_assertion_fails_its_cell(message):
    cell = _gate_cell(**_GATE_BREAKS[message])
    assert harness._gated_assertions(_GATE_CONFIG, [cell]) == [
        f"(square_shrink, eps={cell.eps}, m=1): {message}"
    ]


@pytest.mark.parametrize("direction, sign", [("shrink", 1.0), ("expand", -1.0)])
def test_drift_on_the_gate_floor_passes(direction, sign):
    # tau exactly on the floor, and mu^-1 drifted by the floor, which lies
    # inside the monotonicity allowance of floor + 1e-9 lambda^-1
    cell = _gate_cell(direction=direction, tau=[sign * _FLOOR], mu_inv=[0.5 + sign * _FLOOR])
    assert harness._gated_assertions(_GATE_CONFIG, [cell]) == []
    # a drift the other way is what the direction predicts, at any size
    cell = _gate_cell(direction=direction, tau=[-sign], mu_inv=[0.5 - sign * 0.1])
    assert harness._gated_assertions(_GATE_CONFIG, [cell]) == []


def test_error_cells_skip_the_gates():
    # an error cell's NaN quantities would fail the finiteness gate, but its
    # failure is its error, which the run records once
    cell = harness._error_cell(_GATE_CONFIG, 1.0 / 8.0, 1, "no pencil", np.nan, np.nan)
    assert harness._gated_assertions(_GATE_CONFIG, [cell]) == []


def test_too_few_perturbed_eigenvalues_is_an_error_cell():
    # eps = 14h leaves one dof, so the perturbed spectrum has one eigenvalue
    # for the double group m=2
    h = 1.0 / 30.0
    report = run_scenario(ScenarioConfig(scenario="square_shrink", h=h, eps=[14 * h], m=[2]))
    (cell,) = report.cells
    assert not report.passed
    assert cell.error is not None and "fewer than the multiplicity 2" in cell.error


# -- eigensolve requests ---------------------------------------------------------


def _spy_eigensolves(monkeypatch):
    """(n_lowest, decomposition) of every solve_operator_eigs call."""
    calls = []
    solve = hilbert.solve_operator_eigs

    def spy(sub, group_tol, n_lowest=None):
        calls.append((n_lowest, solve(sub, group_tol, n_lowest=n_lowest)))
        return calls[-1][1]

    monkeypatch.setattr(hilbert, "solve_operator_eigs", spy)
    return calls


def test_reference_request_starts_at_max_m_plus_two(monkeypatch):
    calls = _spy_eigensolves(monkeypatch)
    h = 1.0 / 16.0
    run_scenario(ScenarioConfig(scenario="square_shrink", h=h, eps=[h], m=[1, 2]))
    assert calls[0][0] == 4
    # the perturbed solve starts where the reference ended
    assert calls[1][0] == calls[0][1].n_computed


def test_short_perturbed_request_doubles_until_the_window_is_covered(monkeypatch):
    calls = _spy_eigensolves(monkeypatch)
    h = 1.0 / 16.0
    run_scenario(
        ScenarioConfig(scenario="square_expand", h=h, eps=[2 * h], m=[2], n_lowest=40)
    )
    assert [n for n, _ in calls] == [4, 6, 12]
    (_, eigs1), (_, short), (_, grown) = calls
    lo, _ = perturbation.spectral_window(eigs1, 2)
    j_m = eigs1.group(2)[2]

    def past_window(eigs):
        return np.count_nonzero(1.0 / eigs.flat_values() <= lo)

    assert past_window(short) < j_m <= past_window(grown)


def test_small_perturbed_subspace_is_solved_once_and_completely(monkeypatch):
    # eps=2h leaves the h=1/8 square 9 dofs: a request for 6 is past what
    # Lanczos serves, so the dense solve returns all 9 pairs at once
    calls = _spy_eigensolves(monkeypatch)
    h = 1.0 / 8.0
    run_scenario(ScenarioConfig(scenario="square_shrink", h=h, eps=[2 * h], m=[1, 2]))
    assert [n for n, _ in calls] == [4, 6]
    eigs2 = calls[1][1]
    assert eigs2.complete and eigs2.n_computed == 9


def test_next_eps_starts_from_the_last_request_that_sufficed(monkeypatch):
    # the expand's eps=2h needs 12 pairs to cover the m=2 window; eps=3h, a
    # larger domain, starts there instead of redoing the short request of 6
    calls = _spy_eigensolves(monkeypatch)
    h = 1.0 / 16.0
    report = run_scenario(
        ScenarioConfig(scenario="square_expand", h=h, eps=[2 * h, 3 * h], m=[2])
    )
    assert all(cell.error is None for cell in report.cells)
    assert [n for n, _ in calls] == [4, 6, 12, 12]


def test_requests_never_exceed_n_lowest(monkeypatch):
    calls = _spy_eigensolves(monkeypatch)
    h = 1.0 / 8.0
    run_scenario(ScenarioConfig(scenario="square_shrink", h=h, eps=[h], m=[2], n_lowest=3))
    assert calls and all(n is not None and n <= 3 for n, _ in calls)


def test_result_does_not_depend_on_an_unbinding_cap(monkeypatch):
    calls = _spy_eigensolves(monkeypatch)
    path = Path(__file__).parent.parent / "configs" / "notch_checker.json"
    h = 1.0 / 12.0
    data = {**json.loads(path.read_text()), "h": h, "eps": [2 * h, 4 * h]}
    runs = []
    for cap in (12, 40):
        calls.clear()
        report = run_scenario(ScenarioConfig.from_dict({**data, "n_lowest": cap}))
        runs.append(([n for n, _ in calls], {**report.to_dict(), "config": None}))
    assert runs[0][0] == runs[1][0]
    assert max(runs[0][0]) < 12
    assert json.dumps(runs[0][1], sort_keys=True) == json.dumps(runs[1][1], sort_keys=True)


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


def test_configured_group_tol_reaches_every_eigensolve(monkeypatch):
    config = ScenarioConfig(
        scenario="square_shrink", h=1.0 / 16.0, eps=[1.0 / 16.0, 2.0 / 16.0], m=[1],
        group_tol=3e-4,
    )
    defaults = ScenarioConfig.from_dict({**config.to_dict(), "group_tol": None})
    assert defaults.group_tol_for(defaults.reference_domain()) != 3e-4
    seen = []
    true_solve = hilbert.solve_operator_eigs

    def spy(sub, group_tol, **kwargs):
        seen.append(group_tol)
        return true_solve(sub, group_tol, **kwargs)

    monkeypatch.setattr(hilbert, "solve_operator_eigs", spy)
    run_scenario(config)
    assert len(seen) >= 1 + len(config.eps)
    assert set(seen) == {3e-4}


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


def test_each_top_pair_is_certified_once(monkeypatch):
    # _top_eigs certifies nothing; sigma, sigma* and the eigensolves each
    # certify the pairs they read once, dense or Lanczos
    counts = {"top": 0, "certify": 0}
    true_top, true_certify = hilbert._top_eigs, eigsolve._certify

    def top(*args, **kwargs):
        counts["top"] += 1
        return true_top(*args, **kwargs)

    def certify(*args, **kwargs):
        counts["certify"] += 1
        return true_certify(*args, **kwargs)

    monkeypatch.setattr(hilbert, "_top_eigs", top)
    for module in (eigsolve, hilbert):
        monkeypatch.setattr(module, "_certify", certify)
    assert verify_abstract(seed=2024, n_cases=50)["passed"]
    assert counts["top"] > 0
    assert counts["certify"] == counts["top"]


def test_verify_abstract_images_x1_once_per_case(monkeypatch):
    # rho and the projected-pair fit read one EigenspaceImages of X_1 per
    # case, and nothing else projects a block: the asserted complement
    # properties project the single vector phi_1 on their own
    depth, images, blocks = [0], [], []
    true_images, true_project = hilbert.eigenspace_images, hilbert.Subspace.project_block

    def spy_images(*args):
        images.append(args[0])
        depth[0] += 1
        try:
            return true_images(*args)
        finally:
            depth[0] -= 1

    def spy_project(self, x):
        if not depth[0] and np.ndim(x) == 2:
            blocks.append(np.shape(x))
        return true_project(self, x)

    monkeypatch.setattr(hilbert, "eigenspace_images", spy_images)
    monkeypatch.setattr(hilbert.Subspace, "project_block", spy_project)
    assert verify_abstract(seed=2024, n_cases=20)["passed"]
    assert len(images) == 20
    assert blocks == []


def test_verify_abstract_skips_fit_on_rank_deficient_projection(monkeypatch):
    # H2 is energy-orthogonal to the first eigenvector of H1, so S2 X_1 = 0
    # while the pair is still localized: the projected-pair fit has no
    # projector and is skipped instead of raising out of the suite
    space = hilbert.EnergySpace(np.eye(4), np.diag([4.0, 1.0, 3.0, 2.0]))
    subs = [hilbert.Subspace.nodal(space, cols) for cols in ([0, 1], [1, 2], [3])]
    monkeypatch.setattr(harness, "_random_case", lambda rng: (space, subs))
    summary = verify_abstract(seed=0, n_cases=1)
    assert summary["fitted_projected_pair_constant"] == 0.0
    assert summary["passed"]


def test_verify_abstract_records_distance_axiom_counterexamples(monkeypatch):
    # an asymmetric distance must be reported as a violation with its case,
    # not crash the suite
    true_sigma = hilbert.sigma_distance

    def skewed(pair):
        value = true_sigma(pair)
        return 2.0 * value if pair.h1.indices.tolist() > pair.h2.indices.tolist() else value

    monkeypatch.setattr(hilbert, "sigma_distance", skewed)
    summary = verify_abstract(seed=3, n_cases=1)
    assert summary["passed"] is False
    (case,) = summary["distance_symmetry"]["violations"]
    assert case["case"] == 0 and len(case["indices"]) == 3


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


def test_cli_verify_fem(capsys):
    rc = main(["verify", "--suite", "fem"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[fem]" in out and "[abstract]" not in out
    assert "passed: True" in out


def test_cli_verify_prints_counterexamples_and_fails(monkeypatch, capsys):
    case = {"case": 4, "indices": [1, 2, 3]}
    summary = {
        "distance_symmetry": {"worst_margin": -0.5, "cases": 3, "violations": [case]},
        "passed": False,
    }
    monkeypatch.setattr(cli, "verify_abstract", lambda seed, n_cases: summary)
    rc = main(["verify", "--suite", "abstract"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "VIOLATED distance_symmetry: worst margin -5.000e-01 over 3 cases" in out
    assert f"counterexample: {json.dumps(case)}" in out
    assert "passed: False" in out
