import dataclasses
import importlib.util
import inspect
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
        # an expansion past the base inset loaded and became an error cell
        (
            {"scenario": "square_expand", "eps": [0.3125]},
            "expansion eps=0.3125 exceeds the base inset 0.25",
        ),
        ({"eps": [0.0625, 0.0625]}, "eps must not repeat"),
        ({"m": [1, 2, 1]}, "m must not repeat"),
        ({"q": "2"}, "q must be a real number"),
        ({"q": 1.0}, "q must be greater than 1"),
        ({"anchor": ("a", 1.0)}, "anchor must be a real number"),
        ({"anchor": (0.5,)}, "anchor must be two real numbers"),
        ({"anchor": 0.5}, "anchor must be two real numbers"),
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
        # a matrix with an eigenvalue outside [nu, 1/nu] loaded and failed in assembly
        (
            {
                "scenario": "square_shrink", "h": 0.125, "eps": [0.125],
                "coefficient": {"kind": "constant", "matrix": [[4, 0], [0, 0.5]], "nu": 1.0},
            },
            "ellipticity",
        ),
    ]:
        data = {**valid, **change} if isinstance(change, dict) else change
        with pytest.raises(ValueError, match=message):
            ScenarioConfig.from_dict(data)
    with pytest.raises(ValueError, match=r"missing config fields: \['h'\]"):
        ScenarioConfig.from_dict({key: valid[key] for key in ("scenario", "eps", "m")})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=str)
@pytest.mark.parametrize("field_name", ["eps", "anchor", "q", "nu", "matrix"])
def test_config_rejects_non_finite_reals(field_name, bad):
    # eps=inf once raised OverflowError and eps=nan "cannot convert float NaN
    # to integer"; a NaN anchor or matrix entry, or an infinite q, constructed
    # and failed later or not at all
    changes = {
        "eps": {"eps": [bad]},
        "anchor": {"anchor": (bad, 1.0)},
        "q": {"q": bad},
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
        anchor=(0.5, 1.0),
    )
    clone = ScenarioConfig.from_dict(config.to_dict())
    assert clone == config
    with pytest.raises(ValueError, match="unknown config fields"):
        ScenarioConfig.from_dict({**config.to_dict(), "surprise": 1})
    # no run reads a seed, and the grouping tolerance, the square_expand base
    # and the eigenpair requests are not the config's to set
    for name, value in (("seed", 0), ("group_tol", None), ("base", 0.25), ("n_lowest", 12)):
        with pytest.raises(ValueError, match=rf"unknown config fields: \['{name}'\]"):
            ScenarioConfig.from_dict({**config.to_dict(), name: value})


@st.composite
def scenario_configs(draw):
    scenarios = ["square_shrink", "square_expand", "boundary_notch", "l_shape"]
    scenario = draw(st.sampled_from(scenarios))
    # square_expand's base of 1/4 must conform to h, and eps stay within it
    expand = scenario == "square_expand"
    n = 4 * draw(st.integers(1, 16)) if expand else draw(st.integers(2, 64))
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
    widths = st.integers(0, n // 4 if expand else n)
    return ScenarioConfig(
        scenario=scenario,
        h=h,
        eps=[k * h for k in draw(st.lists(widths, min_size=1, max_size=4, unique=True))],
        m=draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True)),
        coefficient=coefficient,
        q=draw(st.floats(1.5, 4.0)),
        anchor=draw(st.sampled_from([(0.5, 1.0), (0.0, 0.25)])),
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
    # is its sigma* pencil, so one pencil is solved per eps.  At h=1/16 each
    # pair removes too many dofs for the capacitance route, so it is Lanczos
    # on the union, the 225-dof reference, after the 169- and 121-dof
    # perturbed eigensolves; every eigensolve request is one Lanczos solve
    asked = []
    true_star = hilbert.sigma_star

    def spy_star(pair):
        asked.append((pair.direction, pair.removed))
        return true_star(pair)

    monkeypatch.setattr(hilbert, "sigma_star", spy_star)
    h = 1.0 / 16.0
    with hilbert.census() as census:
        report = run_scenario(ScenarioConfig(scenario="square_shrink", h=h, eps=[h, 2 * h], m=[1]))
    assert report.passed, report.failures
    assert asked == [("shrink", 0), ("shrink", 0)]
    assert len(census["requests"]) == 3 and census["lanczos"] == [225, 169, 225, 121, 225]
    assert all(cell.sigma_star == cell.sigma > 0.0 for cell in report.cells)


@pytest.mark.parametrize(
    "error", [TypeError, hilbert.DimensionMismatchError, hilbert.SubspaceRankError]
)
def test_programming_errors_propagate(monkeypatch, error):
    # only numerical and geometric failures become error cells; a run never
    # feeds a layer a vector of the wrong size, so a mismatch is a bug too
    def broken(*args):
        raise error("broken layer")

    monkeypatch.setattr(hilbert, "eigenspace_images", broken)
    config = ScenarioConfig(scenario="square_shrink", h=1.0 / 8.0, eps=[1.0 / 8.0], m=[1])
    with pytest.raises(error, match="broken layer"):
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
    per_cell, cell_for = [], harness._cell_for

    def spy_cell(*args):
        with hilbert.census() as census:
            cell = cell_for(*args)
        per_cell.append(len(census["solves"]))
        return cell

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
    # the pairs remove 24 and 40 dofs, so each sigma is a dense capacitance
    # pencil solved inside the sigma_distance span
    assert metrics["hilbert.sigma_distance.pencil_dim_sum"] == 24 + 40


def test_reference_that_resolves_too_few_groups_asks_for_more():
    # the 9 dofs of the h=1/4 square are solved completely into 2 groups, so
    # no larger request can resolve m = 7
    config = ScenarioConfig(scenario="square_shrink", h=1.0 / 4.0, eps=[1.0 / 4.0], m=[7])
    with pytest.raises(ValueError, match="reference has only 2 groups, but m up to 7"):
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


def test_reference_request_starts_at_max_m_plus_two():
    h = 1.0 / 16.0
    config = ScenarioConfig(scenario="square_shrink", h=h, eps=[h], m=[1, 2])
    with hilbert.census() as census:
        run_scenario(config)
    assert census["requests"][0] == 4
    # the shrinking pair starts at N1(S) + max J_m: the simple lambda_1 and
    # the double lambda_2 lie below the window edge S, and J_2 = 2
    eigs1 = harness.ReferenceStage(config).eigs
    assert eigs1.multiplicities[:2].tolist() == [1, 2]
    assert census["requests"][1] == 3 + 2 < eigs1.n_computed


def test_short_perturbed_request_doubles_until_the_window_is_covered():
    h = 1.0 / 16.0
    config = ScenarioConfig(scenario="square_expand", h=h, eps=[2 * h], m=[2])
    with hilbert.census() as census:
        run_scenario(config)
    assert census["requests"] == [4, 6, 12]
    ref = harness.ReferenceStage(config)
    dom2 = config.perturbed_domain(2 * h)
    sub2, tol = fem2d.carve_subspace(ref.space, ref.mesh, dom2), config.group_tol_for(dom2)
    short, grown = (hilbert._lowest_attempt(sub2, tol, n)[0] for n in (6, 12))
    lo, _ = perturbation.spectral_window(ref.eigs, 2)
    j_m = ref.eigs.group(2)[2]

    def past_window(eigs):
        return np.count_nonzero(1.0 / eigs.flat_values() <= lo)

    assert past_window(short) < j_m <= past_window(grown)


def test_only_the_returned_slice_is_counted():
    # the expanding pair's attempts for 6 and 12 pairs are one solve: the
    # short attempt is discarded unproved, so only the reference's slice and
    # the returned one pay for a Sylvester count factor
    h = 1.0 / 16.0
    with hilbert.census() as census:
        run_scenario(ScenarioConfig(scenario="square_expand", h=h, eps=[2 * h], m=[2]))
    assert census["requests"] == [4, 6, 12]
    assert len(census["counts"]) == 2


def test_small_perturbed_subspace_is_solved_once_and_completely():
    # eps=2h leaves the h=1/8 square 9 of its 49 dofs: the shrinking pair's
    # request for N1(S) + max J_m = 3 + 2 is past what Lanczos serves, so the
    # dense solve returns all 9 pairs at once, and only the reference runs
    # Lanczos and needs a count
    h = 1.0 / 8.0
    config = ScenarioConfig(scenario="square_shrink", h=h, eps=[2 * h], m=[1, 2])
    with hilbert.census() as census:
        run_scenario(config)
    assert census["requests"] == [4, 5]
    assert census["lanczos"] == census["counts"] == [49]
    assert census["through_union"] == [49 - 9] and census["interlaced"] == []
    ref = harness.ReferenceStage(config)
    dom2 = config.perturbed_domain(2 * h)
    pair = hilbert.SubspacePair(ref.sub, fem2d.carve_subspace(ref.space, ref.mesh, dom2))
    eigs2 = ref.perturbed_eigs(pair, config.group_tol_for(dom2))
    assert eigs2.complete and eigs2.n_computed == 9


def test_equal_pair_makes_no_perturbed_eigensolve():
    # eps=0 carves the reference itself: its cells are exact fixed points
    # that read no perturbed spectrum, so only the reference is solved
    h = 1.0 / 8.0
    with hilbert.census() as census:
        report = run_scenario(ScenarioConfig(scenario="square_shrink", h=h, eps=[0.0], m=[1, 2]))
    assert report.passed, report.failures
    assert len(census["requests"]) == 1


def test_each_eps_starts_from_the_reference_request():
    # the expand's eps=2h needs 12 pairs to cover the m=2 window; eps=3h
    # starts again from the reference's computed count, so each eps depends
    # on the reference and on eps alone, and its cells equal a run of it alone
    h = 1.0 / 16.0
    config = ScenarioConfig(scenario="square_expand", h=h, eps=[2 * h, 3 * h], m=[2])
    with hilbert.census() as census:
        report = run_scenario(config)
    assert all(cell.error is None for cell in report.cells)
    assert census["requests"] == [4, 6, 12, 6, 12]
    cells = report.to_dict()["cells"]
    for eps in config.eps:
        alone = run_scenario(ScenarioConfig(scenario="square_expand", h=h, eps=[eps], m=[2]))
        want = json.dumps(alone.to_dict()["cells"], sort_keys=True)
        assert json.dumps([c for c in cells if c["eps"] == eps], sort_keys=True) == want


def test_wide_expansion_grows_until_every_window_is_covered(monkeypatch):
    # eps = 1/4 doubles the square's side, so its m=3 window lies past the
    # first dozen perturbed pairs; every slice grows until it covers them
    solved = []
    true_perturbed = harness.ReferenceStage.perturbed_eigs

    def spy(ref, *args):
        solved.append((ref, true_perturbed(ref, *args)))
        return solved[-1][1]

    monkeypatch.setattr(harness.ReferenceStage, "perturbed_eigs", spy)
    config = ScenarioConfig(scenario="square_expand", h=1.0 / 32.0, eps=[0.125, 0.25], m=[2, 3])
    with hilbert.census() as census:
        report = run_scenario(config)
    assert len(solved) == len(config.eps)
    assert all(ref.covers(eigs) and not eigs.complete for ref, eigs in solved)
    assert max(census["requests"]) > 12
    assert report.passed, report.failures
    # the eps = 1/4, m=3 row reads the eigenvalue nearest lambda_3 (1/lambda_3
    # = 0.0030498), not the 0.0039682 nearest among the first 14 pairs
    (cell,) = [c for c in report.cells if c.eps == 0.25 and c.m == 3]
    assert cell.mu_inv == [pytest.approx(0.0030575, rel=1e-4)]


def test_high_reference_group_is_solved_for():
    # m=10 needs the reference's 11th group, past the first dozen pairs
    h = 1.0 / 16.0
    report = run_scenario(ScenarioConfig(scenario="square_shrink", h=h, eps=[h], m=[10]))
    assert report.passed, report.failures
    assert report.cells[0].error is None


def test_interlacing_refuses_a_missed_pair_and_the_count_catches_it(monkeypatch):
    # the h=1/12 checker notch at eps=2h keeps 4 Lanczos pairs, proved
    # complete by interlacing with the reference and no count
    h = 1.0 / 12.0
    config = ScenarioConfig(
        scenario="boundary_notch", h=h, eps=[2 * h], m=[1, 2],
        coefficient={"kind": "checker", "nu": 0.5},
    )
    ref = harness.ReferenceStage(config)
    dom2 = config.perturbed_domain(2 * h)
    pair = hilbert.SubspacePair(ref.sub, fem2d.carve_subspace(ref.space, ref.mesh, dom2))
    assert pair.direction == "shrink"
    with hilbert.census() as census:
        eigs2 = ref.perturbed_eigs(pair, config.group_tol_for(dom2))
    assert not eigs2.complete and census["interlaced"] == [pair.h2.dim]
    assert census["counts"] == []
    # with mu_2 dropped, the first j kept vectors reach mu_(j+1) >= lambda_(j+1)
    # at every boundary that covers the windows, so interlacing proves none,
    # and the count at the kept boundary finds one eigenvalue more than kept
    true_eigsh = hilbert.eigsh

    def drop_second(*args, **kwargs):
        theta, vecs = true_eigsh(*args, **kwargs)
        keep = np.delete(np.argsort(-theta), 1)  # theta = 1/mu, descending
        return theta[keep], vecs[:, keep]

    monkeypatch.setattr(hilbert, "eigsh", drop_second)
    with hilbert.census() as census, pytest.raises(eigsolve.PencilError, match="Sylvester inertia"):
        ref.perturbed_eigs(pair, config.group_tol_for(dom2))
    assert census["interlaced"] == [] and census["counts"] == [pair.h2.dim]
    # the refused attempt again: interlacing was tried at each of those
    # boundaries, as solve_operator_eigs tries them, and proved none
    faulted, _ = hilbert._lowest_attempt(pair.h2, config.group_tol_for(dom2), census["requests"][-1])
    a_res, m_res = pair.h2._energy_block, pair.h2._mass_block
    gaps = [
        hilbert._interlacing_gap(a_res, m_res, faulted.vectors[:, : head.n_computed], ref.eigs)
        for head in map(faulted.head, range(faulted.n_groups, 0, -1))
        if ref.covers(head)
    ]
    assert gaps and all(gap is None for gap in gaps)


def test_report_json_deterministic(tiny_report, tmp_path):
    a = write_report(tiny_report, tmp_path / "a").read_bytes()
    b = write_report(run_scenario(tiny_report.config), tmp_path / "b").read_bytes()
    assert a == b


def test_census_changes_no_output_and_records_only_inside_its_block(tmp_path):
    # the h=1/12 checker notch solves sigma at eps=2h and 4h through the
    # union's factor (8 and 28 dofs removed) and at eps=8h by Lanczos on the
    # 121-dof union; a census around the run changes no byte of its report,
    # and once closed it records nothing
    h = 1.0 / 12.0
    config = ScenarioConfig(
        scenario="boundary_notch", h=h, eps=[2 * h, 4 * h, 8 * h], m=[1, 2],
        coefficient={"kind": "checker", "nu": 0.5},
    )
    with hilbert.census() as census:
        write_report(run_scenario(config), tmp_path / "inside")
    closed = json.dumps(census)
    write_report(run_scenario(config), tmp_path / "outside")
    assert json.dumps(census) == closed and eigsolve._CENSUSES == {}
    assert census["through_union"] == [8, 28] and census["lanczos"][-1] == 121
    # the applications of each Lanczos solve, and the two capacitance pencils
    assert len(census["applications"]) == len(census["lanczos"]) and min(census["applications"]) > 0
    assert census["certified"] and min(census["certified"]) > 0
    assert {8, 28} <= set(census["pencils"]) and census["solves"]
    for name in ("report.json", "rows.csv"):
        inside, outside = (tmp_path / side / name for side in ("inside", "outside"))
        assert inside.read_bytes() == outside.read_bytes()


def test_report_that_is_not_json_writes_nothing(tiny_report, tmp_path):
    # a cell value that json cannot encode fails before any file is opened
    cells = [dataclasses.replace(cell, tracked=np.False_) for cell in tiny_report.cells]
    report = dataclasses.replace(tiny_report, cells=cells)
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_report(report, out)
    assert list(out.iterdir()) == []


def test_group_tol_scales_with_domain():
    config = ScenarioConfig(scenario="square_expand", h=1.0 / 16.0, eps=[0.0], m=[1])
    tol_ref = config.group_tol_for(config.reference_domain())
    tol_pert = config.group_tol_for(config.perturbed_domain(0.25))
    assert tol_ref == pytest.approx(4.0 * tol_pert)


def test_configured_group_tol_reaches_every_eigensolve(monkeypatch):
    # the reference and each eps's domain are solved, in that order, with the
    # tolerance the config derives for that domain
    h = 1.0 / 16.0
    config = ScenarioConfig(scenario="square_shrink", h=h, eps=[h, 2 * h], m=[1])
    seen = []
    true_solve = hilbert.solve_operator_eigs

    def spy(sub, group_tol, **kwargs):
        seen.append(group_tol)
        return true_solve(sub, group_tol, **kwargs)

    monkeypatch.setattr(hilbert, "solve_operator_eigs", spy)
    run_scenario(config)
    want = [config.group_tol_for(config.perturbed_domain(eps)) for eps in (0.0, h, 2 * h)]
    assert len(set(want)) == 3
    assert list(dict.fromkeys(seen)) == want


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
    # neither LAPACK's driver nor Lanczos certifies; solve_pencil certifies
    # every dense pencil, and sigma, sigma* and the eigensolves each certify
    # the Lanczos pairs they read, once.  The abstract suite passes no outer
    # spectrum; the h=1/12 checker notch at eps=2h proves its perturbed slice
    # complete by interlacing, whose Ritz pencil is dense
    # interlacing needs an outer spectrum, so no eigensolve given none tries it
    outers = []
    true_solve = hilbert.solve_operator_eigs

    def spy_solve(*args, **kwargs):
        outers.append(inspect.signature(true_solve).bind(*args, **kwargs).arguments.get("outer"))
        return true_solve(*args, **kwargs)

    monkeypatch.setattr(hilbert, "solve_operator_eigs", spy_solve)
    with hilbert.census() as census:
        assert verify_abstract(seed=2024, n_cases=50)["passed"]
    assert outers and all(outer is None for outer in outers)
    assert census["pencils"] and census["interlaced"] == []
    assert len(census["certified"]) == len(census["pencils"]) + len(census["lanczos"])
    h = 1.0 / 12.0
    config = ScenarioConfig(
        scenario="boundary_notch", h=h, eps=[2 * h], m=[1, 2],
        coefficient={"kind": "checker", "nu": 0.5},
    )
    with hilbert.census() as census:
        report = run_scenario(config)
    assert report.passed, report.failures
    assert census["pencils"] and census["lanczos"] and census["interlaced"]
    assert len(census["certified"]) == len(census["pencils"]) + len(census["lanczos"])


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
    subs = [hilbert.Subspace(space, cols) for cols in ([0, 1], [1, 2], [3])]
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


def test_verify_abstract_counts_non_finite_margins_as_violations(monkeypatch):
    # a NaN sigma* makes every comparison with it false, so its margin was
    # neither the worst nor negative and the suite passed; it is a violation
    # with its case, and so is an infinite margin
    monkeypatch.setattr(hilbert, "sigma_star", lambda pair: np.nan)
    summary = verify_abstract(seed=0, n_cases=5)
    prop = summary["sigma_le_4_sigma_star"]
    assert summary["passed"] is False
    assert np.isnan(prop["worst_margin"]) and prop["cases"] == 5
    assert [case["case"] for case in prop["violations"]] == [0, 1, 2]
    prop = harness._Property("unbounded")
    prop.record(1.0, lambda: "finite")
    prop.record(np.inf, lambda: "infinite")
    assert prop.failed and prop.violations == ["infinite"] and prop.worst == 1.0


def test_sphere_grid_matches_oracle_loop():
    # the suite's grid is built in one vectorized pass; the test oracle keeps
    # the per-point loop, and both multiply in the same order
    for k in range(1, 6):
        assert np.array_equal(_oracle_grid._sphere_grid(k, 6), oracles._sphere_grid(k, 6))
    with pytest.raises(ValueError, match="active dimension 5"):
        _oracle_grid._sphere_grid(6, 6)


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
    lines = (tmp_path / "out" / "rows.csv").read_text().splitlines()
    assert lines[0].split(",") == CSV_COLUMNS
    assert len(lines) == 1 + 2


def test_cli_run_of_the_widest_expansion_writes_its_report(tmp_path, capsys):
    # eps = 1/4 is the widest expansion the family allows
    cfg = write_config(tmp_path, scenario="square_expand", h=1.0 / 16.0, eps=[0.25], m=[1, 2])
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc in (0, 1), capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(report["cells"]) == 2


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
