"""Acceptance suite: one test per release criterion.

Each test prints a single summary line so a verbose run reads as a
checklist.  Where a criterion fixes a tolerance, that tolerance is asserted;
fitted constants with no stated tolerance are asserted finite and reported.
The fits that only these criteria read (the resolved rows, the inclusion
sandwich and the collar table) are defined here, with their own unit tests
at the end.
"""

import numpy as np
import pytest

from eigenshift.harness import ScenarioConfig, run_scenario, verify_abstract, verify_fem
from eigenshift.perturbation import PredictionRow, ScenarioCell

import oracles

PI2_2 = 2.0 * np.pi**2
PI2_5 = 5.0 * np.pi**2
PI2_8 = 8.0 * np.pi**2


def _criterion(name: str, ok: bool, details: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {details}")
    assert ok, f"{name}: {details}"


def resolved_rows(cell) -> list:
    """Rows whose drift is at least 10 times the group's own splitting.

    A grouped near-degenerate reference eigenvalue carries an O(h^2)
    internal spread; drifts below that floor measure the grouping
    artifact, not the perturbation.
    """
    floor = 10.0 * cell.group_spread
    return [row for row in cell.rows if abs(row.mu_inv - row.lambda_inv) >= floor]


def inclusion_bounds(cells: list, direction: str) -> tuple:
    """Fitted constants sandwiching the drift by complement norms.

    For a shrinking domain the drift |mu_k^-1 - lambda_m^-1| is compared
    against min/max of ||T phi||^2 over the unit eigenspace sphere; for a
    growing one against ||Psi_phi||^2.  Returns (c, C): the largest lower
    and smallest upper constant valid across all non-degenerate rows.
    """
    if direction not in ("shrink", "expand"):
        raise ValueError(f"direction must be 'shrink' or 'expand', got {direction!r}")
    lower = np.inf
    upper = 0.0
    used = 0
    for cell in cells:
        if cell.error or not cell.tracked:
            continue
        if cell.direction not in (direction, "equal"):
            raise ValueError(
                f"cell eps={cell.eps}, m={cell.m} has direction {cell.direction!r}, "
                f"inconsistent with {direction!r}"
            )
        norms = cell.t_norm2_range if direction == "shrink" else cell.psi_norm2_range
        lo2, hi2 = norms
        for row in cell.rows:
            shift = abs(row.mu_inv - row.lambda_inv)
            if hi2 <= 1e-14:
                if shift > 1e-12:
                    raise ValueError("zero complement norm with nonzero drift")
                continue  # exact row, skipped from the fit
            upper = max(upper, shift / hi2)
            if lo2 > 1e-14:
                lower = min(lower, shift / lo2)
            used += 1
    if used == 0:
        raise ValueError("no usable rows to fit inclusion bounds")
    return (float(lower if np.isfinite(lower) else 0.0), float(upper))


def collar_stability_check(cells: list) -> list:
    """Ratio of eigenvalue drift to collar gradient energy per row.

    Each cell must carry the maximal collar gradient energy over its unit
    eigenspace sphere and the symmetric-difference area; emits one entry
    per (eps, m, k) with both stability ratios.
    """
    table = []
    for cell in cells:
        if cell.error or not cell.tracked:
            continue
        if cell.collar_energy_max < 0:
            raise ValueError("collar energy missing on a tracked cell")
        for row in cell.rows:
            shift = abs(row.mu_inv - row.lambda_inv)
            den = cell.collar_energy_max
            area = cell.sym_diff_area
            table.append(
                {
                    "eps": cell.eps,
                    "m": cell.m,
                    "k": row.k,
                    "shift": shift,
                    "collar_energy": den,
                    "ratio": (shift / den) if den > 1e-300 else 0.0,
                    "sym_diff_area": area,
                    "area_ratio": (shift / area) if area > 1e-300 else 0.0,
                }
            )
    if not table:
        raise ValueError("no tracked rows for the collar stability table")
    return table


def test_exact_spectrum_oracle(square64):
    """Unit square, h=1/64: lambda_1 within 1% of 2 pi^2, the next group
    within 1% of 5 pi^2 with multiplicity 2."""
    _, _, eigs = square64
    lam1, _, j1 = eigs.group(1)
    lam2, _, j2 = eigs.group(2)
    err1 = abs(lam1 - PI2_2) / PI2_2
    err2 = abs(lam2 - PI2_5) / PI2_5
    _criterion(
        "exact-spectrum",
        err1 <= 0.01 and err2 <= 0.01 and j2 == 2,
        f"lambda1 err {err1:.2e}, lambda2 err {err2:.2e}, J2={j2}",
    )


def test_first_order_drift(th1_report):
    """Shrinking square at eps=0.05: the measured reciprocal drift matches
    the first-order coefficient -2 eps/pi^2 within 20%, the remainder
    against it is at most 0.2 of it, and halving eps cuts that remainder
    ratio by a factor in [1.5, 3]."""
    ratios = {}
    for cell in th1_report.cells:
        assert cell.tracked and not cell.error
        row = cell.rows[0]
        shift = row.mu_inv - row.lambda_inv
        leading = -2.0 * cell.eps / np.pi**2
        rel = abs(shift - leading) / abs(leading)
        ratios[cell.eps] = rel
    # the 20%-match and the remainder/|tau_1| <= 0.2 clauses coincide under
    # the criterion's own oracle arithmetic (both normalize by the coefficient)
    factor = ratios[0.05] / ratios[0.025]
    _criterion(
        "first-order-drift",
        ratios[0.05] <= 0.20 and 1.5 <= factor <= 3.0,
        f"drift-vs-coefficient {ratios[0.05]:.3f} at eps=0.05, "
        f"{ratios[0.025]:.3f} at eps=0.025, halving factor {factor:.2f}",
    )


def _tracked_resolved(report):
    for cell in report.cells:
        if cell.error or not cell.tracked:
            continue
        rows = resolved_rows(cell)
        if rows:
            yield cell, rows


def test_remainder_bound_stability(sweep_reports):
    """remainder <= C_fit (rho + |tau| sigma) with one C_fit per scenario,
    stable within a factor 3 across the tracked part of the eps sweep."""
    details = []
    ok = True
    for name, report in sweep_reports.items():
        per_eps = {}
        seen_m = set()
        for cell, rows in _tracked_resolved(report):
            seen_m.add(cell.m)
            worst = max(row.ratio for row in rows)
            per_eps[cell.eps] = max(per_eps.get(cell.eps, 0.0), worst)
        ok = ok and seen_m == {1, 2} and len(per_eps) >= 1
        fits = sorted(per_eps.values())
        stable = fits[-1] / max(fits[0], 1e-300) <= 3.0 if len(fits) > 1 else True
        ok = ok and stable and np.isfinite(fits[-1])
        details.append(
            f"{name}: C_fit={fits[-1]:.3f} over {len(per_eps)} tracked eps "
            f"(spread x{fits[-1] / max(fits[0], 1e-300):.2f}, m covered {sorted(seen_m)})"
        )
    _criterion("remainder-bound", ok, "; ".join(details))


def test_pr1_localization_suite(sweep_reports, shrink64_report, th1_report):
    """Every admitted run localizes exactly J_m eigenvalues; the eigenvector
    proximity ratio is bounded by a single fitted constant per sweep."""
    all_reports = list(sweep_reports.values()) + [shrink64_report, th1_report]
    admitted = 0
    miscounted = []
    fitted = 0.0
    for report in all_reports:
        for cell in report.cells:
            if cell.error or not cell.admitted:
                continue
            admitted += 1
            if not cell.tracked:
                miscounted.append((report.config.scenario, cell.eps, cell.m))
            if cell.proximity:
                fitted = max(fitted, max(cell.proximity))
    _criterion(
        "pr1-suite",
        admitted >= 5 and not miscounted and np.isfinite(fitted),
        f"{admitted} admitted cells, 0 miscounts expected (got {miscounted}), "
        f"fitted proximity constant {fitted:.3f}",
    )


def test_inclusion_signs(sweep_reports, zero_report):
    """Shrinking domains predict nonpositive shifts and growing ones
    nonnegative (up to the grouped-reference resolution); matched
    eigenvalues move monotonically on admitted cells; zero perturbation
    reports exact zeros."""
    def verdict(check):
        return "ok" if check else "FAILED"

    checks, details = [], []
    for name, direction in (("square_shrink", "shrink"), ("boundary_notch", "shrink"),
                            ("l_shape", "shrink"), ("square_expand", "expand")):
        report = sweep_reports[name]
        signs = True
        for cell in report.cells:
            if cell.error:
                continue
            floor = 4.0 * cell.group_spread + 1e-12
            lam_inv = 1.0 / cell.lam_m
            if direction == "shrink":
                signs = signs and all(t <= floor for t in cell.tau)
                if cell.admitted:
                    signs = signs and all(
                        mi <= lam_inv + floor + 1e-9 * lam_inv for mi in cell.mu_inv
                    )
            else:
                signs = signs and all(t >= -floor for t in cell.tau)
                if cell.admitted:
                    signs = signs and all(
                        mi >= lam_inv - floor - 1e-9 * lam_inv for mi in cell.mu_inv
                    )
        checks.append(signs)
        details.append(f"{name} signs {verdict(signs)}")
    # fitted sandwich constants for the inclusion directions
    shrink_cells = [c for c in sweep_reports["square_shrink"].cells if not c.error]
    c_lo, c_hi = inclusion_bounds(shrink_cells, "shrink")
    sandwich = 0 < c_lo and 0 < c_hi and c_hi / c_lo <= 100.0
    checks.append(sandwich)
    details.append(f"shrink sandwich c={c_lo:.3f}, C={c_hi:.3f} {verdict(sandwich)}")
    expand_cells = [c for c in sweep_reports["square_expand"].cells if not c.error]
    ce_lo, ce_hi = inclusion_bounds(expand_cells, "expand")
    sandwich = 0 < ce_hi and np.isfinite(ce_hi)
    checks.append(sandwich)
    details.append(f"expand sandwich c={ce_lo:.3f}, C={ce_hi:.3f} {verdict(sandwich)}")
    exact = True
    for cell in zero_report.cells:
        zeros = [cell.sigma, cell.sigma_star, cell.rho, cell.rho0]
        zeros += [abs(t) for t in cell.tau] + [r.remainder for r in cell.rows]
        exact = exact and max(zeros) <= 1e-12
    checks.append(exact)
    details.append(f"zero perturbation exact {verdict(exact)}")
    _criterion("inclusion-signs", all(checks), "; ".join(details))


def test_hadamard_consistency(square64, shrink64_report):
    """Uniform unit inward shift of the square: the boundary integral of the
    squared normal derivative is within 10% of 8 pi^2 and within 15% of the
    finite-difference slope at eps = 2h."""
    mesh, space, eigs = square64
    _, x1, _ = eigs.group(1)
    phi = x1[:, 0] / np.sqrt(x1[:, 0] @ space.mass_gram @ x1[:, 0])
    slope = oracles.hadamard_slope(mesh, space, phi, 1.0)
    err_closed = abs(slope - PI2_8) / PI2_8
    cell = max(
        (c for c in shrink64_report.cells if c.m == 1 and not c.error),
        key=lambda c: c.eps,
    )
    mu = 1.0 / cell.rows[0].mu_inv
    fd_slope = (mu - cell.lam_m) / cell.eps
    err_fd = abs(slope - fd_slope) / fd_slope
    _criterion(
        "hadamard-consistency",
        err_closed <= 0.10 and err_fd <= 0.15,
        f"slope {slope:.3f} vs 8pi^2 ({err_closed:.2%}), vs FD {fd_slope:.3f} ({err_fd:.2%})",
    )


def test_abstract_inequality_suite():
    """500 random small-space cases, fixed seed: projected-norm, bridge and
    mass-transfer estimates, the 4x comparison with the complement constant,
    the distance axioms and projector laws, with the projector distance
    re-verified against the grid-search oracle to 1e-3 - zero violations."""
    summary = verify_abstract(seed=2024, n_cases=500)
    worst = {
        name: value["worst_margin"]
        for name, value in summary.items()
        if isinstance(value, dict) and "worst_margin" in value
    }
    _criterion(
        "abstract-inequalities",
        summary["passed"] and summary["n_cases"] == 500,
        "worst margins: "
        + ", ".join(f"{k}={v:.2e}" for k, v in sorted(worst.items())),
    )


def test_vanishing_distance_family():
    """Shrinking-square family: sigma and sigma* decrease monotonically to
    below 1e-2 as eps approaches h, and the projections converge on a fixed
    5-vector panel (the family of ``verify_fem``)."""
    report = verify_fem()
    sigmas, stars, defects = (
        report[key] for key in ("sigma_family", "sigma_star_family", "panel_defects")
    )
    _criterion(
        "vanishing-distance-family",
        report["sigma_decreases_to_small"]
        and report["sigma_star_decreases"]
        and report["panel_converges"],
        f"sigma {sigmas[0]:.2e}->{sigmas[2]:.2e}, sigma* {stars[0]:.2e}->{stars[2]:.2e}, "
        f"panel defect {defects[0]:.2e}->{defects[2]:.2e}",
    )


# each eigenpair's residual certificate, relative (eigsolve._certify)
CERTIFICATE = 1e-9


def _halving_converges(values, floor) -> bool:
    """Whether the difference between the two finest meshes is at most half
    the difference between the two coarsest, up to ``floor``."""
    coarse, fine = abs(values[1] - values[0]), abs(values[2] - values[1])
    return fine <= 0.5 * coarse + floor


def test_mesh_independence():
    """Shrinking square and boundary notch, identity coefficient, m = 1,
    eps = 1/32, on h = 1/32, 1/64 and 1/128: sigma, tau and the drift
    mu^-1 - lambda^-1 converge as h halves, and the remainder bound's
    constant (each row's ``ratio``) is the same on every mesh to 0.02.

    Why these bounds.  P1 eigenpairs, and the energy and mass forms built
    from them, converge as O(h^2) on a fixed polygon (Babuska & Osborn,
    Handbook of Numerical Analysis II, 1991); a re-entrant corner of angle
    omega < 2 pi lowers the rate to O(h^(2 pi / omega)), still above first
    order, and the notch's discrete half-disc converges with the mesh.  So
    each successive difference shrinks by 4 at the O(h^2) rate and by more
    than 2 at any rate above first order; 2 is required, which a quantity
    that does not converge (level differences) fails.  The ratio is the
    quotient of two such quantities and converges at the same rate; then
    the h = 1/32 ratio lies within twice its first difference of the limit,
    and that is required to stay below 0.02, a quarter of the smallest
    excess of these ratios over 1 (0.08), so the excess belongs to the
    continuum pair and not to the mesh.

    Each reciprocal eigenvalue is certain to CERTIFICATE of itself, and a
    difference of two meshes is allowed that much of each.  Every remainder
    must exceed 1000 certificates of its mu^-1, so the certificate cannot
    decide a ratio.
    """
    ok, details = True, []
    for scenario in ("square_shrink", "boundary_notch"):
        cells = []
        for n in (32, 64, 128):
            config = ScenarioConfig(scenario=scenario, h=1.0 / n, eps=[1.0 / 32.0], m=[1])
            (cell,) = run_scenario(config).cells
            ok = ok and cell.admitted and not cell.error
            cells.append(cell)
        rows = [cell.rows[0] for cell in cells]
        # each quantity's values, and how far the certificate may move each
        quantities = {
            "sigma": ([c.sigma for c in cells], [c.sigma for c in cells]),
            "tau": ([c.tau[0] for c in cells], [abs(c.tau[0]) for c in cells]),
            "drift": (
                [r.mu_inv - r.lambda_inv for r in rows], [r.mu_inv + r.lambda_inv for r in rows]
            ),
            "ratio": (
                [r.ratio for r in rows], [(r.mu_inv + r.lambda_inv) / r.bound for r in rows]
            ),
        }
        for name, (values, scales) in quantities.items():
            converges = _halving_converges(values, CERTIFICATE * (scales[1] + scales[2]))
            ok = ok and converges
            details.append(
                f"{scenario} {name} " + ", ".join(f"{v:.5e}" for v in values)
                + ("" if converges else " NOT CONVERGING")
            )
        ratios = quantities["ratio"][0]
        drift_to_limit = 2.0 * abs(ratios[1] - ratios[0])
        above = min(r.remainder / r.mu_inv for r in rows)
        ok = ok and drift_to_limit <= 0.02 and above >= 1e3 * CERTIFICATE
        details.append(
            f"{scenario} ratio within {drift_to_limit:.2e} of its limit, "
            f"remainder >= {above:.1e} mu^-1"
        )
    _criterion("mesh-independence", ok, "; ".join(details))


def test_collar_stability(sweep_reports):
    """Eigenvalue drift controlled by the collar gradient energy: the ratio
    is positive and finite across the tracked sweep for the shrinking square
    and the boundary notch (fitted constant reported, none pinned)."""
    ok = True
    details = []
    for name in ("square_shrink", "boundary_notch"):
        cells = [cell for cell, _ in _tracked_resolved(sweep_reports[name]) if cell.eps > 0]
        table = collar_stability_check(cells)
        ratios = [entry["ratio"] for entry in table]
        area_ratios = [entry["area_ratio"] for entry in table]
        ok = ok and all(np.isfinite(r) and r >= 0 for r in ratios) and max(ratios) > 0
        ok = ok and all(np.isfinite(r) and r >= 0 for r in area_ratios)
        details.append(
            f"{name}: fitted collar constant {max(ratios):.3f} over {len(ratios)} rows, "
            f"symmetric-difference constant {max(area_ratios):.3f}"
        )
    _criterion("collar-stability", ok, "; ".join(details))


# -- the criteria's own routines -----------------------------------------------


def _fake_cell(eps, m, lam, mu_inv, t_range, psi_range, direction, tracked=True,
               collar=1.0, area=0.1, spread=0.0):
    rows = [
        PredictionRow(
            k=i + 1, lambda_inv=1.0 / lam, mu_inv=mi, tau=0.0,
            predicted_mu_inv=mi, remainder=0.0, bound=1.0, ratio=0.0,
        )
        for i, mi in enumerate(mu_inv)
    ]
    return ScenarioCell(
        eps=eps, m=m, lam_m=lam, multiplicity=len(mu_inv), sigma=0.01,
        sigma_star=0.01, rho=0.0, rho0=0.0, gate_value=0.1, admitted=True,
        tracked=tracked, direction=direction, mu_inv=list(mu_inv), tau=[0.0],
        rows=rows, collar_energy_max=collar, sym_diff_area=area,
        group_spread=spread,
    )


def test_inclusion_bounds_fit():
    lam = 10.0
    cells = [
        _fake_cell(0.1, 1, lam, [1.0 / lam - 0.01], t_range=None, psi_range=None,
                   direction="shrink"),
        _fake_cell(0.2, 1, lam, [1.0 / lam - 0.03], t_range=None, psi_range=None,
                   direction="shrink"),
    ]
    cells[0].t_norm2_range = (0.005, 0.02)
    cells[1].t_norm2_range = (0.012, 0.05)
    c_lo, c_hi = inclusion_bounds(cells, "shrink")
    assert c_hi == pytest.approx(max(0.01 / 0.02, 0.03 / 0.05))
    assert c_lo == pytest.approx(min(0.01 / 0.005, 0.03 / 0.012))
    assert 0 < c_lo and 0 < c_hi


def test_inclusion_bounds_direction_mismatch():
    cells = [_fake_cell(0.1, 1, 10.0, [0.09], None, None, direction="expand")]
    cells[0].t_norm2_range = (0.01, 0.01)
    with pytest.raises(ValueError, match="inconsistent"):
        inclusion_bounds(cells, "shrink")
    with pytest.raises(ValueError, match="direction"):
        inclusion_bounds(cells, "sideways")


def test_inclusion_bounds_skips_exact_rows():
    lam = 10.0
    exact = _fake_cell(0.0, 1, lam, [1.0 / lam], None, None, direction="equal")
    exact.t_norm2_range = (0.0, 0.0)
    real = _fake_cell(0.1, 1, lam, [1.0 / lam - 0.01], None, None, direction="shrink")
    real.t_norm2_range = (0.02, 0.02)
    c_lo, c_hi = inclusion_bounds([exact, real], "shrink")
    assert c_hi == pytest.approx(0.5)


def test_collar_stability_table():
    lam = 10.0
    cell = _fake_cell(0.1, 1, lam, [1.0 / lam - 0.02], None, None,
                      direction="shrink", collar=0.4, area=0.36)
    table = collar_stability_check([cell])
    assert len(table) == 1
    assert table[0]["ratio"] == pytest.approx(0.02 / 0.4)
    assert table[0]["area_ratio"] == pytest.approx(0.02 / 0.36)
    with pytest.raises(ValueError, match="no tracked rows"):
        collar_stability_check([_fake_cell(0.1, 1, lam, [0.08], None, None,
                                           direction="shrink", tracked=False)])


def test_resolved_rows_filters_below_spread():
    lam = 10.0
    cell = _fake_cell(0.1, 2, lam, [1.0 / lam - 1e-6, 1.0 / lam - 5e-4],
                      None, None, direction="shrink", spread=1e-5)
    kept = resolved_rows(cell)
    assert len(kept) == 1
    assert kept[0].mu_inv == pytest.approx(1.0 / lam - 5e-4)


def test_rho0_bounds_drift(sweep_reports):
    # |mu_k^-1 - lambda_m^-1| <= C rho0 with a bounded fitted C
    fits = []
    for name in ("square_shrink", "boundary_notch", "l_shape"):
        for cell in sweep_reports[name].cells:
            if cell.error or not cell.tracked or cell.rho0 <= 0:
                continue
            for row in resolved_rows(cell):
                fits.append(abs(row.mu_inv - row.lambda_inv) / cell.rho0)
    assert fits and np.all(np.isfinite(fits))
