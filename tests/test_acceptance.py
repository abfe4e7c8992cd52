"""Acceptance suite: one test per release criterion.

Each test prints a single summary line so a verbose run reads as a
checklist.  Where a criterion fixes a tolerance, that tolerance is asserted;
fitted constants with no stated tolerance are asserted finite and reported.
"""

import numpy as np

from eigenshift.fem2d import hadamard_slope
from eigenshift.harness import verify_abstract, verify_fem
from eigenshift.perturbation import collar_stability_check, inclusion_bounds

PI2_2 = 2.0 * np.pi**2
PI2_5 = 5.0 * np.pi**2
PI2_8 = 8.0 * np.pi**2


def _criterion(name: str, ok: bool, details: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {details}")
    assert ok, f"{name}: {details}"


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
        rows = cell.resolved_rows()
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
    lam1, x1, _ = eigs.group(1)
    phi = x1[:, 0] / np.sqrt(x1[:, 0] @ space.mass_gram @ x1[:, 0])
    slope = hadamard_slope(mesh, space, (lam1, phi), 1.0)
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
