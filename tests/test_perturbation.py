import numpy as np
import pytest

from eigenshift.fem2d import CoefficientField, DomainSpec, assemble, carve_subspace, unit_square_mesh
from eigenshift.hilbert import (
    EnergySpace,
    Subspace,
    SubspacePair,
    corrector_block,
    eigenspace_images,
    sigma_distance,
    solve_operator_eigs,
)
from eigenshift.perturbation import (
    SIGMA_GATE,
    CorrectionGramError,
    LocalizationError,
    assemble_correction,
    eigenvector_proximity,
    localize,
    predict_and_check,
    spectral_window,
)

import oracles

PI2_2 = 2.0 * np.pi**2


def small_shrink_setup(n=16, eps_cells=2):
    mesh = unit_square_mesh(n)
    space = assemble(mesh, CoefficientField.identity())
    h1 = space.whole()
    h2 = carve_subspace(space, mesh, DomainSpec("square_shrink", eps=eps_cells / n))
    eigs1 = solve_operator_eigs(h1, group_tol=10.0 / n**2)
    eigs2 = solve_operator_eigs(h2, group_tol=10.0 / n**2)
    return space, h1, h2, eigs1, eigs2


def _images(h1, h2, x_m, lam):
    return eigenspace_images(SubspacePair(h1, h2), x_m, lam)


# -- localization ---------------------------------------------------------------


def test_localize_identical_problems():
    space, h1, _, eigs1, _ = small_shrink_setup()
    loc = localize(eigs1, eigs1, 1, sigma=0.0)
    lam1 = eigs1.values[0]
    assert loc.tracked and loc.admitted
    assert loc.mu_inv[0] == pytest.approx(1.0 / lam1, rel=1e-14)
    assert loc.gate_value == 0.0


def test_localize_windows_are_reciprocal_midgaps():
    space, h1, h2, eigs1, eigs2 = small_shrink_setup()
    lo, hi = spectral_window(eigs1, 1)
    assert hi == np.inf
    assert lo == pytest.approx(0.5 * (1 / eigs1.values[0] + 1 / eigs1.values[1]))
    lo2, hi2 = spectral_window(eigs1, 2)
    assert hi2 == lo
    assert lo2 == pytest.approx(0.5 * (1 / eigs1.values[1] + 1 / eigs1.values[2]))


def test_localize_last_group_of_complete_decomposition():
    space = EnergySpace(np.diag([2.0, 8.0]), np.eye(2))
    eigs = solve_operator_eigs(space.whole(), group_tol=1e-9)
    lo, hi = spectral_window(eigs, 2)
    assert lo == 0.0


def test_localize_needs_next_group_on_partial():
    mesh = unit_square_mesh(12)
    space = assemble(mesh, CoefficientField.identity())
    eigs = solve_operator_eigs(space.whole(), group_tol=1e-8, n_lowest=4)
    with pytest.raises(LocalizationError):
        spectral_window(eigs, eigs.n_groups)


def _count_in(window, eigs):
    lo, hi = window
    mu_inv = 1.0 / eigs.flat_values()
    return int(np.count_nonzero((mu_inv > lo) & (mu_inv < hi)))


def test_localize_strict_gate():
    # a cell past the distance gate is recorded as not admitted
    space, h1, h2, eigs1, eigs2 = small_shrink_setup()
    loc = localize(eigs1, eigs2, 1, sigma=1.0)
    assert loc.gate_value == pytest.approx(np.sqrt(eigs1.values[0]), rel=1e-14)
    assert loc.gate_value >= SIGMA_GATE and not loc.admitted


def test_localize_count_error_is_detailed():
    # shift the perturbed spectrum out of every window: compare against a
    # decomposition of a much smaller domain
    space, h1, _, eigs1, _ = small_shrink_setup()
    mesh = unit_square_mesh(16)
    tiny = carve_subspace(space, mesh, DomainSpec("square_shrink", eps=6.0 / 16.0))
    eigs_tiny = solve_operator_eigs(tiny, group_tol=1e-6)
    loc = localize(eigs1, eigs_tiny, 1, sigma=1e-4)
    assert not loc.tracked and not loc.admitted
    assert _count_in(spectral_window(eigs1, 1), eigs_tiny) == 0
    # the J_1 = 1 nearest eigenvalue is still returned
    assert loc.mu_inv.shape == (1,)


def test_localize_lenient_records_flags():
    space, h1, _, eigs1, _ = small_shrink_setup()
    mesh = unit_square_mesh(16)
    tiny = carve_subspace(space, mesh, DomainSpec("square_shrink", eps=6.0 / 16.0))
    eigs_tiny = solve_operator_eigs(tiny, group_tol=1e-6)
    loc = localize(eigs1, eigs_tiny, 1, sigma=1e-4)
    assert not loc.tracked and not loc.admitted
    assert loc.mu_inv.shape == (1,)


def test_localize_truncated_partial_spectrum_is_unproven():
    # the partial solve keeps 1, 2, 3 and drops 3.2, which also lies in the
    # m=3 window, eigenvalues in (2.4, 3.43): counting only the kept ones
    # would find J_3 = 1 and undercount; 21 dofs lie above the dense switch
    eigs1 = solve_operator_eigs(
        EnergySpace(np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), np.eye(6)).whole(), group_tol=1e-9
    )
    diag2 = np.concatenate([[1.0, 2.0, 3.0, 3.2], np.arange(5.0, 22.0)])
    space2 = EnergySpace(np.diag(diag2), np.eye(21))
    eigs2 = solve_operator_eigs(space2.whole(), group_tol=1e-9, n_lowest=1)
    assert not eigs2.complete
    assert np.allclose(eigs2.flat_values(), [1.0, 2.0, 3.0], rtol=1e-12)
    loc = localize(eigs1, eigs2, 3, sigma=1e-4)
    assert loc.mu_inv.shape == (1,) and not loc.tracked and not loc.admitted
    # plain bools, which a report serializes
    assert type(loc.tracked) is bool and type(loc.admitted) is bool
    assert _count_in(spectral_window(eigs1, 3), eigs2) == 1
    # the partial spectrum does reach past the m=2 window, eigenvalues in (1.33, 2.4)
    assert localize(eigs1, eigs2, 2, sigma=1e-4).tracked
    # the complete spectrum shows the true count
    complete = solve_operator_eigs(space2.whole(), group_tol=1e-9)
    loc = localize(eigs1, complete, 3, sigma=1e-4)
    assert not loc.tracked and _count_in(spectral_window(eigs1, 3), complete) == 2


def test_localize_small_shrink_matches_scaled_square():
    # eps = h keeps the first eigenvalue well inside its window and the gate open
    space, h1, h2, eigs1, eigs2 = small_shrink_setup(n=24, eps_cells=1)
    sigma = sigma_distance(SubspacePair(h1, h2))
    loc = localize(eigs1, eigs2, 1, sigma)
    scaled = PI2_2 / (1.0 - 2.0 / 24.0) ** 2
    assert loc.tracked and loc.admitted
    assert 1.0 / loc.mu_inv[0] == pytest.approx(scaled, rel=0.02)


def test_localize_degenerate_pair_returned_together():
    space, h1, h2, eigs1, eigs2 = small_shrink_setup(n=20, eps_cells=1)
    sigma = sigma_distance(SubspacePair(h1, h2))
    loc = localize(eigs1, eigs2, 2, sigma)
    assert loc.mu_inv.shape == (2,)
    scaled = 5.0 * np.pi**2 / (1.0 - 2.0 / 20.0) ** 2
    assert np.allclose(1.0 / loc.mu_inv, scaled, rtol=0.03)


# -- eigenvector proximity --------------------------------------------------------


def test_proximity_zero_distance():
    space, h1, _, eigs1, _ = small_shrink_setup()
    lam, x1, _ = eigs1.group(1)
    images = _images(h1, h1, x1, lam)
    assert eigenvector_proximity(x1, images, sigma=0.0).tolist() == [0.0]


def test_proximity_idempotent_input():
    space, h1, h2, eigs1, eigs2 = small_shrink_setup(n=16, eps_cells=1)
    sigma = sigma_distance(SubspacePair(h1, h2))
    lam, x2, _ = eigs1.group(2)
    images = _images(h1, h2, x2, lam)
    # vectors in span(S2 X), next to the eigenvector they are compared with
    inside = images.s @ np.array([[1.0, 0.3], [-0.5, 2.0]])
    u = np.column_stack([inside, eigs2.group(2)[1][:, 0]])
    prox = eigenvector_proximity(u, images, sigma)
    assert prox.shape == (3,)
    assert np.all(prox[:2] < 1e-9) and prox[2] > 1e-3


def test_proximity_matches_explicit_basis_projection():
    # the Gram route against the dense projector onto span(S2 X) from its
    # explicit basis S2 X
    space, h1, h2, eigs1, eigs2 = small_shrink_setup(n=16, eps_cells=1)
    sigma = sigma_distance(SubspacePair(h1, h2))
    lam, x2, _ = eigs1.group(2)
    images = _images(h1, h2, x2, lam)
    p_m = oracles.projector_matrix(space.energy_gram, h2.project_block(x2))
    u = eigs2.vectors[:, : eigs2.groups[1].stop]
    want = [
        space.energy_norm(v - p_m @ v) / (np.sqrt(sigma) * space.energy_norm(v)) for v in u.T
    ]
    assert np.allclose(eigenvector_proximity(u, images, sigma), want, rtol=1e-12, atol=0.0)


def test_proximity_zero_sigma_with_mismatch_raises():
    space, h1, _, eigs1, _ = small_shrink_setup()
    lam, x1, _ = eigs1.group(1)
    rogue = eigs1.group(2)[1][:, 0]
    with pytest.raises(ValueError, match="inconsistent"):
        eigenvector_proximity(rogue, _images(h1, h1, x1, lam), sigma=0.0)


# -- correction problem ------------------------------------------------------------


def test_correction_shrink_reduces_to_complement_form():
    space, h1, h2, eigs1, _ = small_shrink_setup(n=16, eps_cells=1)
    sigma = sigma_distance(SubspacePair(h1, h2))
    lam, x1, _ = eigs1.group(1)
    images = _images(h1, h2, x1, lam)
    cp = assemble_correction(images, sigma)
    phi = x1[:, 0]
    t_phi = phi - h2.project_block(phi)
    s_phi = h2.project_block(phi)
    t2 = float(t_phi @ space.energy_gram @ t_phi)
    s2 = float(s_phi @ space.energy_gram @ s_phi)
    # psi vanishes for a shrinking domain, so the pencil's left form is the
    # pure complement form -t2 / lam, its Gram is s2, and the single
    # eigenvalue is negative
    assert np.abs(images.psi_a_psi).max() < 1e-12 * t2
    assert np.abs(images.psi_a_x).max() < 1e-12 * t2
    assert images.t_a_t[0, 0] == pytest.approx(t2, rel=1e-9)
    assert images.s_a_s[0, 0] == pytest.approx(s2, rel=1e-12)
    assert cp.tau[0] == pytest.approx(-t2 / (lam * s2), rel=1e-9)
    assert cp.tau[0] < 0


def test_correction_expand_is_positive():
    mesh = unit_square_mesh(16)
    space = assemble(mesh, CoefficientField.identity())
    h1 = carve_subspace(space, mesh, DomainSpec("square_shrink", eps=2.0 / 16.0))
    h2 = space.whole()
    eigs1 = solve_operator_eigs(h1, group_tol=1e-6)
    sigma = sigma_distance(SubspacePair(h1, h2))
    lam, x1, _ = eigs1.group(1)
    cp = assemble_correction(_images(h1, h2, x1, lam), sigma)
    t_phi = x1[:, 0] - h2.project_block(x1[:, 0])
    assert space.energy_norm(t_phi) < 1e-10  # T vanishes for a growing domain
    assert cp.tau[0] > 0


def test_correction_gram_failure():
    space = EnergySpace(np.eye(2), np.eye(2))
    h1 = space.whole()
    h2 = Subspace(space, [1])
    eigs1 = solve_operator_eigs(h1, group_tol=1e-9)
    lam, x1, _ = eigs1.group(1)
    # the first eigenvector is e1, orthogonal to h2: projected Gram is singular
    images = _images(h1, h2, x1, lam)
    with pytest.raises(CorrectionGramError):
        assemble_correction(images, sigma=1.0)
    # the proximities project through the same Gram, and a harness cell
    # records either failure as an error cell
    with pytest.raises(np.linalg.LinAlgError):
        eigenvector_proximity(x1, images, sigma=1.0)


def test_correction_first_order_magnitude():
    # eps = h = 0.05: tau within 35% of the leading-order -2 eps/pi^2 (the
    # pencil eigenvalue carries a genuine ~ +4 eps relative second-order term)
    space, h1, h2, eigs1, _ = small_shrink_setup(n=20, eps_cells=1)
    sigma = sigma_distance(SubspacePair(h1, h2))
    lam, x1, _ = eigs1.group(1)
    cp = assemble_correction(_images(h1, h2, x1, lam), sigma)
    eps = 1.0 / 20.0
    leading = -2.0 * eps / np.pi**2
    assert cp.tau[0] == pytest.approx(leading, rel=0.35)
    assert cp.rho > 0


# -- prediction ----------------------------------------------------------------------


def test_predict_and_check_pairs_in_order():
    from eigenshift.perturbation import CorrectionProblem

    cp = CorrectionProblem(
        lam_m=10.0,
        sigma=0.01,
        rho=0.005,
        tau=np.array([-0.02, -0.01]),
    )
    measured_mu_inv = np.array([0.1 - 0.019, 0.1 - 0.009])
    rows = predict_and_check(cp, measured_mu_inv)
    assert [r.k for r in rows] == [1, 2]
    assert rows[0].tau == -0.02 and rows[1].tau == -0.01
    assert rows[0].mu_inv < rows[1].mu_inv
    for row in rows:
        assert row.remainder == pytest.approx(0.001, rel=1e-9)
        assert row.bound == pytest.approx(cp.rho + abs(row.tau) * cp.sigma)
        assert row.ratio == pytest.approx(row.remainder / row.bound)


def test_predict_and_check_length_mismatch():
    from eigenshift.perturbation import CorrectionProblem

    cp = CorrectionProblem(lam_m=1.0, sigma=0.0, rho=0.0, tau=np.zeros(2))
    with pytest.raises(ValueError, match="length"):
        predict_and_check(cp, np.array([1.0]))


def test_predict_zero_perturbation_rows():
    from eigenshift.perturbation import CorrectionProblem

    cp = CorrectionProblem(lam_m=2.0, sigma=0.0, rho=0.0, tau=np.zeros(1))
    rows = predict_and_check(cp, np.array([0.5]))
    assert rows[0].remainder == 0.0
    assert rows[0].ratio == 0.0


def test_correction_non_nested_domains():
    # two domains that each lose a different boundary bite: neither contains
    # the other, so the pencil's complement and corrector terms are all
    # active, and the predicted drift still matches measurement within a
    # small multiple of the remainder bound
    n = 20
    mesh = unit_square_mesh(n)
    space = assemble(mesh, CoefficientField.identity())

    def bitten(anchor):
        notch = DomainSpec("boundary_notch", eps=2.0 / n, anchor=anchor)
        return carve_subspace(space, mesh, notch)

    h1 = bitten((0.3, 1.0))
    h2 = bitten((0.7, 1.0))
    i1, i2 = set(h1.indices.tolist()), set(h2.indices.tolist())
    assert i1 - i2 and i2 - i1  # genuinely non-nested
    eigs1 = solve_operator_eigs(h1, group_tol=10.0 / n**2)
    eigs2 = solve_operator_eigs(h2, group_tol=10.0 / n**2)
    sigma = sigma_distance(SubspacePair(h1, h2))
    loc = localize(eigs1, eigs2, 1, sigma)
    assert loc.admitted
    lam, x1, _ = eigs1.group(1)
    cp = assemble_correction(_images(h1, h2, x1, lam), sigma)
    phi = x1[:, 0]
    t_phi = phi - h2.project_block(phi)
    psi = corrector_block(h2, phi, lam)
    assert space.energy_norm(t_phi) > 1e-6  # both mechanisms active
    assert space.energy_norm(psi) > 1e-6
    row = predict_and_check(cp, loc.mu_inv)[0]
    assert row.remainder <= 3.0 * row.bound


# -- sweep-level fitted bounds -------------------------------------------------------


def test_corrector_norm_bound_over_expansion_sweep(sweep_reports):
    # ||Psi_phi|| <= C sqrt(sigma) ||phi||: the fitted C stays bounded
    report = sweep_reports["square_expand"]
    fits = []
    for cell in report.cells:
        if cell.error or cell.sigma <= 0:
            continue
        psi_max = np.sqrt(cell.psi_norm2_range[1])
        fits.append(psi_max / np.sqrt(cell.sigma))
    assert fits and np.all(np.isfinite(fits))
    assert max(fits) < 50.0  # sanity: a fitted constant, not a blow-up


def test_rho_decreases_with_perturbation(sweep_reports):
    report = sweep_reports["square_shrink"]
    rhos = [c.rho for c in sorted(report.cells, key=lambda c: c.eps) if c.m == 1 and not c.error]
    assert all(a < b for a, b in zip(rhos, rhos[1:]))


# -- consistency with the boundary-sensitivity route --------------------------------


def test_first_order_slope_matches_boundary_integral(square64, shrink64_report):
    # linearized predicted slope lambda^2 |tau| / eps at the smallest inset
    # against the boundary-sensitivity integral, both near 8 pi^2
    mesh, space, eigs = square64
    _, x1, _ = eigs.group(1)
    phi = x1[:, 0] / np.sqrt(x1[:, 0] @ space.mass_gram @ x1[:, 0])
    slope_boundary = oracles.hadamard_slope(mesh, space, phi, 1.0)
    cell = min(
        (c for c in shrink64_report.cells if c.m == 1 and not c.error),
        key=lambda c: c.eps,
    )
    tau = cell.rows[0].tau
    slope_predicted = cell.lam_m**2 * abs(tau) / cell.eps
    assert abs(slope_predicted - slope_boundary) / slope_boundary < 0.10


def test_th1_pencil_regression(th1_report):
    # locks the actual correction-pencil behavior at eps = 0.05, h = 1/40:
    # tau is mesh-converged near -1.313e-2 (not the leading order -1.013e-2)
    # and the drift remainder stays within a small multiple of rho + |tau| sigma
    cell = max(th1_report.cells, key=lambda c: c.eps)
    row = cell.rows[0]
    assert row.tau == pytest.approx(-1.3134e-2, abs=2e-4)
    assert row.remainder / abs(row.tau) == pytest.approx(0.267, abs=0.03)
    assert row.ratio <= 2.0  # fitted constant of the remainder bound
    for c in th1_report.cells:
        assert c.tracked and not c.error


def test_direction_of_index_sets():
    space = EnergySpace(np.eye(5), np.eye(5))
    abc, ab, bcd = (Subspace(space, idx) for idx in ([0, 1, 2], [0, 1], [1, 2, 3]))
    assert SubspacePair(abc, Subspace(space, [2, 1, 0])).direction == "equal"
    assert SubspacePair(abc, ab).direction == "shrink"
    assert SubspacePair(ab, abc).direction == "expand"
    assert SubspacePair(abc, bcd).direction == "none"
