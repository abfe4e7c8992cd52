import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenshift import fem2d, hilbert
from eigenshift.eigsolve import NotPositiveDefiniteError, PencilError
from eigenshift.fem2d import CoefficientField, DomainSpec
from eigenshift.hilbert import (
    DimensionMismatchError,
    EnergySpace,
    NotInSubspaceError,
    Subspace,
    apply_B,
    apply_T2,
    compute_rho,
    compute_rho0,
    corrector_block,
    eigenspace_images,
    embedding_constant,
    intersection_subspace,
    SubspaceRankError,
    sigma_distance,
    sigma_star,
    solve_operator_eigs,
)

import oracles


def euclid_space(n):
    return EnergySpace(np.eye(n), np.eye(n))


def random_space(rng, n):
    f1 = rng.normal(size=(n, n))
    f2 = rng.normal(size=(n, n))
    return EnergySpace(f1 @ f1.T + 0.5 * np.eye(n), f2 @ f2.T + 0.5 * np.eye(n))


def random_subspace(rng, space, d):
    return Subspace.from_basis(space, rng.normal(size=(space.dim, d)))


def line(space, theta):
    return Subspace.from_basis(space, np.array([[np.cos(theta)], [np.sin(theta)]]))


# -- EnergySpace and embedding constant --------------------------------------


def test_embedding_constant_diagonal():
    space = EnergySpace(np.diag([2.0, 8.0]), np.eye(2))
    assert embedding_constant(space) == pytest.approx(1.0 / np.sqrt(2.0))


def test_embedding_constant_identity():
    space = EnergySpace(np.diag([3.0, 5.0]), np.diag([3.0, 5.0]))
    assert embedding_constant(space) == pytest.approx(1.0)


def test_non_positive_definite_reports_matrix():
    with pytest.raises(NotPositiveDefiniteError, match="energy_gram"):
        EnergySpace(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(NotPositiveDefiniteError, match="mass_gram"):
        EnergySpace(np.eye(2), np.diag([1.0, 0.0]))


def test_asymmetric_gram_rejected():
    bad = np.array([[1.0, 0.2], [0.1, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        EnergySpace(bad, np.eye(2))


# -- projection ---------------------------------------------------------------


def test_projection_coordinate_case():
    space = euclid_space(2)
    sub = Subspace.nodal(space, [0])
    assert np.allclose(sub.project_block(np.array([3.0, 4.0])), [3.0, 0.0])


def test_projection_idempotent_on_members():
    rng = np.random.default_rng(0)
    space = random_space(rng, 6)
    sub = random_subspace(rng, space, 3)
    u = sub.basis @ rng.normal(size=3)
    assert np.allclose(sub.project_block(u), u, atol=1e-10)


def test_projection_whole_space_is_identity():
    rng = np.random.default_rng(1)
    space = random_space(rng, 5)
    u = rng.normal(size=5)
    assert np.allclose(space.whole().project_block(u), u, atol=1e-10)


def test_projection_dimension_mismatch():
    space = euclid_space(3)
    with pytest.raises(DimensionMismatchError):
        Subspace.nodal(space, [0]).project_block(np.ones(4))


def test_projector_laws_random():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(3, 10))
        space = random_space(rng, n)
        sub = random_subspace(rng, space, int(rng.integers(1, n)))
        u, v = rng.normal(size=n), rng.normal(size=n)
        su = sub.project_block(u)
        scale = max(space.energy_norm(u), 1.0)
        assert space.energy_norm(sub.project_block(su) - su) <= 1e-10 * scale
        lhs = space.energy_inner(su, v)
        rhs = space.energy_inner(u, sub.project_block(v))
        assert lhs == pytest.approx(rhs, abs=1e-10 * scale * max(space.energy_norm(v), 1.0))


def test_orthonormalized_basis_invariant():
    rng = np.random.default_rng(3)
    space = random_space(rng, 7)
    sub = random_subspace(rng, space, 4)
    b = sub.orthonormal_basis()
    assert np.abs(b.T @ space.energy_gram @ b - np.eye(4)).max() < 1e-10


def test_projection_matches_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        space = random_space(rng, n)
        basis = rng.normal(size=(n, int(rng.integers(1, n + 1))))
        sub = Subspace.from_basis(space, basis)
        s_mat = oracles.projector_matrix(space.energy_gram, basis)
        u = rng.normal(size=n)
        assert np.allclose(sub.project_block(u), s_mat @ u, atol=1e-9)


@pytest.mark.parametrize("root", ["sparse"])
def test_fem_general_subspace_matches_dense_oracle(root, request):
    # explicit bases on a FEM space are energy-orthonormalized through the
    # square root of A from the space's sparse factor
    mesh = fem2d.unit_square_mesh(12)
    space = fem2d.assemble(mesh, CoefficientField.checker(0.5))
    energy = space.energy_csr.toarray()
    request.getfixturevalue("dense_free")
    rng = np.random.default_rng(21)
    basis = rng.normal(size=(space.dim, 5))
    sub = Subspace.from_basis(space, basis)
    q = sub.orthonormal_basis()
    assert np.abs(q.T @ energy @ q - np.eye(5)).max() < 1e-10
    u = rng.normal(size=(space.dim, 3))
    want = oracles.projector_matrix(energy, basis) @ u
    assert np.abs(sub.project_block(u) - want).max() <= 1e-10 * np.abs(want).max()
    # the general intersection basis is a combination of the first operand's
    h1, h2 = Subspace.from_basis(space, basis[:, :3]), Subspace.from_basis(space, basis[:, 1:])
    inter = intersection_subspace(h1, h2)
    assert inter.dim == 2
    want = oracles.projector_matrix(energy, basis[:, 1:3]) @ u
    assert np.abs(inter.project_block(u) - want).max() <= 1e-10 * np.abs(want).max()
    mass = space.mass_csr.toarray()
    want = oracles.sigma_star_direct(energy, mass, basis[:, :3], basis[:, 1:])
    assert sigma_star(h1, h2) == pytest.approx(want, rel=1e-10)
    # general sigma reads no dense view either: its pencil lives on H1 + H2
    d = oracles.projector_matrix(energy, basis[:, :3]) - oracles.projector_matrix(
        energy, basis[:, 1:]
    )
    want = oracles.pencil_eigs(d.T @ mass @ d, energy)[-1]
    assert sigma_distance(h1, h2) == pytest.approx(want, rel=1e-10)
    near = np.column_stack([basis, basis[:, 0] + 1e-13 * rng.normal(size=space.dim)])
    with pytest.raises(SubspaceRankError, match="rank deficient"):
        Subspace.from_basis(space, near).orthonormal_basis()


def test_cross_symmetry_property():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(3, 10))
        space = random_space(rng, n)
        h1 = random_subspace(rng, space, int(rng.integers(1, n)))
        h2 = random_subspace(rng, space, int(rng.integers(1, n)))
        v = h1.basis @ rng.normal(size=h1.dim)
        w = h2.basis @ rng.normal(size=h2.dim)
        lhs = space.energy_inner(h2.project_block(v), w)
        rhs = space.energy_inner(v, h1.project_block(w))
        scale = max(space.energy_norm(v) * space.energy_norm(w), 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-10 * scale)


# -- sigma --------------------------------------------------------------------


def test_sigma_zero_for_identical():
    rng = np.random.default_rng(6)
    space = random_space(rng, 5)
    sub = random_subspace(rng, space, 2)
    assert sigma_distance(sub, sub) == pytest.approx(0.0, abs=1e-12)
    nodal = Subspace.nodal(space, [1, 3])
    assert sigma_distance(nodal, nodal) == 0.0


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(min_value=0.02, max_value=np.pi / 2))
def test_sigma_rotated_line_closed_form(theta):
    space = euclid_space(2)
    h1 = line(space, 0.0)
    h2 = line(space, theta)
    assert sigma_distance(h1, h2) == pytest.approx(np.sin(theta) ** 2, rel=1e-9)


def test_sigma_orthogonal_lines_is_one():
    space = euclid_space(2)
    assert sigma_distance(line(space, 0.0), line(space, np.pi / 2)) == pytest.approx(1.0)


def test_sigma_symmetry_and_triangle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        space = random_space(rng, n)
        subs = [random_subspace(rng, space, int(rng.integers(1, n))) for _ in range(3)]
        s12 = sigma_distance(subs[0], subs[1])
        s21 = sigma_distance(subs[1], subs[0])
        assert s12 == pytest.approx(s21, rel=1e-9, abs=1e-12)
        s13 = sigma_distance(subs[0], subs[2])
        s23 = sigma_distance(subs[1], subs[2])
        assert np.sqrt(s13) <= np.sqrt(s12) + np.sqrt(s23) + 1e-9


def test_sigma_matches_grid_oracle():
    rng = np.random.default_rng(8)
    for _ in range(8):
        n = int(rng.integers(3, 8))
        space = random_space(rng, n)
        b1 = rng.normal(size=(n, int(rng.integers(1, 3))))
        b2 = rng.normal(size=(n, int(rng.integers(1, 3))))
        val = sigma_distance(Subspace.from_basis(space, b1), Subspace.from_basis(space, b2))
        grid = oracles.sigma_grid(space.energy_gram, space.mass_gram, b1, b2)
        assert grid == pytest.approx(val, rel=1e-3, abs=1e-6)


def test_sigma_nodal_fast_path_matches_general():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        space = random_space(rng, n)
        i1 = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        i2 = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        nodal = sigma_distance(Subspace.nodal(space, i1), Subspace.nodal(space, i2))
        eye = np.eye(n)
        general = sigma_distance(
            Subspace.from_basis(space, eye[:, i1]), Subspace.from_basis(space, i2 and eye[:, i2])
        )
        assert nodal == pytest.approx(general, rel=1e-8, abs=1e-10)


def test_shared_parent_required():
    s1, s2 = euclid_space(3), euclid_space(3)
    with pytest.raises(ValueError, match="parent"):
        sigma_distance(Subspace.nodal(s1, [0]), Subspace.nodal(s2, [0]))
    # a nodal subspace has no explicit basis, so a mixed pair has no common form
    mixed = (Subspace.nodal(s1, [0]), Subspace.from_basis(s1, np.eye(3)[:, 1:]))
    for pair in (mixed, mixed[::-1]):
        with pytest.raises(ValueError, match="no explicit basis"):
            sigma_distance(*pair)


# -- sigma* and intersection --------------------------------------------------


def test_sigma_star_identical_subspaces():
    rng = np.random.default_rng(10)
    space = random_space(rng, 6)
    sub = Subspace.nodal(space, [0, 2, 4])
    assert sigma_star(sub, sub) == 0.0


def test_sigma_star_rotated_lines():
    space = euclid_space(2)
    h1, h2 = line(space, 0.0), line(space, 0.7)
    # sum is the plane, intersection trivial: best constant over R^2 is 1
    assert sigma_star(h1, h2) == pytest.approx(1.0, rel=1e-9)


def test_sigma_le_four_sigma_star_random():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(3, 10))
        space = random_space(rng, n)
        h1 = random_subspace(rng, space, int(rng.integers(1, n)))
        h2 = random_subspace(rng, space, int(rng.integers(1, n)))
        assert sigma_distance(h1, h2) <= 4.0 * sigma_star(h1, h2) + 1e-10


def test_intersection_nodal_combinatorial():
    space = euclid_space(6)
    h1 = Subspace.nodal(space, [0, 1, 2, 3])
    h2 = Subspace.nodal(space, [2, 3, 4])
    inter = intersection_subspace(h1, h2)
    assert inter.kind == "nodal"
    assert inter.indices.tolist() == [2, 3]
    assert intersection_subspace(Subspace.nodal(space, [0]), Subspace.nodal(space, [5])) is None


def test_intersection_general_principal_angles():
    rng = np.random.default_rng(12)
    space = random_space(rng, 8)
    shared = rng.normal(size=(8, 2))
    b1 = np.hstack([shared, rng.normal(size=(8, 2))])
    b2 = np.hstack([shared, rng.normal(size=(8, 1))])
    inter = intersection_subspace(
        Subspace.from_basis(space, b1), Subspace.from_basis(space, b2)
    )
    assert inter is not None and inter.dim == 2
    # intersection vectors lie in both subspaces
    h1 = Subspace.from_basis(space, b1)
    h2 = Subspace.from_basis(space, b2)
    for j in range(2):
        v = inter.basis[:, j]
        assert h1.contains(v, tol=1e-8)
        assert h2.contains(v, tol=1e-8)


def test_sigma_star_nodal_matches_general():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        space = random_space(rng, n)
        i1 = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        i2 = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        nodal = sigma_star(Subspace.nodal(space, i1), Subspace.nodal(space, i2))
        eye = np.eye(n)
        general = sigma_star(
            Subspace.from_basis(space, eye[:, i1]), Subspace.from_basis(space, eye[:, i2])
        )
        assert nodal == pytest.approx(general, rel=1e-8, abs=1e-10)


def test_sigma_star_matches_direct_oracle():
    rng = np.random.default_rng(27)
    for _ in range(10):
        n = int(rng.integers(3, 10))
        space = random_space(rng, n)
        b1 = rng.normal(size=(n, int(rng.integers(1, 4))))
        b2 = rng.normal(size=(n, int(rng.integers(1, 4))))
        val = sigma_star(Subspace.from_basis(space, b1), Subspace.from_basis(space, b2))
        want = oracles.sigma_star_direct(space.energy_gram, space.mass_gram, b1, b2)
        assert val == pytest.approx(want, rel=1e-8, abs=1e-10)


# -- nodal sigma and sigma* by Lanczos against the dense pencils --------------


def _fem_pair(n, dom1, dom2):
    mesh = fem2d.unit_square_mesh(n)
    space = fem2d.assemble(mesh, CoefficientField.identity())
    return (
        space,
        fem2d.carve_subspace(space, mesh, dom1),
        fem2d.carve_subspace(space, mesh, dom2),
    )


def _fem_pairs(n):
    h = 1.0 / n
    return {
        "shrink": (DomainSpec("square_shrink", eps=0.0), DomainSpec("square_shrink", eps=h)),
        "expand": (
            DomainSpec("square_expand", eps=0.0, base=0.25),
            DomainSpec("square_expand", eps=2 * h, base=0.25),
        ),
        "notches": (
            DomainSpec("boundary_notch", eps=2 * h, anchor=(0.5, 1.0)),
            DomainSpec("boundary_notch", eps=2 * h, anchor=(0.25, 1.0)),
        ),
        "equal": (DomainSpec("l_shape", eps=2 * h), DomainSpec("l_shape", eps=2 * h)),
    }


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("kind", ["shrink", "expand", "notches", "equal"])
def test_nodal_sigmas_match_dense_oracle(n, kind):
    space, h1, h2 = _fem_pair(n, *_fem_pairs(n)[kind])
    sigma, star = sigma_distance(h1, h2), sigma_star(h1, h2)
    want_sigma, want_star = oracles.nodal_sigmas(
        space.energy_gram, space.mass_gram, h1.indices, h2.indices
    )
    i1, i2 = set(h1.indices.tolist()), set(h2.indices.tolist())
    if kind == "equal":
        assert h1 is not h2 and i1 == i2
        assert sigma == 0.0 and star == 0.0
        assert want_sigma == 0.0 and want_star == 0.0
        return
    assert sigma == pytest.approx(want_sigma, rel=1e-10)
    assert star == pytest.approx(want_star, rel=1e-10)
    if kind == "notches":
        assert not (i1 <= i2 or i2 <= i1) and i1 & i2
    else:
        assert i1 < i2 or i2 < i1
        assert sigma == star


def test_nodal_sigma_certificate_rejects_wrong_eigenvector(monkeypatch):
    space, h1, h2 = _fem_pair(8, *_fem_pairs(8)["shrink"])
    true_eigsh = hilbert.eigsh

    def perturbed(*args, **kwargs):
        theta, vecs = true_eigsh(*args, **kwargs)
        vecs = vecs + 1e-3 * np.random.default_rng(1).standard_normal(vecs.shape)
        return theta, vecs

    monkeypatch.setattr(hilbert, "eigsh", perturbed)
    with pytest.raises(PencilError, match="certification"):
        sigma_distance(h1, h2)
    with pytest.raises(PencilError, match="certification"):
        sigma_star(h1, h2)
    # the shift-invert eigensolve goes through the same eigsh
    with pytest.raises(PencilError, match="certification"):
        solve_operator_eigs(h1, group_tol=1e-6, n_lowest=8)


# -- lowest eigenpairs of nodal subspaces by Lanczos ---------------------------


def _lanczos_case(n, kind):
    """A nodal subspace whose partial solve runs Lanczos.  ``degenerate`` is
    the square's problem doubled into a block-diagonal pair of copies, so each
    eigenvalue is exactly degenerate; the structured mesh itself splits the
    square's degenerate continuum pairs by O(h^2)."""
    mesh = fem2d.unit_square_mesh(n)
    coeff = CoefficientField.checker(0.5) if kind == "notch_checker" else CoefficientField.identity()
    space = fem2d.assemble(mesh, coeff)
    dom = {
        "shrink": DomainSpec("square_shrink", eps=1.0 / n),
        "notch_checker": DomainSpec("boundary_notch", eps=2.0 / n, anchor=(0.5, 1.0)),
        "degenerate": DomainSpec("square_shrink", eps=0.0),
    }[kind]
    sub = fem2d.carve_subspace(space, mesh, dom)
    if kind == "degenerate":
        block = np.ix_(sub.indices, sub.indices)
        space = EnergySpace(
            sla.block_diag(space.energy_gram[block], space.energy_gram[block]),
            sla.block_diag(space.mass_gram[block], space.mass_gram[block]),
        )
        sub = space.whole()
    return space, sub


def _energy_projector(energy, x):
    return x @ np.linalg.solve(x.T @ energy @ x, x.T @ energy)


@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("kind", ["shrink", "notch_checker", "degenerate"])
def test_nodal_lanczos_eigs_match_dense_oracle(n, kind):
    space, sub = _lanczos_case(n, kind)
    eigs = solve_operator_eigs(sub, group_tol=1e-6, n_lowest=8)
    assert not eigs.complete
    means, bases = oracles.nodal_lowest_eigs(
        space.energy_gram, space.mass_gram, sub.indices, 11, 1e-6
    )
    assert eigs.multiplicities.tolist() == [b.shape[1] for b in bases]
    if kind == "degenerate":
        assert set(eigs.multiplicities.tolist()) == {2}
    assert np.abs(eigs.values / means - 1.0).max() <= 1e-10
    for x, want in zip(eigs.spaces, bases):
        gap = _energy_projector(space.energy_gram, x) - _energy_projector(space.energy_gram, want)
        assert np.abs(gap).max() <= 1e-8


@pytest.mark.parametrize("lowest", [False, True], ids=["highest_copy", "lowest_copy"])
def test_lanczos_completeness_certificate_catches_dropped_copy(monkeypatch, lowest):
    # eigsh returns theta = 1 / lambda: the second of ascending theta is a copy
    # of the highest lambda computed, the second of descending of the lowest
    space, sub = _lanczos_case(12, "degenerate")
    true_eigsh = hilbert.eigsh

    def drop_one_copy(*args, **kwargs):
        theta, vecs = true_eigsh(*args, **kwargs)
        order = np.argsort(-theta if lowest else theta)
        keep = np.delete(order, 1)
        return theta[keep], vecs[:, keep]

    monkeypatch.setattr(hilbert, "eigsh", drop_one_copy)
    with pytest.raises(PencilError, match="Sylvester inertia"):
        solve_operator_eigs(sub, group_tol=1e-6, n_lowest=8)


def test_lanczos_no_convergence_is_pencil_error(monkeypatch):
    space, sub = _lanczos_case(12, "shrink")
    true_eigsh = hilbert.eigsh
    monkeypatch.setattr(hilbert, "eigsh", lambda *a, **k: true_eigsh(*a, maxiter=1, **k))
    with pytest.raises(PencilError, match="Lanczos eigensolve failed") as err:
        solve_operator_eigs(sub, group_tol=1e-6, n_lowest=8)
    assert isinstance(err.value.__cause__, hilbert.ArpackError)


def test_inertia_count_matches_dense_eigenvalue_count():
    space, sub = _lanczos_case(12, "notch_checker")
    a, m = sub.restricted_grams()
    lam = sla.eigh(a.toarray(), m.toarray(), eigvals_only=True)
    shifts = [0.5 * lam[0], *(0.5 * (lam[:-1] + lam[1:]))[[0, 3, 10, 50]], 2.0 * lam[-1]]
    for shift in shifts:
        assert hilbert._count_below(a, m, shift) == np.count_nonzero(lam < shift)
    # a zero diagonal breaks the sparse factor's symmetry: dense LDL' counts
    swap = sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert hilbert._symmetric_pivots(swap) is None
    assert hilbert._count_below(swap, sp.csr_array(np.eye(2)), 0.0) == 1


# -- operator eigendecomposition ----------------------------------------------


def test_diagonal_operator_eigs():
    space = EnergySpace(np.diag([2.0, 8.0]), np.eye(2))
    eigs = solve_operator_eigs(space.whole(), group_tol=1e-6)
    assert np.allclose(eigs.values, [2.0, 8.0])
    assert eigs.multiplicities.tolist() == [1, 1]


def test_grouping_of_near_degenerate():
    space = EnergySpace(np.diag([49.30, 49.31]), np.eye(2))
    eigs = solve_operator_eigs(space.whole(), group_tol=1e-3)
    assert eigs.n_groups == 1
    assert eigs.multiplicities.tolist() == [2]


def test_group_tol_validation():
    space = euclid_space(2)
    with pytest.raises(ValueError):
        solve_operator_eigs(space.whole(), group_tol=0.0)


def test_eigs_match_oracle_and_are_orthonormal():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        space = random_space(rng, n)
        d = int(rng.integers(1, n + 1))
        basis = rng.normal(size=(n, d))
        sub = Subspace.from_basis(space, basis)
        eigs = solve_operator_eigs(sub, group_tol=1e-9)
        oracle = oracles.operator_eigs(space.energy_gram, space.mass_gram, basis)
        assert np.allclose(eigs.flat_values(), oracle, rtol=1e-7)
        for lam_g, x_g, mult in [eigs.group(m) for m in range(1, eigs.n_groups + 1)]:
            gram = x_g.T @ space.energy_gram @ x_g
            assert np.abs(gram - np.eye(mult)).max() < 1e-8


def test_partial_decomposition():
    rng = np.random.default_rng(15)
    space = random_space(rng, 12)
    sub = space.whole()
    full = solve_operator_eigs(sub, group_tol=1e-9)
    part = solve_operator_eigs(sub, group_tol=1e-9, n_lowest=5)
    assert not part.complete
    assert part.n_computed <= 5 + 3
    assert np.allclose(part.values, full.values[: part.n_groups], rtol=1e-9)


# -- complement map, corrector, bridge operator --------------------------------


def test_apply_T2_cases():
    space = euclid_space(2)
    h2 = Subspace.nodal(space, [1])
    phi = np.array([1.0, 0.0])
    assert np.allclose(apply_T2(h2, phi), phi)
    member = np.array([0.0, 2.0])
    assert np.allclose(apply_T2(h2, member), 0.0, atol=1e-12)


def test_apply_T2_vanishes_on_nested():
    rng = np.random.default_rng(16)
    space = random_space(rng, 6)
    h2 = Subspace.nodal(space, [0, 1, 2, 3])
    h1 = Subspace.nodal(space, [1, 2])
    phi = h1.embed(rng.normal(size=2))
    assert space.energy_norm(apply_T2(h2, phi)) < 1e-10


def test_corrector_vanishes_when_nested():
    rng = np.random.default_rng(17)
    space = random_space(rng, 8)
    h1 = Subspace.nodal(space, [0, 1, 2, 3, 4, 5])
    h2 = Subspace.nodal(space, [1, 2, 3])
    eigs = solve_operator_eigs(h1, group_tol=1e-9)
    lam, x_m, _ = eigs.group(1)
    psi = corrector_block(h2, x_m[:, 0], lam)
    assert space.energy_norm(psi) < 1e-9
    psi_same = corrector_block(h1, x_m[:, 0], lam)
    assert space.energy_norm(psi_same) < 1e-9


def test_corrector_defining_equation_and_oracle():
    rng = np.random.default_rng(18)
    for _ in range(10):
        n = int(rng.integers(3, 10))
        space = random_space(rng, n)
        h1 = random_subspace(rng, space, int(rng.integers(1, n)))
        b2 = rng.normal(size=(n, int(rng.integers(1, n))))
        h2 = Subspace.from_basis(space, b2)
        eigs = solve_operator_eigs(h1, group_tol=1e-9)
        lam, x_m, _ = eigs.group(1)
        phi = x_m[:, 0]
        psi = corrector_block(h2, phi, lam)
        # equation tested against every basis vector of h2
        for j in range(h2.dim):
            w = b2[:, j]
            lhs = space.energy_inner(psi, w)
            rhs = space.energy_inner(phi, w) - lam * space.mass_inner(phi, w)
            assert lhs == pytest.approx(rhs, abs=1e-8 * max(1.0, abs(rhs)))
        oracle = oracles.corrector_vector(space.energy_gram, space.mass_gram, b2, phi, lam)
        assert np.allclose(psi, oracle, atol=1e-8)
        assert h2.contains(psi, tol=1e-8)


def test_apply_B_zero_for_identical():
    rng = np.random.default_rng(19)
    space = random_space(rng, 6)
    sub = Subspace.nodal(space, [0, 2, 3])
    v = sub.embed(rng.normal(size=3))
    assert space.energy_norm(apply_B(sub, sub, v)) < 1e-10 * space.energy_norm(v)


def test_apply_B_orthogonal_lines():
    space = euclid_space(2)
    h1, h2 = line(space, 0.0), line(space, np.pi / 2)
    v = np.array([2.0, 0.0])
    # S2 v = 0, so only the -S2 K1 v term survives
    expected = -h2.project_block(h1.apply_k(v))
    assert np.allclose(apply_B(h1, h2, v), expected, atol=1e-12)


def test_apply_B_norm_bound():
    rng = np.random.default_rng(20)
    for _ in range(25):
        n = int(rng.integers(3, 10))
        space = random_space(rng, n)
        h1 = random_subspace(rng, space, int(rng.integers(1, n)))
        h2 = random_subspace(rng, space, int(rng.integers(1, n)))
        sigma = sigma_distance(h1, h2)
        c0 = embedding_constant(space)
        v = h1.basis @ rng.normal(size=h1.dim)
        bv = apply_B(h1, h2, v)
        bound = 2.0 * c0 * np.sqrt(sigma) * space.energy_norm(v)
        assert space.energy_norm(bv) <= bound + 1e-9


def test_apply_B_rejects_outsiders():
    rng = np.random.default_rng(21)
    space = random_space(rng, 5)
    h1 = Subspace.nodal(space, [0, 1])
    h2 = Subspace.nodal(space, [2, 3])
    outsider = np.ones(5)
    with pytest.raises(NotInSubspaceError):
        apply_B(h1, h2, outsider)


def test_apply_B_matches_oracle():
    rng = np.random.default_rng(22)
    for _ in range(10):
        n = int(rng.integers(3, 10))
        space = random_space(rng, n)
        b1 = rng.normal(size=(n, int(rng.integers(1, n))))
        b2 = rng.normal(size=(n, int(rng.integers(1, n))))
        h1 = Subspace.from_basis(space, b1)
        h2 = Subspace.from_basis(space, b2)
        v = b1 @ rng.normal(size=b1.shape[1])
        got = apply_B(h1, h2, v)
        want = oracles.bridge_apply(space.energy_gram, space.mass_gram, b1, b2, v)
        assert np.allclose(got, want, atol=1e-8 * max(1.0, np.abs(want).max()))


# -- rho and rho0 ---------------------------------------------------------------


def test_rho_zero_for_identical():
    rng = np.random.default_rng(23)
    space = random_space(rng, 6)
    sub = Subspace.nodal(space, [0, 1, 2, 3])
    eigs = solve_operator_eigs(sub, group_tol=1e-9)
    lam, x_m, _ = eigs.group(1)
    images = eigenspace_images(sub, sub, x_m, lam, intersection_subspace(sub, sub))
    assert compute_rho(images, sigma=0.0) == pytest.approx(0.0, abs=1e-12)
    assert compute_rho0(images) == pytest.approx(0.0, abs=1e-12)


def test_rho_scalar_case_matches_direct():
    rng = np.random.default_rng(24)
    space = random_space(rng, 7)
    h1 = Subspace.nodal(space, [0, 1, 2, 3, 4])
    h2 = Subspace.nodal(space, [1, 2, 4, 5])
    eigs = solve_operator_eigs(h1, group_tol=1e-9)
    lam, x_m, mult = eigs.group(1)
    assert mult == 1
    sigma = sigma_distance(h1, h2)
    phi = x_m[:, 0]
    t_phi = apply_T2(h2, phi)
    psi = corrector_block(h2, phi, lam)
    direct = (
        sigma * space.energy_norm(psi) ** 2
        + space.mass_norm(t_phi) ** 2
        + space.mass_norm(psi) ** 2
    )
    images = eigenspace_images(h1, h2, x_m, lam, intersection_subspace(h1, h2))
    assert compute_rho(images, sigma) == pytest.approx(direct, rel=1e-10)


def test_rho_matches_sphere_grid():
    # mass eigenvalues engineered so the first group is exactly 3-dimensional
    mass = np.diag([0.5, 0.5, 0.5, 0.2, 0.15, 0.1, 0.08, 0.05, 0.04])
    space = EnergySpace(np.eye(9), mass)
    h1 = space.whole()
    h2 = Subspace.nodal(space, [0, 2, 3, 5, 6])
    eigs = solve_operator_eigs(h1, group_tol=1e-6)
    lam, x_m, mult = eigs.group(1)
    assert mult == 3
    sigma = sigma_distance(h1, h2)
    t_block = x_m - h2.project_block(x_m)
    psi_block = corrector_block(h2, x_m, lam)
    grid = oracles.rho_grid(space.energy_gram, space.mass_gram, t_block, psi_block, sigma)
    images = eigenspace_images(h1, h2, x_m, lam, intersection_subspace(h1, h2))
    assert compute_rho(images, sigma) == pytest.approx(grid, rel=2e-3)


def test_rho0_nested_equals_T2_form():
    rng = np.random.default_rng(26)
    space = random_space(rng, 8)
    h1 = Subspace.nodal(space, [0, 1, 2, 3, 4, 5])
    h2 = Subspace.nodal(space, [1, 3, 5])
    eigs = solve_operator_eigs(h1, group_tol=1e-9)
    lam, x_m, _ = eigs.group(1)
    # intersection is H2, so T0 phi = T2 phi on the eigenspace
    inter = intersection_subspace(h1, h2)
    t2 = x_m[:, 0] - h2.project_block(x_m[:, 0])
    t0 = x_m[:, 0] - inter.project_block(x_m[:, 0])
    assert np.allclose(t0, t2, atol=1e-10)
    psi = corrector_block(h2, x_m[:, 0], lam)
    want = space.energy_norm(t0) ** 2 + space.energy_norm(psi) ** 2
    assert compute_rho0(eigenspace_images(h1, h2, x_m, lam, inter)) == pytest.approx(want, rel=1e-9)
