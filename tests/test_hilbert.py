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
    SubspacePair,
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
    return Subspace.nodal(space, rng.choice(space.dim, size=d, replace=False))


def coordinate_basis(sub):
    """The identity columns that span a subspace, for the dense oracles."""
    return np.eye(sub.parent.dim)[:, sub.indices]


def rotated_lines(theta):
    """The lines at angles 0 and theta of the Euclidean plane, as the
    coordinate pair {0}, {1} after the congruence A = M = B'B with
    B = [[1, cos theta], [0, sin theta]], whose columns span the lines."""
    b = np.array([[1.0, np.cos(theta)], [0.0, np.sin(theta)]])
    space = EnergySpace(b.T @ b, b.T @ b)
    return Subspace.nodal(space, [0]), Subspace.nodal(space, [1])


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
    u = sub.embed(rng.normal(size=3))
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
    with pytest.raises(DimensionMismatchError, match="out of range"):
        Subspace.nodal(space, [0, 3])
    with pytest.raises(SubspaceRankError, match="nonempty"):
        Subspace.nodal(space, [])


@pytest.mark.parametrize("indices", [[0.5, 2.9], [True, False, True]], ids=["float", "mask"])
def test_nodal_indices_refuse_non_integer_dtypes(indices):
    # a cast would read the floats as [0, 2] and the mask as the indices [0, 1]
    with pytest.raises(DimensionMismatchError, match="integers"):
        Subspace.nodal(euclid_space(3), indices)


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


def test_projection_matches_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        space = random_space(rng, n)
        sub = random_subspace(rng, space, int(rng.integers(1, n + 1)))
        s_mat = oracles.projector_matrix(space.energy_gram, coordinate_basis(sub))
        u = rng.normal(size=n)
        assert np.allclose(sub.project_block(u), s_mat @ u, atol=1e-9)


def test_cross_symmetry_property():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(3, 10))
        space = random_space(rng, n)
        h1 = random_subspace(rng, space, int(rng.integers(1, n)))
        h2 = random_subspace(rng, space, int(rng.integers(1, n)))
        v = h1.embed(rng.normal(size=h1.dim))
        w = h2.embed(rng.normal(size=h2.dim))
        lhs = space.energy_inner(h2.project_block(v), w)
        rhs = space.energy_inner(v, h1.project_block(w))
        scale = max(space.energy_norm(v) * space.energy_norm(w), 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-10 * scale)


# -- sigma --------------------------------------------------------------------


def test_sigma_zero_for_identical():
    rng = np.random.default_rng(6)
    space = random_space(rng, 5)
    sub = random_subspace(rng, space, 2)
    assert sigma_distance(SubspacePair(sub, sub)) == 0.0
    pair = SubspacePair(Subspace.nodal(space, [1, 3]), Subspace.nodal(space, [3, 1]))
    assert pair.direction == "equal" and sigma_distance(pair) == 0.0


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(min_value=0.02, max_value=np.pi / 2))
def test_sigma_rotated_line_closed_form(theta):
    h1, h2 = rotated_lines(theta)
    assert sigma_distance(SubspacePair(h1, h2)) == pytest.approx(np.sin(theta) ** 2, rel=1e-9)


def test_sigma_orthogonal_lines_is_one():
    h1, h2 = rotated_lines(np.pi / 2)
    assert sigma_distance(SubspacePair(h1, h2)) == pytest.approx(1.0)


def test_sigma_symmetry_and_triangle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        space = random_space(rng, n)
        subs = [random_subspace(rng, space, int(rng.integers(1, n))) for _ in range(3)]
        s12 = sigma_distance(SubspacePair(subs[0], subs[1]))
        s21 = sigma_distance(SubspacePair(subs[1], subs[0]))
        assert s12 == pytest.approx(s21, rel=1e-9, abs=1e-12)
        s13 = sigma_distance(SubspacePair(subs[0], subs[2]))
        s23 = sigma_distance(SubspacePair(subs[1], subs[2]))
        assert np.sqrt(s13) <= np.sqrt(s12) + np.sqrt(s23) + 1e-9


def test_sigma_matches_grid_oracle():
    rng = np.random.default_rng(8)
    for _ in range(8):
        n = int(rng.integers(3, 8))
        space = random_space(rng, n)
        h1, h2 = (random_subspace(rng, space, int(rng.integers(1, 3))) for _ in range(2))
        val = sigma_distance(SubspacePair(h1, h2))
        grid = oracles.sigma_grid(
            space.energy_gram, space.mass_gram, coordinate_basis(h1), coordinate_basis(h2)
        )
        assert grid == pytest.approx(val, rel=1e-3, abs=1e-6)


def test_sigma_nodal_fast_path_matches_general():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        space = random_space(rng, n)
        i1 = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        i2 = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        nodal = sigma_distance(
            SubspacePair(Subspace.nodal(space, i1), Subspace.nodal(space, i2))
        )
        # the general formula on identity columns: the top eigenvalue of
        # (D' M D, A) over the whole space, with explicit projectors in D
        eye = np.eye(n)
        d = oracles.projector_matrix(space.energy_gram, eye[:, i1]) - oracles.projector_matrix(
            space.energy_gram, eye[:, i2]
        )
        general = oracles.pencil_eigs(d.T @ space.mass_gram @ d, space.energy_gram)[-1]
        assert nodal == pytest.approx(general, rel=1e-8, abs=1e-10)


def test_shared_parent_required():
    s1, s2 = euclid_space(3), euclid_space(3)
    with pytest.raises(ValueError, match="parent"):
        SubspacePair(Subspace.nodal(s1, [0]), Subspace.nodal(s2, [0]))


# -- sigma* and intersection --------------------------------------------------


def test_sigma_star_identical_subspaces():
    rng = np.random.default_rng(10)
    space = random_space(rng, 6)
    sub = Subspace.nodal(space, [0, 2, 4])
    assert sigma_star(SubspacePair(sub, sub)) == 0.0


def test_sigma_star_rotated_lines():
    h1, h2 = rotated_lines(0.7)
    # sum is the plane, intersection trivial: best constant over R^2 is 1
    assert sigma_star(SubspacePair(h1, h2)) == pytest.approx(1.0, rel=1e-9)


def test_sigma_le_four_sigma_star_random():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(3, 10))
        space = random_space(rng, n)
        h1 = random_subspace(rng, space, int(rng.integers(1, n)))
        h2 = random_subspace(rng, space, int(rng.integers(1, n)))
        pair = SubspacePair(h1, h2)
        assert sigma_distance(pair) <= 4.0 * sigma_star(pair) + 1e-10


def test_intersection_nodal_combinatorial():
    space = euclid_space(6)
    h1 = Subspace.nodal(space, [0, 1, 2, 3])
    h2 = Subspace.nodal(space, [2, 3, 4])
    inter = intersection_subspace(h1, h2)
    assert inter.indices.tolist() == [2, 3]
    assert SubspacePair(h1, h2).union.indices.tolist() == [0, 1, 2, 3, 4]
    assert intersection_subspace(Subspace.nodal(space, [0]), Subspace.nodal(space, [5])) is None
    # a nested pair's union and intersection are its operands, whose factors
    # it shares
    h3 = Subspace.nodal(space, [1, 2])
    for pair in (SubspacePair(h1, h3), SubspacePair(h3, h1)):
        assert pair.union is h1 and pair.inter is h3


def test_sigma_star_nodal_matches_general():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        space = random_space(rng, n)
        i1 = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        i2 = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        nodal = sigma_star(
            SubspacePair(Subspace.nodal(space, i1), Subspace.nodal(space, i2))
        )
        eye = np.eye(n)
        # the general formula on identity columns, by principal angles and SVDs
        general = oracles.sigma_star_direct(
            space.energy_gram, space.mass_gram, eye[:, i1], eye[:, i2]
        )
        assert nodal == pytest.approx(general, rel=1e-8, abs=1e-10)


def test_sigma_star_matches_direct_oracle():
    rng = np.random.default_rng(27)
    for _ in range(10):
        n = int(rng.integers(3, 10))
        space = random_space(rng, n)
        h1, h2 = (random_subspace(rng, space, int(rng.integers(1, 4))) for _ in range(2))
        val = sigma_star(SubspacePair(h1, h2))
        want = oracles.sigma_star_direct(
            space.energy_gram, space.mass_gram, coordinate_basis(h1), coordinate_basis(h2)
        )
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
    pair = SubspacePair(h1, h2)
    sigma, star = sigma_distance(pair), sigma_star(pair)
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
        sigma_distance(SubspacePair(h1, h2))
    with pytest.raises(PencilError, match="certification"):
        sigma_star(SubspacePair(h1, h2))
    # the shift-invert eigensolve goes through the same eigsh
    with pytest.raises(PencilError, match="certification"):
        solve_operator_eigs(h1, group_tol=1e-6, n_lowest=8)


@pytest.mark.parametrize("kind", ["shrink", "expand", "notches"])
def test_nodal_sigmas_solve_only_with_the_intersection(monkeypatch, kind):
    # a nested pair's union is its larger operand, whose projector is the
    # identity on the union coordinates, and so is the union of sigma*'s
    # difference: those pencils need only the solves of the intersection
    space, h1, h2 = _fem_pair(12, *_fem_pairs(12)[kind])
    inter = np.intersect1d(h1.indices, h2.indices)
    solved = []
    true_solve = Subspace._solve

    def spy(self, rhs):
        solved.append(self.indices)
        return true_solve(self, rhs)

    monkeypatch.setattr(Subspace, "_solve", spy)
    if kind != "notches":
        sigma_distance(SubspacePair(h1, h2))
    sigma_star(SubspacePair(h1, h2))
    assert solved
    assert all(np.array_equal(indices, inter) for indices in solved)


def test_whole_space_shares_the_parent_factor(monkeypatch):
    space, whole, h2 = _fem_pair(12, *_fem_pairs(12)["shrink"])
    assert whole.dim == space.dim
    for sub in (whole, space.whole()):
        assert sub._restricted_energy_solve.__self__ is space._energy_lu
    rhs = np.random.default_rng(0).standard_normal((space.dim, 3))
    fresh = hilbert._symmetric_splu(whole._energy_block).solve(rhs)
    assert np.array_equal(whole._solve(rhs), fresh)
    # a crossing pair's union is neither operand, and is factored on its own
    space, h1, h2 = _fem_pair(12, *_fem_pairs(12)["notches"])
    union = np.union1d(h1.indices, h2.indices)
    assert h1.dim < union.size < space.dim and h2.dim < union.size
    factored = []
    true_splu = hilbert._symmetric_splu

    def spy(mat):
        factored.append(mat.shape[0])
        return true_splu(mat)

    monkeypatch.setattr(hilbert, "_symmetric_splu", spy)
    sigma_distance(SubspacePair(h1, h2))
    assert sorted(factored) == sorted([h1.dim, h2.dim, union.size])


@pytest.mark.parametrize("kind", ["shrink", "expand", "notches"])
def test_nested_lanczos_step_makes_one_inner_solve(monkeypatch, kind):
    # when the union is an operand, Lanczos applies P' M alone: one solve with
    # the inner factor per operator application, and two for the
    # certificate's full numerator P' M P
    space, h1, h2 = _fem_pair(12, *_fem_pairs(12)[kind])
    solves, steps = [], []
    true_solve, true_lanczos = Subspace._solve, hilbert._lanczos_top

    def spy_solve(self, rhs):
        solves.append(self.dim)
        return true_solve(self, rhs)

    def spy_lanczos(sub, matvec, *rest):
        def counted(coords):
            steps.append(None)
            return matvec(coords)

        return true_lanczos(sub, counted, *rest)

    monkeypatch.setattr(Subspace, "_solve", spy_solve)
    monkeypatch.setattr(hilbert, "_lanczos_top", spy_lanczos)
    if kind == "notches":
        sigma_star(SubspacePair(h1, h2))
    else:
        sigma_distance(SubspacePair(h1, h2))
    assert steps
    assert len(solves) == len(steps) + 2
    assert set(solves) == {np.intersect1d(h1.indices, h2.indices).size}


@pytest.mark.parametrize("swap", [False, True], ids=["whole_first", "notch_first"])
@pytest.mark.parametrize("cells, rank", [(1, 3), (2, 8)])
def test_rank_deficient_nested_sigmas_match_dense_oracle(cells, rank, swap):
    # the pencil's rank |U| - |inner| lies below ARPACK's Krylov size of 20,
    # so Lanczos exhausts range(P) and restarts
    n = 12
    mesh = fem2d.unit_square_mesh(n)
    space = fem2d.assemble(mesh, CoefficientField.checker(0.5))
    notch = fem2d.carve_subspace(
        space, mesh, DomainSpec("boundary_notch", eps=cells / n, anchor=(0.5, 1.0))
    )
    whole = space.whole()
    assert whole.dim - notch.dim == rank
    h1, h2 = (notch, whole) if swap else (whole, notch)
    want_sigma, want_star = oracles.nodal_sigmas(
        space.energy_gram, space.mass_gram, h1.indices, h2.indices
    )
    assert sigma_distance(SubspacePair(h1, h2)) == pytest.approx(want_sigma, rel=1e-10)
    assert sigma_star(SubspacePair(h1, h2)) == pytest.approx(want_star, rel=1e-10)


def test_crossing_pair_factors_each_index_set_once(monkeypatch):
    # after the reference solve has factored H1, the images, sigma and sigma*
    # of the h=1/12 crossing notches factor H2, the intersection and the
    # union once each: the pair holds one union and one intersection
    space, h1, h2 = _fem_pair(12, *_fem_pairs(12)["notches"])
    lam, x_m, _ = solve_operator_eigs(h1, group_tol=1e-6, n_lowest=4).group(1)
    factored = []
    true_splu = hilbert._symmetric_splu

    def spy(mat):
        factored.append(mat.shape[0])
        return true_splu(mat)

    monkeypatch.setattr(hilbert, "_symmetric_splu", spy)
    pair = SubspacePair(h1, h2)
    assert pair.direction == "none"
    eigenspace_images(pair, x_m, lam)
    sigma_distance(pair)
    sigma_star(pair)
    assert factored == [h2.dim, pair.inter.dim, pair.union.dim] == [113, 107, 119]


def test_a_j_by_n_block_is_refused_not_transposed():
    # blocks are N x J (or one vector); a J x N block with J != N raises
    mesh = fem2d.unit_square_mesh(8)
    space = fem2d.assemble(mesh, CoefficientField.identity())
    eigs = solve_operator_eigs(space.whole(), group_tol=1e-6)
    lam = float(eigs.values[0])
    x_m = np.hstack([eigs.spaces[0], eigs.spaces[1]])[:, :2]
    shrunk = fem2d.carve_subspace(space, mesh, DomainSpec("square_shrink", eps=1.0 / 8.0))
    pair = SubspacePair(space.whole(), shrunk)
    column = eigenspace_images(pair, x_m[:, 0], lam)
    assert np.array_equal(column.t_a_t, eigenspace_images(pair, x_m[:, :1], lam).t_a_t)
    with pytest.raises(DimensionMismatchError):
        eigenspace_images(pair, x_m.T, lam)
    region = np.arange(mesh.n_triangles)
    form = fem2d.gradient_energy_form(space, mesh, region, x_m)
    assert form.shape == (2, 2)
    with pytest.raises(DimensionMismatchError):
        fem2d.gradient_energy_form(space, mesh, region, x_m.T)


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


def _count_lanczos(monkeypatch):
    """Record the subspace dimension of every ARPACK solve."""
    dims = []
    true_lanczos = hilbert._lanczos_top

    def spy(sub, *rest):
        dims.append(sub.dim)
        return true_lanczos(sub, *rest)

    monkeypatch.setattr(hilbert, "_lanczos_top", spy)
    return dims


@pytest.mark.parametrize("dofs", [20, 21])
def test_sigma_solves_dense_up_to_the_krylov_size(monkeypatch, dofs):
    # k = 1: scipy's default Krylov size is max(2 k + 1, 20) = 20, so a union
    # of 20 dofs solves the complete dense pencil and one of 21 runs Lanczos
    rng = np.random.default_rng(30)
    space = random_space(rng, 24)
    h1, h2 = Subspace.nodal(space, range(15)), Subspace.nodal(space, range(dofs - 15, dofs))
    pair = SubspacePair(h1, h2)
    assert pair.direction == "none" and pair.union.dim == dofs
    lanczos = _count_lanczos(monkeypatch)
    want_sigma, want_star = oracles.nodal_sigmas(
        space.energy_gram, space.mass_gram, h1.indices, h2.indices
    )
    assert sigma_distance(pair) == pytest.approx(want_sigma, rel=1e-9)
    assert sigma_star(pair) == pytest.approx(want_star, rel=1e-9)
    assert lanczos == ([] if dofs == 20 else [dofs, dofs])


@pytest.mark.parametrize("dofs", [20, 21])
def test_lowest_eigs_solve_dense_up_to_the_krylov_size(monkeypatch, dofs):
    # n_lowest = 6 asks k = 9 pairs: dense up to max(2 k + 1, 20) = 20 dofs
    rng = np.random.default_rng(31)
    space = random_space(rng, 24)
    sub = Subspace.nodal(space, range(dofs))
    lanczos = _count_lanczos(monkeypatch)
    eigs = solve_operator_eigs(sub, group_tol=1e-9, n_lowest=6)
    want = oracles.operator_eigs(space.energy_gram, space.mass_gram, coordinate_basis(sub))
    assert eigs.complete == (dofs == 20)
    assert lanczos == ([] if dofs == 20 else [dofs])
    assert eigs.n_computed == (dofs if eigs.complete else eigs.n_groups)
    assert eigs.n_groups >= 6
    assert np.abs(eigs.values / want[: eigs.n_groups] - 1.0).max() <= 1e-9


def test_corrupted_dense_top_pair_fails_the_one_certificate(monkeypatch):
    # _top_eigs certifies nothing, so the caller's one certificate must catch
    # a dense pair bent by 1e-6 relative
    # (test_nodal_sigma_certificate_rejects_wrong_eigenvector bends Lanczos pairs)
    space = random_space(np.random.default_rng(33), 12)
    h1, h2 = Subspace.nodal(space, range(8)), Subspace.nodal(space, range(2, 12))
    true_top = hilbert._top_eigs

    def corrupted(*args):
        theta, vecs, complete = true_top(*args)
        noise = np.random.default_rng(2).standard_normal(vecs.shape[0])
        vecs[:, 0] += 1e-6 * np.linalg.norm(vecs[:, 0]) * noise / np.linalg.norm(noise)
        return theta, vecs, complete

    monkeypatch.setattr(hilbert, "_top_eigs", corrupted)
    with pytest.raises(PencilError, match="eigenpair residual certification failed"):
        solve_operator_eigs(space.whole(), group_tol=1e-9, n_lowest=4)
    with pytest.raises(PencilError, match="eigenpair residual certification failed"):
        sigma_distance(SubspacePair(h1, h2))


@pytest.mark.parametrize("kind", ["crossing", "nested"])
def test_small_union_sigma_is_the_largest_eigenvalue(monkeypatch, kind):
    # the pencil's second eigenpair is an eigenpair, so it passes the residual
    # certificate; a union of at most 20 dofs is solved completely, and its
    # sigma is the largest eigenvalue whatever ARPACK would return
    rng = np.random.default_rng(32)
    space = random_space(rng, 10)
    outer, inner = (range(6), range(3, 10)) if kind == "crossing" else (range(10), range(4))
    h1, h2 = Subspace.nodal(space, outer), Subspace.nodal(space, inner)
    true_lanczos = hilbert._lanczos_top

    def second_pair(sub, matvec, k):
        theta, vecs = true_lanczos(sub, matvec, k + 1)  # ascending
        return theta[:k], vecs[:, :k]

    monkeypatch.setattr(hilbert, "_lanczos_top", second_pair)
    want, _ = oracles.nodal_sigmas(space.energy_gram, space.mass_gram, h1.indices, h2.indices)
    assert sigma_distance(SubspacePair(h1, h2)) == pytest.approx(want, rel=1e-9)


def test_inertia_count_matches_dense_eigenvalue_count():
    space, sub = _lanczos_case(12, "notch_checker")
    a, m = sub.restricted_grams()
    lam = sla.eigh(a.toarray(), m.toarray(), eigvals_only=True)
    idx = np.array([0, 3, 10, 50])
    gaps = [(0.0, lam[0]), *zip(lam[idx], lam[idx + 1]), (lam[-1], 3.0 * lam[-1])]
    for lo, hi in gaps:
        assert hilbert._count_below(a, m, (lo, hi)) == np.count_nonzero(lam <= lo)
    # a zero diagonal breaks the sparse factor's symmetry at the midpoint 0,
    # so the count is read at another shift inside the gap
    swap = sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert hilbert._symmetric_factor(swap) is None
    assert hilbert._count_below(swap, sp.csr_array(np.eye(2)), (-1.0, 1.0)) == 1


def test_inertia_and_definiteness_need_no_dense_matrix(sparse_only, monkeypatch):
    # the midpoint of the swap pencil's gap gives no symmetric sparse factor
    swap = sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert hilbert._count_below(swap, sp.csr_array(np.eye(2)), (-1.0, 1.0)) == 1
    with pytest.raises(NotPositiveDefiniteError, match="energy_gram") as err:
        EnergySpace(np.diag([1.0, -1.0]), np.eye(2))
    assert err.value.smallest_eig == -1.0
    # no shift inside the gap gives symmetric pivots: the count is refused
    monkeypatch.setattr(hilbert, "_symmetric_factor", lambda mat: None)
    with pytest.raises(PencilError, match=r"gap \(-1.000000e\+00, 1.000000e\+00\)"):
        hilbert._count_below(swap, sp.csr_array(np.eye(2)), (-1.0, 1.0))


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


def test_group_certificate_widens_only_its_own_columns(monkeypatch):
    # eigenvalues 1 and 1.1 form one group whose spread in the reciprocal
    # scale (about 0.048) is part of its own columns' allowance; the simple
    # group at 4 keeps the bare 1e-8 allowance, so a defect of 1e-4 in K x
    # passes in the pair and is rejected in the simple group, and one of 0.1
    # in one column of the pair is rejected
    space = EnergySpace(np.diag([1.0, 1.1, 4.0]), np.eye(3))
    true_certify = hilbert._certify_group

    def corrupting(width, defect):
        def certify(a_res, block, k_block, lam_g, spread):
            if block.shape[1] == width:
                k_block = k_block.copy()
                k_block[:, -1] += defect * np.linalg.norm(k_block[:, -1])
            true_certify(a_res, block, k_block, lam_g, spread)

        return certify

    monkeypatch.setattr(hilbert, "_certify_group", corrupting(2, 1e-4))
    assert solve_operator_eigs(space.whole(), group_tol=0.2).multiplicities.tolist() == [2, 1]
    for width, defect in ((1, 1e-4), (2, 0.1)):
        monkeypatch.setattr(hilbert, "_certify_group", corrupting(width, defect))
        with pytest.raises(PencilError, match="eigenrelation residual"):
            solve_operator_eigs(space.whole(), group_tol=0.2)


def test_group_tol_validation():
    space = euclid_space(2)
    with pytest.raises(ValueError):
        solve_operator_eigs(space.whole(), group_tol=0.0)


def test_eigs_match_oracle_and_are_orthonormal():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        space = random_space(rng, n)
        sub = random_subspace(rng, space, int(rng.integers(1, n + 1)))
        eigs = solve_operator_eigs(sub, group_tol=1e-9)
        oracle = oracles.operator_eigs(space.energy_gram, space.mass_gram, coordinate_basis(sub))
        assert np.allclose(eigs.flat_values(), oracle, rtol=1e-7)
        for lam_g, x_g, mult in [eigs.group(m) for m in range(1, eigs.n_groups + 1)]:
            gram = x_g.T @ space.energy_gram @ x_g
            assert np.abs(gram - np.eye(mult)).max() < 1e-8


def _check_partial_against_full(sub, n_lowest):
    full = solve_operator_eigs(sub, group_tol=1e-9)
    part = solve_operator_eigs(sub, group_tol=1e-9, n_lowest=n_lowest)
    assert not part.complete
    assert part.n_computed <= n_lowest + 3
    assert np.allclose(part.values, full.values[: part.n_groups], rtol=1e-9)


def test_partial_decomposition():
    # n_lowest = 5 asks 8 pairs, which Lanczos serves above max(2 * 8 + 1, 20) dofs
    rng = np.random.default_rng(15)
    _check_partial_against_full(random_space(rng, 24).whole(), n_lowest=5)


@pytest.mark.parametrize("kind", ["nodal_small"])
def test_partial_decomposition_dense(kind):
    # a request on at most max(2 (n_lowest + 3) + 1, 20) dofs, where ARPACK's
    # Krylov space would be the whole subspace, solves the complete dense
    # pencil and returns all of it
    rng = np.random.default_rng(15)
    space = random_space(rng, 12)
    sub = Subspace.nodal(space, range(9))
    full = solve_operator_eigs(sub, group_tol=1e-9)
    part = solve_operator_eigs(sub, group_tol=1e-9, n_lowest=5)
    assert part.complete and part.n_computed == sub.dim
    assert np.array_equal(part.values, full.values)
    assert np.array_equal(part.multiplicities, full.multiplicities)


def test_partial_solve_that_separates_no_group_asks_for_more():
    # the eigenvalues 1/m run from 1 to 10 in relative steps far below
    # group_tol = 0.5, so the 5 pairs a request for 2 computes are one chain
    # that may continue past them: no group is proved complete
    space = EnergySpace(np.eye(30), np.diag(np.linspace(1.0, 0.1, 30)))
    with pytest.raises(PencilError, match="cannot separate a trailing eigenvalue group"):
        solve_operator_eigs(space.whole(), group_tol=0.5, n_lowest=2)


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
        h2 = random_subspace(rng, space, int(rng.integers(1, n)))
        b2 = coordinate_basis(h2)
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
    assert space.energy_norm(apply_B(SubspacePair(sub, sub), v)) < 1e-10 * space.energy_norm(v)


def test_apply_B_orthogonal_lines():
    h1, h2 = rotated_lines(np.pi / 2)
    v = np.array([2.0, 0.0])
    # S2 v = 0, so only the -S2 K1 v term survives
    expected = -h2.project_block(h1.apply_k(v))
    assert np.allclose(apply_B(SubspacePair(h1, h2), v), expected, atol=1e-12)


def test_apply_B_norm_bound():
    rng = np.random.default_rng(20)
    for _ in range(25):
        n = int(rng.integers(3, 10))
        space = random_space(rng, n)
        h1 = random_subspace(rng, space, int(rng.integers(1, n)))
        h2 = random_subspace(rng, space, int(rng.integers(1, n)))
        sigma = sigma_distance(SubspacePair(h1, h2))
        c0 = embedding_constant(space)
        v = h1.embed(rng.normal(size=h1.dim))
        bv = apply_B(SubspacePair(h1, h2), v)
        bound = 2.0 * c0 * np.sqrt(sigma) * space.energy_norm(v)
        assert space.energy_norm(bv) <= bound + 1e-9


def test_apply_B_rejects_outsiders():
    rng = np.random.default_rng(21)
    space = random_space(rng, 5)
    h1 = Subspace.nodal(space, [0, 1])
    h2 = Subspace.nodal(space, [2, 3])
    outsider = np.ones(5)
    with pytest.raises(NotInSubspaceError):
        apply_B(SubspacePair(h1, h2), outsider)


def test_apply_B_matches_oracle():
    rng = np.random.default_rng(22)
    for _ in range(10):
        n = int(rng.integers(3, 10))
        space = random_space(rng, n)
        h1 = random_subspace(rng, space, int(rng.integers(1, n)))
        h2 = random_subspace(rng, space, int(rng.integers(1, n)))
        v = h1.embed(rng.normal(size=h1.dim))
        got = apply_B(SubspacePair(h1, h2), v)
        want = oracles.bridge_apply(
            space.energy_gram, space.mass_gram, coordinate_basis(h1), coordinate_basis(h2), v
        )
        assert np.allclose(got, want, atol=1e-8 * max(1.0, np.abs(want).max()))


# -- rho and rho0 ---------------------------------------------------------------


def test_rho_zero_for_identical():
    rng = np.random.default_rng(23)
    space = random_space(rng, 6)
    sub = Subspace.nodal(space, [0, 1, 2, 3])
    eigs = solve_operator_eigs(sub, group_tol=1e-9)
    lam, x_m, _ = eigs.group(1)
    images = eigenspace_images(SubspacePair(sub, sub), x_m, lam)
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
    sigma = sigma_distance(SubspacePair(h1, h2))
    phi = x_m[:, 0]
    t_phi = apply_T2(h2, phi)
    psi = corrector_block(h2, phi, lam)
    direct = (
        sigma * space.energy_norm(psi) ** 2
        + space.mass_norm(t_phi) ** 2
        + space.mass_norm(psi) ** 2
    )
    images = eigenspace_images(SubspacePair(h1, h2), x_m, lam)
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
    sigma = sigma_distance(SubspacePair(h1, h2))
    t_block = x_m - h2.project_block(x_m)
    psi_block = corrector_block(h2, x_m, lam)
    grid = oracles.rho_grid(space.energy_gram, space.mass_gram, t_block, psi_block, sigma)
    images = eigenspace_images(SubspacePair(h1, h2), x_m, lam)
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
    images = eigenspace_images(SubspacePair(h1, h2), x_m, lam)
    assert compute_rho0(images) == pytest.approx(want, rel=1e-9)


def test_rho0_expand_is_the_corrector_form():
    # H1 inside H2: the intersection is H1, which holds X, so T0 X = 0 and
    # rho0 is the largest eigenvalue of Psi' A Psi alone
    rng = np.random.default_rng(27)
    space = random_space(rng, 8)
    h1 = Subspace.nodal(space, [1, 3, 5])
    h2 = Subspace.nodal(space, [0, 1, 2, 3, 5, 6])
    eigs = solve_operator_eigs(h1, group_tol=1e-9)
    lam, x_m, _ = eigs.group(1)
    inter = intersection_subspace(h1, h2)
    assert inter is h1
    t0 = x_m - inter.project_block(x_m)
    assert np.abs(t0).max() < 1e-12 * np.abs(x_m).max()
    images = eigenspace_images(SubspacePair(h1, h2), x_m, lam)
    assert not images.t0_a_t0.any()
    psi = corrector_block(h2, x_m[:, 0], lam)
    assert compute_rho0(images) == pytest.approx(space.energy_norm(psi) ** 2, rel=1e-9)


# -- the congruence that makes index sets cover every pair ----------------------


def test_adapted_basis_congruence_matches_dense_oracles():
    # explicit bases b1 = [s, r1] and b2 = [s, r2], sharing the direction s,
    # are the coordinate spans I1, I2 of the adapted basis B = [s, r1, r2, c];
    # each quantity of the coordinate pair in (B'AB, B'MB) is the dense one
    # of the explicit pair in (A, M), mapped back through B
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = int(rng.integers(5, 10))
        w1, w2 = (int(w) for w in rng.integers(1, 3, size=2))
        ambient = random_space(rng, n)
        energy, mass = ambient.energy_gram, ambient.mass_gram
        b = rng.normal(size=(n, n))
        i1, i2 = np.arange(1 + w1), np.r_[0, 1 + w1 : 1 + w1 + w2]
        b1, b2 = b[:, i1], b[:, i2]
        space = EnergySpace(b.T @ energy @ b, b.T @ mass @ b)
        h1, h2 = Subspace.nodal(space, i1), Subspace.nodal(space, i2)
        assert intersection_subspace(h1, h2).indices.tolist() == [0]

        d = oracles.projector_matrix(energy, b1) - oracles.projector_matrix(energy, b2)
        want = oracles.pencil_eigs(d.T @ mass @ d, energy)[-1]
        assert sigma_distance(SubspacePair(h1, h2)) == pytest.approx(want, rel=1e-8)
        want = oracles.sigma_star_direct(energy, mass, b1, b2)
        assert sigma_star(SubspacePair(h1, h2)) == pytest.approx(want, rel=1e-8)

        coeffs = rng.normal(size=h1.dim)
        got = b @ apply_B(SubspacePair(h1, h2), h1.embed(coeffs))
        want = oracles.bridge_apply(energy, mass, b1, b2, b1 @ coeffs)
        assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()

        eigs = solve_operator_eigs(h1, group_tol=1e-9)
        want = oracles.operator_eigs(energy, mass, b1)
        assert eigs.flat_values() == pytest.approx(want, rel=1e-8)
        for lam, x, _ in (eigs.group(g) for g in range(1, eigs.n_groups + 1)):
            phi = b @ x  # the eigenvectors in the original coordinates
            resid = b1.T @ (energy @ phi - lam * (mass @ phi))
            assert np.abs(resid).max() <= 1e-8 * np.abs(b1.T @ (energy @ phi)).max()
