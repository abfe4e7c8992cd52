import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eigenshift import hilbert
from eigenshift.eigsolve import NotPositiveDefiniteError
from eigenshift.fem2d import (
    BackgroundMesh,
    CoefficientField,
    DomainSpec,
    MeshError,
    assemble,
    carve_subspace,
    collar_elements,
    gradient_energy_form,
    region_area,
    suggested_group_tol,
    symmetric_difference_area,
    unit_square_mesh,
)
from eigenshift.hilbert import EnergySpace, Subspace, solve_operator_eigs

import oracles

PI2_2 = 2.0 * np.pi**2
PI2_5 = 5.0 * np.pi**2
PI2_8 = 8.0 * np.pi**2


def reference_triangle_matrices():
    """Local matrices with A = I of the first triangle of the h = 1/2 grid,
    (0,0), (1/2,0), (1/2,1/2).  Taken in the vertex order 2nd, 3rd, 1st, it
    is the reference triangle (0,0), (1,0), (0,1) turned a quarter and
    halved: the stiffness is invariant under both, and the mass scales with
    the area, here rescaled to the reference area 1/2."""
    from eigenshift.fem2d import _element_matrices

    mesh = unit_square_mesh(2)
    mats = np.repeat(np.eye(2)[None], mesh.n_triangles, axis=0)
    stiff, mass = _element_matrices(mesh, mats)
    order = np.ix_([1, 2, 0], [1, 2, 0])
    return stiff[0][order], mass[0][order] * (0.5 / mesh.areas[0])


def test_local_stiffness_reference_triangle():
    stiff, _ = reference_triangle_matrices()
    expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    assert np.allclose(stiff, expected)


def test_local_mass_reference_triangle():
    _, mass = reference_triangle_matrices()
    expected = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
    assert np.allclose(mass, expected)


def test_stiffness_linear_in_coefficient():
    mesh = unit_square_mesh(8)
    base = assemble(mesh, CoefficientField.identity())
    nu = 0.37
    scaled = assemble(mesh, CoefficientField.constant(nu * np.eye(2), nu=nu))
    assert np.allclose(scaled.energy_gram, nu * base.energy_gram, rtol=1e-12)
    assert np.allclose(scaled.mass_gram, base.mass_gram)


def test_coefficient_ellipticity_validated():
    # diag(0.49, 1) rotated by pi/16 has smallest eigenvalue 0.49 < nu = 0.5,
    # though its quadratic form exceeds 0.5 along every direction k pi/8
    c, s = np.cos(np.pi / 16.0), np.sin(np.pi / 16.0)
    rot = np.array([[c, -s], [s, c]])
    rotated = rot @ np.diag([0.49, 1.0]) @ rot.T
    # the slack is relative to each bound: a tile below a tiny nu, even a
    # non-positive one, is refused
    cases = (
        (np.diag([4.0, 0.5]), 1.0),
        (0.5 * (rotated + rotated.T), 0.5),
        (np.diag([-5e-11, 1.0]), 1e-11),
        (np.diag([1e-11, 1.0]), 1e-10),
    )
    for matrix, nu in cases:
        with pytest.raises(ValueError, match="ellipticity"):
            CoefficientField.constant(matrix, nu=nu)
    # a tile at a tiny nu is accepted: its smaller eigenvalue is read without
    # cancellation, exactly here
    assert CoefficientField.constant(np.diag([1e-13, 1.0]), nu=1e-13).extremes == (1e-13, 1.0)
    with pytest.raises(ValueError, match="nu must be in"):
        CoefficientField.checker(0.0)


def test_checker_sampling_matches_pointwise_evaluation():
    nu, cells = 0.5, CoefficientField.CELLS
    eye = np.eye(2)

    def one_point(point):
        ix = int(np.floor(point[0] * cells))
        iy = int(np.floor(point[1] * cells))
        return eye if (ix + iy) % 2 == 0 else nu * eye

    points = unit_square_mesh(12).centroids
    want = np.array([one_point(p) for p in points])
    got = CoefficientField.checker(nu).sample(points)
    assert got.shape == want.shape and np.array_equal(got, want)
    with pytest.raises(ValueError, match="2x2"):
        CoefficientField.constant(np.eye(3), nu=0.5)


@pytest.mark.parametrize("n", [2, 3, 8, 17])
def test_grid_is_valid_by_construction(n):
    # what a mesh built from any triangle list had to be checked for
    mesh = unit_square_mesh(n)
    assert (mesh.n, mesh.h, mesh.n_triangles) == (n, 1.0 / n, 2 * n * n)
    assert mesh.triangles.min() == 0 and mesh.triangles.max() == len(mesh.vertices) - 1
    # every triangle positively oriented, of area 1 / (2 n^2)
    p = mesh.vertices[mesh.triangles]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    assert np.allclose(area, 0.5 / n**2, rtol=1e-12, atol=0.0)
    assert np.array_equal(mesh.areas, area)
    # every edge on one triangle (the 4 n boundary edges) or two
    edges = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    counts = np.unique(edges, axis=0, return_counts=True)[1]
    assert counts.max() == 2 and np.sum(counts == 1) == 4 * n
    # vertex k at (k mod (n + 1), k div (n + 1)) / n: the raster oracles.hadamard_slope reads
    k = np.arange((n + 1) ** 2)
    raster = np.column_stack([k % (n + 1), k // (n + 1)]) / n
    assert np.allclose(mesh.vertices, raster, rtol=0.0, atol=1e-15)
    with pytest.raises(MeshError, match="at least 2 cells"):
        unit_square_mesh(1)


# -- carving -------------------------------------------------------------------


def test_carve_whole_square():
    mesh = unit_square_mesh(8)
    space = assemble(mesh, CoefficientField.identity())
    sub = carve_subspace(space, mesh, DomainSpec("square_shrink", eps=0.0))
    assert sub.dim == space.dim == 7 * 7


def test_carve_shrink_removes_outer_ring():
    mesh = unit_square_mesh(8)
    space = assemble(mesh, CoefficientField.identity())
    sub = carve_subspace(space, mesh, DomainSpec("square_shrink", eps=1.0 / 8.0))
    assert sub.dim == 5 * 5
    coords = mesh.vertices[mesh.interior_vertices[sub.indices]]
    assert coords.min() > 1.0 / 8.0 + 1e-12
    assert coords.max() < 7.0 / 8.0 - 1e-12


def test_carve_nested_monotone():
    mesh = unit_square_mesh(16)
    space = assemble(mesh, CoefficientField.identity())
    small = carve_subspace(space, mesh, DomainSpec("square_shrink", eps=2.0 / 16.0))
    large = carve_subspace(space, mesh, DomainSpec("square_shrink", eps=1.0 / 16.0))
    assert set(small.indices.tolist()) <= set(large.indices.tolist())


def test_carve_rejects_nonconforming_eps():
    mesh = unit_square_mesh(8)
    space = assemble(mesh, CoefficientField.identity())
    with pytest.raises(MeshError, match="not a multiple"):
        carve_subspace(space, mesh, DomainSpec("square_shrink", eps=0.1))


def test_carve_empty_interior_rejected():
    mesh = unit_square_mesh(8)
    space = assemble(mesh, CoefficientField.identity())
    with pytest.raises(MeshError, match="empty interior"):
        carve_subspace(space, mesh, DomainSpec("square_shrink", eps=0.5))


def test_notch_anchor_must_be_on_boundary():
    with pytest.raises(MeshError, match="boundary"):
        DomainSpec("boundary_notch", eps=0.125, anchor=(0.5, 0.5))


def _space_of_another_mesh():
    return assemble(unit_square_mesh(4), CoefficientField.identity())


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda mesh: DomainSpec("disc"), "unknown domain kind"),
        (
            lambda mesh: carve_subspace(
                _space_of_another_mesh(), mesh, DomainSpec("square_shrink")
            ),
            "does not match the mesh",
        ),
        (
            lambda mesh: gradient_energy_form(
                _space_of_another_mesh(), mesh, np.arange(2), np.zeros(9)
            ),
            "energy space does not match the mesh",
        ),
        (
            lambda mesh: collar_elements(mesh, DomainSpec("square_shrink", eps=0.125), q=1.0),
            "must exceed 1",
        ),
        (
            lambda mesh: collar_elements(mesh, DomainSpec("square_shrink")),
            "collar region is empty",
        ),
    ],
    ids=["unknown_kind", "carve_other_mesh", "form_other_mesh", "collar_q", "empty_collar"],
)
def test_refused_inputs_are_mesh_errors(call, match):
    with pytest.raises(MeshError, match=match):
        call(unit_square_mesh(8))


@pytest.mark.parametrize("entry", ["gradient_energy_form", "region_area"])
def test_element_ids_refuse_non_integer_dtypes(entry):
    # a cast would read the elements [0, 2] from [0.5, 2.9], and a 32-entry
    # mask with 4 entries set as the ids 0 and 1, of area 1.0 instead of 0.125
    mesh = unit_square_mesh(4)
    space = assemble(mesh, CoefficientField.identity())
    mask = np.zeros(mesh.n_triangles, dtype=bool)
    mask[:4] = True
    call = {
        "gradient_energy_form": lambda: gradient_energy_form(
            space, mesh, np.array([0.5, 2.9]), np.zeros(space.dim)
        ),
        "region_area": lambda: region_area(mesh, mask),
    }[entry]
    with pytest.raises(MeshError, match="integers"):
        call()


@pytest.mark.parametrize("entry", ["gradient_energy_form", "region_area"])
def test_element_ids_refuse_out_of_range(entry):
    # region_area(mesh, [-1]) returned the last triangle's area, and an id
    # past the end raised a bare IndexError
    mesh = unit_square_mesh(4)
    space = assemble(mesh, CoefficientField.identity())
    for ids in ([-1], [mesh.n_triangles]):
        call = {
            "gradient_energy_form": lambda: gradient_energy_form(
                space, mesh, np.array(ids), np.zeros(space.dim)
            ),
            "region_area": lambda: region_area(mesh, ids),
        }[entry]
        with pytest.raises(MeshError, match="unknown element id"):
            call()


# -- spectra -------------------------------------------------------------------


def test_square_spectrum_and_convergence():
    lam1 = {}
    for n in (16, 32, 64):
        mesh = unit_square_mesh(n)
        space = assemble(mesh, CoefficientField.identity())
        eigs = solve_operator_eigs(
            space.whole(), group_tol=suggested_group_tol(mesh.h), n_lowest=6
        )
        lam1[n] = eigs.values[0]
        # conforming elements bound the true eigenvalue from above
        assert eigs.values[0] >= PI2_2 - 1e-9
    fitted = {n: (lam1[n] - PI2_2) / (PI2_2 / n**2) for n in lam1}
    ratio = max(fitted.values()) / min(fitted.values())
    assert ratio < 1.5, f"h^2 convergence constant unstable: {fitted}"


def test_degenerate_pair_detected_and_symmetric():
    mesh = unit_square_mesh(16)
    space = assemble(mesh, CoefficientField.identity())
    eigs = solve_operator_eigs(
        space.whole(), group_tol=suggested_group_tol(mesh.h), n_lowest=6
    )
    lam2, x2, mult = eigs.group(2)
    assert mult == 2
    assert abs(lam2 - PI2_5) / PI2_5 < 0.03  # coarse mesh; 1% is checked at h=1/64
    # swap coordinates: the eigenspace must map onto itself
    n = 16
    swap = np.full(len(mesh.vertices), -1, dtype=int)
    for iy in range(n + 1):
        for ix in range(n + 1):
            swap[iy * (n + 1) + ix] = ix * (n + 1) + iy
    dof_swap = mesh.dof_of_vertex[swap[mesh.interior_vertices]]
    swapped = x2[dof_swap]
    # align by orthogonal Procrustes inside the group
    gram = swapped.T @ space.energy_gram @ x2
    u, _, vt = np.linalg.svd(gram)
    aligned = swapped @ (u @ vt)
    assert np.abs(aligned - x2).max() < 1e-8


def test_domain_monotonicity_discrete():
    mesh = unit_square_mesh(16)
    space = assemble(mesh, CoefficientField.identity())
    whole = solve_operator_eigs(space.whole(), group_tol=1e-9)
    sub = carve_subspace(space, mesh, DomainSpec("square_shrink", eps=2.0 / 16.0))
    inner = solve_operator_eigs(sub, group_tol=1e-9)
    lam_outer = whole.flat_values()
    lam_inner = inner.flat_values()
    k = min(lam_inner.size, 20)
    assert np.all(lam_inner[:k] >= lam_outer[:k] - 1e-9)


@settings(derandomize=True, max_examples=6, deadline=None)
@given(
    drop_f=st.lists(st.integers(0, 48), max_size=24),
    drop_e=st.lists(st.integers(0, 48), min_size=1, max_size=24),
)
def test_element_mask_nesting_orders_eigenvalues(drop_f, drop_e):
    # nodal index sets E within F span a subspace within F's, so by min-max
    # each of the lowest eigenvalues of E is at least the matching one of F
    space = assemble(unit_square_mesh(8), CoefficientField.checker(0.5))
    keep_f = np.setdiff1d(np.arange(space.dim), drop_f)
    keep_e = np.setdiff1d(keep_f, drop_e)
    assume(keep_e.size > 0)
    lam_e = solve_operator_eigs(Subspace(space, keep_e), group_tol=1e-9).flat_values()
    lam_f = solve_operator_eigs(Subspace(space, keep_f), group_tol=1e-9).flat_values()
    k = min(lam_e.size, 6)
    assert np.all(lam_e[:k] >= lam_f[:k] * (1.0 - 1e-9))


def test_embedding_constant_matches_first_eigenvalue():
    from eigenshift.hilbert import embedding_constant

    mesh = unit_square_mesh(32)
    space = assemble(mesh, CoefficientField.identity())
    c0_sq = embedding_constant(space) ** 2
    assert abs(c0_sq - 1.0 / PI2_2) / (1.0 / PI2_2) < 0.01


# -- gradient energy and collars -----------------------------------------------


def test_gradient_energy_zero_and_total():
    mesh = unit_square_mesh(8)
    space = assemble(mesh, CoefficientField.identity())
    u = np.zeros(space.dim)
    all_tris = np.arange(mesh.n_triangles)
    assert gradient_energy_form(space, mesh, all_tris, u).item() == 0.0
    rng = np.random.default_rng(0)
    u = rng.normal(size=space.dim)
    total = gradient_energy_form(space, mesh, all_tris, u).item()
    assert total == pytest.approx(float(u @ space.energy_gram @ u), rel=1e-12)


def test_gradient_energy_unknown_element():
    mesh = unit_square_mesh(4)
    space = assemble(mesh, CoefficientField.identity())
    with pytest.raises(MeshError, match="unknown element"):
        gradient_energy_form(space, mesh, np.array([10**6]), np.zeros(space.dim))


def test_mesh_geometry_is_computed_once_read_only_and_exact():
    from eigenshift.fem2d import _p1_gradients, gradient_energy_form

    n = 12
    mesh = unit_square_mesh(n)
    corners = mesh.vertices[mesh.triangles]
    assert mesh.centroids is mesh.centroids
    for cached, fresh in [
        (mesh.centroids, corners.mean(axis=1)),
        (mesh.gradients, _p1_gradients(corners, mesh.areas)),
    ]:
        assert not cached.flags.writeable
        assert np.array_equal(cached, fresh)
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0.0
    # the collar form indexes the cached gradients; the region's own
    # Jacobians give the same bits
    space = assemble(mesh, CoefficientField.identity())
    block = np.random.default_rng(0).normal(size=(space.dim, 3))
    values = np.zeros((len(mesh.vertices), 3))
    values[mesh.interior_vertices] = block
    for dom in (
        DomainSpec("square_shrink", eps=1.0 / n),
        DomainSpec("boundary_notch", eps=2.0 / n, anchor=(0.5, 1.0)),
    ):
        region = collar_elements(mesh, dom, q=2.0)
        grads = _p1_gradients(mesh.vertices[mesh.triangles[region]], mesh.areas[region])
        grad_u = np.einsum("tkb,tki->tib", values[mesh.triangles[region]], grads)
        want = np.einsum("tib,tic,t->bc", grad_u, grad_u, mesh.areas[region])
        assert np.array_equal(gradient_energy_form(space, mesh, region, block), want)


def test_p1_gradients_match_inverse_jacobian():
    from eigenshift.fem2d import _p1_gradients

    p = np.random.default_rng(7).uniform(-3.0, 3.0, size=(2000, 3, 2))
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    p[cross < 0] = p[cross < 0][:, [0, 2, 1]]  # positive orientation
    areas = 0.5 * np.abs(cross)
    longest = np.linalg.norm(p - p[:, [1, 2, 0]], axis=2).max(axis=1)
    keep = areas > 0.05 * longest**2  # non-degenerate
    p, areas = p[keep], areas[keep]
    # gradients of the reference hats (0,0), (1,0), (0,1) through J^-T
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
    ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    want = np.einsum("tji,kj->tki", np.linalg.inv(jac), ref)
    got = _p1_gradients(p, areas)
    scale = np.abs(want).max(axis=(1, 2))[:, None, None]
    assert keep.sum() > 1000
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_gradient_energy_collar_closed_form():
    # first eigenfunction interpolant; collar of width 0.1 on a 1/20 mesh
    n = 20
    mesh = unit_square_mesh(n)
    space = assemble(mesh, CoefficientField.identity())
    pts = mesh.vertices[mesh.interior_vertices]
    u = 2.0 * np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    a = 0.1
    collar = collar_elements(mesh, DomainSpec("square_shrink", eps=a / 2.0), q=2.0)
    got = gradient_energy_form(space, mesh, collar, u).item()
    c = (1.0 - 2.0 * a) / 2.0
    s = np.sin(2.0 * np.pi * a) / (2.0 * np.pi)
    expected = PI2_2 - PI2_8 * (c * c - s * s)
    assert got == pytest.approx(expected, rel=0.05)


def test_collar_and_symmetric_difference_areas():
    mesh = unit_square_mesh(16)
    eps = 2.0 / 16.0
    shrink = DomainSpec("square_shrink", eps=eps)
    collar = collar_elements(mesh, shrink, q=2.0)
    # collar is D minus the 2*eps inset square
    assert region_area(mesh, collar) == pytest.approx(1.0 - (1.0 - 4.0 * eps) ** 2, rel=1e-12)
    full = DomainSpec("square_shrink", eps=0.0)
    assert symmetric_difference_area(mesh, full, shrink) == pytest.approx(
        1.0 - (1.0 - 2.0 * eps) ** 2, rel=1e-12
    )
    assert symmetric_difference_area(mesh, shrink, shrink) == 0.0


@pytest.mark.parametrize("kind", ["square_shrink", "square_expand", "boundary_notch", "l_shape"])
def test_kept_and_collar_sets_follow_each_family_shape(kind):
    # each family's kept set, collar and bounding side, written out here as
    # centroid predicates; q = 1.5 and 2.5 put the collar edge mid-cell
    n, base, anchor = 16, 0.25, (0.25, 0.0)
    mesh = unit_square_mesh(n)
    x, y = mesh.centroids.T

    def box(lo, hi):
        return (x > lo) & (x < hi) & (y > lo) & (y < hi)

    near = lambda r: np.hypot(x - anchor[0], y - anchor[1]) <= r  # noqa: E731
    corner = lambda r: (x > 1.0 - r) & (y > 1.0 - r)  # noqa: E731
    kept, collar, side = {
        "square_shrink": (
            lambda e: box(e, 1.0 - e), lambda r: ~box(r, 1.0 - r), lambda e: 1.0 - 2.0 * e
        ),
        "square_expand": (
            lambda e: box(base - e, 1.0 - base + e),
            lambda r: box(base, 1.0 - base) & ~box(base + r, 1.0 - base - r),
            lambda e: 1.0 - 2.0 * (base - e),
        ),
        "boundary_notch": (lambda e: ~near(e), near, lambda e: 1.0),
        "l_shape": (lambda e: ~corner(e), corner, lambda e: 1.0),
    }[kind]
    for cells in (1, 2, 3, 4):
        eps = cells / n
        dom = DomainSpec(kind, eps=eps, anchor=anchor)
        assert np.array_equal(dom.kept_elements(mesh), np.flatnonzero(kept(eps)))
        assert dom.side == pytest.approx(side(eps), abs=1e-15)
        for q in (1.5, 2.0, 2.5, 3.0):
            want = np.flatnonzero(collar(q * eps))
            assert np.array_equal(collar_elements(mesh, dom, q=q), want), (cells, q)
    # width 0 keeps the whole reference domain
    whole = DomainSpec(kind, anchor=anchor).kept_elements(mesh)
    assert np.array_equal(whole, np.flatnonzero(kept(0.0)))


def test_symmetric_difference_area_of_crossing_notches():
    mesh = unit_square_mesh(16)
    left = DomainSpec("boundary_notch", eps=3.0 / 16.0, anchor=(0.375, 1.0))
    right = DomainSpec("boundary_notch", eps=3.0 / 16.0, anchor=(0.5, 1.0))
    k1 = set(left.kept_elements(mesh).tolist())
    k2 = set(right.kept_elements(mesh).tolist())
    assert k1 - k2 and k2 - k1
    # the same sorted element ids are summed, so the bits agree
    want = region_area(mesh, np.array(sorted(k1 ^ k2)))
    assert symmetric_difference_area(mesh, left, right) == want
    assert symmetric_difference_area(mesh, right, left) == want


# -- boundary sensitivity (square64 is the shared session fixture) ----------------


def test_hadamard_zero_profile(square64):
    mesh, space, eigs = square64
    _, x1, _ = eigs.group(1)
    phi = x1[:, 0]
    phi = phi / np.sqrt(phi @ space.mass_gram @ phi)
    assert oracles.hadamard_slope(mesh, space, phi, 0.0) == 0.0


def test_hadamard_uniform_shift_matches_closed_form(square64):
    mesh, space, eigs = square64
    _, x1, _ = eigs.group(1)
    phi = x1[:, 0]
    phi = phi / np.sqrt(phi @ space.mass_gram @ phi)
    slope = oracles.hadamard_slope(mesh, space, phi, 1.0)
    assert abs(slope - PI2_8) / PI2_8 < 0.05
    # linearity in the shift profile
    assert oracles.hadamard_slope(mesh, space, phi, 2.5) == pytest.approx(2.5 * slope)


def test_hadamard_requires_normalization(square64):
    mesh, space, eigs = square64
    _, x1, _ = eigs.group(1)
    with pytest.raises(ValueError, match="normalized"):
        oracles.hadamard_slope(mesh, space, 2.0 * x1[:, 0], 1.0)


def test_assembled_mass_is_definite_by_construction():
    # every triangle of the grid has positive area and every dof lies in one,
    # and the stiffness proof holds too, so the space factors neither Gram
    mesh = BackgroundMesh(6)
    with hilbert.census() as census:
        space = assemble(mesh, CoefficientField.checker(0.5))
    assert census["factors"] == []
    assert np.linalg.eigvalsh(space.mass_gram)[0] >= mesh.areas.min() / 12 * (1 - 1e-12)
    # a zero area voids the mass proof, and both Grams' pivots are checked again
    mesh.areas = np.where(np.arange(mesh.n_triangles) == 0, 0.0, mesh.areas)
    with hilbert.census() as census:
        assemble(mesh, CoefficientField.identity())
    assert census["factors"] == [("space", mesh.n_dofs)] * 2


_ANISOTROPIC = CoefficientField.constant([[2.0, 0.5], [0.5, 1.0]], nu=0.45)


@pytest.mark.parametrize("n", [4, 8, 12])
@pytest.mark.parametrize(
    "coeff",
    [CoefficientField.identity(), CoefficientField.checker(0.5), _ANISOTROPIC],
    ids=["identity", "checker", "anisotropic"],
)
def test_assembled_stiffness_is_definite_by_construction(n, coeff):
    # A >= c_min A_lap, whose least eigenvalue on the n x n grid is
    # 8 sin^2(pi / (2 n)), with c_min the least tile eigenvalue
    with hilbert.census() as census:
        space = assemble(BackgroundMesh(n), coeff)
    assert census["factors"] == []
    c_min = np.linalg.eigvalsh(coeff.tiles).min()
    bound = c_min * 8.0 * np.sin(np.pi / (2 * n)) ** 2
    assert np.linalg.eigvalsh(space.energy_gram)[0] >= bound * (1 - 1e-10)
    if np.array_equal(coeff.tiles, [np.eye(2)]):  # A is the 5-point stencil itself
        assert np.linalg.eigvalsh(space.energy_gram)[0] == pytest.approx(bound, rel=1e-12)


def test_stiffness_proof_below_the_rounding_margin_checks_pivots():
    # c_min / c_max = 1e-13: c_min 8 sin^2(pi / 8) = 1.2e-13 does not clear
    # the margin 1e-12 n c_max = 4e-12, so both Grams are proved by pivots
    mesh = BackgroundMesh(4)
    with hilbert.census() as census:
        assemble(mesh, CoefficientField.constant(np.diag([1e-13, 1.0]), nu=1e-13))
    assert census["factors"] == [("space", mesh.n_dofs)] * 2


@pytest.mark.parametrize(
    "energy, mass, name",
    [
        (np.eye(2), np.diag([1.0, 0.0]), "mass_gram"),
        (np.eye(2), np.diag([1.0, -1.0]), "mass_gram"),
        (np.diag([1.0, -1.0]), np.eye(2), "energy_gram"),
    ],
)
def test_matrix_built_spaces_keep_the_pivot_check(energy, mass, name):
    with pytest.raises(NotPositiveDefiniteError, match=name):
        EnergySpace(energy, mass)
    with hilbert.census() as census:
        EnergySpace(np.eye(3), 2.0 * np.eye(3))
    assert census["factors"] == [("space", 3)] * 2
