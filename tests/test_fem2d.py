import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eigenshift.fem2d import (
    BackgroundMesh,
    CoefficientField,
    DomainSpec,
    MeshError,
    assemble,
    carve_subspace,
    collar_elements,
    gradient_energy,
    hadamard_slope,
    region_area,
    suggested_group_tol,
    symmetric_difference_area,
    unit_square_mesh,
)
from eigenshift.hilbert import solve_operator_eigs

PI2_2 = 2.0 * np.pi**2
PI2_5 = 5.0 * np.pi**2
PI2_8 = 8.0 * np.pi**2


def reference_triangle_matrices():
    """Local matrices of the triangle (0,0), (1,0), (0,1) with A = I."""
    mesh = BackgroundMesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        np.array([[0, 1, 2], [1, 3, 2]]),
        1.0,
    )
    from eigenshift.fem2d import _element_matrices

    mats = np.repeat(np.eye(2)[None], 2, axis=0)
    stiff, mass = _element_matrices(mesh, mats)
    return stiff[0], mass[0]


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
    bad = CoefficientField(lambda p: np.diag([4.0, 0.5]), nu=1.0)
    mesh = unit_square_mesh(4)
    with pytest.raises(ValueError, match="ellipticity"):
        assemble(mesh, bad)


def test_checker_sampling_matches_pointwise_evaluation():
    nu, cells = 0.5, 4
    eye = np.eye(2)

    def one_point(point):
        ix = int(np.floor(point[0] * cells))
        iy = int(np.floor(point[1] * cells))
        return eye if (ix + iy) % 2 == 0 else nu * eye

    points = unit_square_mesh(12).centroids()
    want = np.array([one_point(p) for p in points])
    got = CoefficientField.checker(nu, cells).sample(points)
    assert got.shape == want.shape and np.array_equal(got, want)
    wrong = CoefficientField(lambda pts: np.ones((len(pts), 3, 3)), nu=0.5)
    with pytest.raises(ValueError, match="2x2"):
        wrong.sample(points)


def test_degenerate_triangle_rejected():
    with pytest.raises(MeshError, match="triangle 0"):
        BackgroundMesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), np.array([[0, 1, 2]]), 1.0
        )


def test_edge_on_three_triangles_rejected():
    # three positively oriented triangles above the edge from vertex 0 to 1
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.2, 0.5], [0.8, 0.3]])
    BackgroundMesh(vertices, np.array([[0, 1, 2], [0, 1, 3]]), 1.0)
    with pytest.raises(MeshError, match="not conforming"):
        BackgroundMesh(vertices, np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]]), 1.0)


@pytest.mark.parametrize("bad", [-1, 5])
def test_triangle_vertex_index_out_of_range_rejected(bad):
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.2, 0.5], [0.8, 0.3]])
    with pytest.raises(MeshError, match="out of range"):
        BackgroundMesh(vertices, np.array([[0, 1, 2], [0, 1, bad]]), 1.0)


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


def test_element_mask_unknown_id():
    mesh = unit_square_mesh(4)
    spec = DomainSpec("element_mask", elements=[0, 1, 99999])
    with pytest.raises(MeshError, match="unknown element"):
        spec.kept_elements(mesh)


@pytest.mark.parametrize("entry", ["element_mask", "gradient_energy_form", "region_area"])
def test_element_ids_refuse_non_integer_dtypes(entry):
    # a cast would keep elements [0, 3] of [0.7, 3.2], and read a 32-entry
    # mask with 4 entries set as the ids 0 and 1, of area 1.0 instead of 0.125
    from eigenshift.fem2d import gradient_energy_form

    mesh = unit_square_mesh(4)
    space = assemble(mesh, CoefficientField.identity())
    mask = np.zeros(mesh.n_triangles, dtype=bool)
    mask[:4] = True
    floats = DomainSpec("element_mask", elements=[0.7, 3.2])
    call = {
        "element_mask": lambda: floats.kept_elements(mesh),
        "gradient_energy_form": lambda: gradient_energy_form(
            space, mesh, np.array([0.5, 2.9]), np.zeros(space.dim)
        ),
        "region_area": lambda: region_area(mesh, mask),
    }[entry]
    with pytest.raises(MeshError, match="integers"):
        call()


def test_element_mask_matches_equivalent_region():
    mesh = unit_square_mesh(8)
    space = assemble(mesh, CoefficientField.identity())
    shrink = DomainSpec("square_shrink", eps=1.0 / 8.0)
    mask = DomainSpec("element_mask", elements=shrink.kept_elements(mesh).tolist())
    via_region = carve_subspace(space, mesh, shrink)
    via_mask = carve_subspace(space, mesh, mask)
    assert via_mask.indices.tolist() == via_region.indices.tolist()


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
    drop_f=st.lists(st.integers(0, 127), max_size=24),
    drop_e=st.lists(st.integers(0, 127), min_size=1, max_size=24),
)
def test_element_mask_nesting_orders_eigenvalues(drop_f, drop_e):
    # E within F carves a nodal subspace within F's, so by min-max each of the
    # lowest eigenvalues of E is at least the matching one of F
    mesh = unit_square_mesh(8)
    space = assemble(mesh, CoefficientField.checker(0.5))
    keep_f = np.setdiff1d(np.arange(mesh.n_triangles), drop_f)
    keep_e = np.setdiff1d(keep_f, drop_e)
    try:
        sub_e = carve_subspace(space, mesh, DomainSpec("element_mask", elements=keep_e.tolist()))
    except MeshError:
        assume(False)
    sub_f = carve_subspace(space, mesh, DomainSpec("element_mask", elements=keep_f.tolist()))
    assert np.isin(sub_e.indices, sub_f.indices).all()
    lam_e = solve_operator_eigs(sub_e, group_tol=1e-9).flat_values()
    lam_f = solve_operator_eigs(sub_f, group_tol=1e-9).flat_values()
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
    assert gradient_energy(space, mesh, all_tris, u) == 0.0
    rng = np.random.default_rng(0)
    u = rng.normal(size=space.dim)
    total = gradient_energy(space, mesh, all_tris, u)
    assert total == pytest.approx(float(u @ space.energy_gram @ u), rel=1e-12)


def test_gradient_energy_unknown_element():
    mesh = unit_square_mesh(4)
    space = assemble(mesh, CoefficientField.identity())
    with pytest.raises(MeshError, match="unknown element"):
        gradient_energy(space, mesh, np.array([10**6]), np.zeros(space.dim))


def test_mesh_geometry_is_computed_once_read_only_and_exact():
    from eigenshift.fem2d import _p1_gradients, gradient_energy_form

    n = 12
    mesh = unit_square_mesh(n)
    corners = mesh.vertices[mesh.triangles]
    assert mesh.centroids() is mesh.centroids()
    for cached, fresh in [
        (mesh.centroids(), corners.mean(axis=1)),
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
    got = gradient_energy(space, mesh, collar, u)
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
    x, y = mesh.centroids().T

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
        dom = DomainSpec(kind, eps=eps, anchor=anchor, base=base)
        assert np.array_equal(dom.kept_elements(mesh), np.flatnonzero(kept(eps)))
        assert dom.side == pytest.approx(side(eps), abs=1e-15)
        for q in (1.5, 2.0, 2.5, 3.0):
            want = np.flatnonzero(collar(q * eps))
            assert np.array_equal(collar_elements(mesh, dom, q=q), want), (cells, q)
    # width 0 keeps the whole reference domain
    whole = DomainSpec(kind, anchor=anchor, base=base).kept_elements(mesh)
    assert np.array_equal(whole, np.flatnonzero(kept(0.0)))


def test_element_mask_has_no_collar():
    mesh = unit_square_mesh(4)
    with pytest.raises(MeshError, match="no collar notion"):
        collar_elements(mesh, DomainSpec("element_mask", elements=[0, 1]))


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
    lam, x1, _ = eigs.group(1)
    phi = x1[:, 0]
    phi = phi / np.sqrt(phi @ space.mass_gram @ phi)
    assert hadamard_slope(mesh, space, (lam, phi), 0.0) == 0.0


def test_hadamard_uniform_shift_matches_closed_form(square64):
    mesh, space, eigs = square64
    lam, x1, _ = eigs.group(1)
    phi = x1[:, 0]
    phi = phi / np.sqrt(phi @ space.mass_gram @ phi)
    slope = hadamard_slope(mesh, space, (lam, phi), 1.0)
    assert abs(slope - PI2_8) / PI2_8 < 0.05
    # linearity in the shift profile
    assert hadamard_slope(mesh, space, (lam, phi), 2.5) == pytest.approx(2.5 * slope)


def test_hadamard_requires_normalization(square64):
    mesh, space, eigs = square64
    lam, x1, _ = eigs.group(1)
    with pytest.raises(ValueError, match="normalized"):
        hadamard_slope(mesh, space, (lam, 2.0 * x1[:, 0]), 1.0)
