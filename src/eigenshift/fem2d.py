"""P1 finite elements on a structured triangulation of the unit square.

The background square D = [0,1]^2 is split into n x n cells, each cut along
the lower-left to upper-right diagonal, so the mesh is invariant under the
coordinate swap.  That symmetry does not keep degenerate continuum
eigenvalue pairs degenerate: the discrete pair splits by O(h^2 lambda)
relative (at h=1/36 the second group of the square spreads by 1.8e-5 in
the reciprocal scale), and eigenvalue groups record that spread.
Subdomains are unions of mesh triangles; carving one out yields a nodal
subspace of the background energy space, so domain perturbations become
genuine subspace perturbations of a single discrete problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .hilbert import EnergySpace, Subspace, _index_array

__all__ = [
    "BackgroundMesh",
    "CoefficientField",
    "DomainSpec",
    "MeshError",
    "unit_square_mesh",
    "assemble",
    "carve_subspace",
    "gradient_energy",
    "hadamard_slope",
    "collar_elements",
    "region_area",
    "symmetric_difference_area",
    "suggested_group_tol",
]

_PROBE_ANGLES = np.linspace(0.0, np.pi, 8, endpoint=False)


class MeshError(ValueError):
    """Invalid mesh, domain specification, or region."""


class BackgroundMesh:
    """Conforming triangle mesh of the unit square with vertex classification.

    vertices: (nv, 2) array; triangles: (nt, 3) int array, positively
    oriented; h: nominal edge length.  Vertices strictly inside D are the
    degrees of freedom of the background space, in vertex order.  The
    centroids and the P1 gradients (``gradients``, (nt, 3, 2)) are computed
    once, as read-only arrays that assembly, domains and forms index into.
    """

    def __init__(self, vertices: np.ndarray, triangles: np.ndarray, h: float):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=int)
        self.h = float(h)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        self._validate_geometry()
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        eps = 1e-12
        self.interior_mask = (x > eps) & (x < 1 - eps) & (y > eps) & (y < 1 - eps)
        self.dof_of_vertex = np.full(len(self.vertices), -1, dtype=int)
        self.dof_of_vertex[self.interior_mask] = np.arange(int(self.interior_mask.sum()))
        self.interior_vertices = np.flatnonzero(self.interior_mask)
        self.n_dofs = int(self.interior_mask.sum())
        # per-vertex incident triangle counts, for interiority of carved domains
        self._incident_total = np.zeros(len(self.vertices), dtype=int)
        np.add.at(self._incident_total, self.triangles.ravel(), 1)
        corners = self.vertices[self.triangles]
        self._centroids = _read_only(corners.mean(axis=1))
        self.gradients = _read_only(_p1_gradients(corners, self.areas))

    def _validate_geometry(self) -> None:
        nv = len(self.vertices)
        if self.triangles.size and not 0 <= self.triangles.min() <= self.triangles.max() < nv:
            raise MeshError("triangle vertex index out of range")
        p = self.vertices[self.triangles]
        cross = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
            p[:, 1, 1] - p[:, 0, 1]
        ) * (p[:, 2, 0] - p[:, 0, 0])
        self.areas = 0.5 * cross
        bad = np.flatnonzero(self.areas <= 1e-14)
        if bad.size:
            raise MeshError(f"triangle {bad[0]} is degenerate or negatively oriented")
        edges = np.sort(self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        # one integer key per edge: unique over rows (axis=0) is several times slower
        keys = edges[:, 0] * nv + edges[:, 1]
        if np.any(np.unique(keys, return_counts=True)[1] > 2):
            raise MeshError("mesh is not conforming: an edge is shared by >2 triangles")

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def centroids(self) -> np.ndarray:
        """Triangle centroids, (nt, 2), computed once and read-only."""
        return self._centroids


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def unit_square_mesh(n: int) -> BackgroundMesh:
    """Structured mesh with n x n cells, diagonals along y = x."""
    if n < 2:
        raise MeshError(f"need at least 2 cells per side, got {n}")
    side = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(side, side)
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    # cell (ix, iy), row by row: lower-left corner a, then b, c, d counterclockwise
    ix, iy = np.meshgrid(np.arange(n), np.arange(n))
    a = (iy * (n + 1) + ix).ravel()
    b, c, d = a + 1, a + n + 2, a + n + 1
    tris = np.column_stack([a, b, c, a, c, d]).reshape(-1, 3)
    return BackgroundMesh(vertices, tris, 1.0 / n)


class CoefficientField:
    """Symmetric 2x2 coefficient A(x) with a declared ellipticity constant.

    The evaluator maps an (n, 2) array of points to their (n, 2, 2)
    matrices, or to one (2, 2) matrix shared by all of them.  The declared
    nu is verified against probe directions at every quadrature point during
    assembly: nu |xi|^2 <= xi' A xi <= |xi|^2 / nu.
    """

    def __init__(self, evaluator, nu: float):
        if not 0.0 < nu <= 1.0:
            raise ValueError(f"ellipticity constant must be in (0, 1], got {nu}")
        self.evaluator = evaluator
        self.nu = float(nu)

    @classmethod
    def identity(cls) -> "CoefficientField":
        eye = np.eye(2)
        return cls(lambda _: eye, nu=1.0)

    @classmethod
    def constant(cls, matrix, nu: float) -> "CoefficientField":
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (2, 2) or abs(matrix[0, 1] - matrix[1, 0]) > 1e-14:
            raise ValueError("constant coefficient must be a symmetric 2x2 matrix")
        return cls(lambda _: matrix, nu=nu)

    @classmethod
    def checker(cls, nu: float, cells: int = 4) -> "CoefficientField":
        """Checkerboard of identity and nu*identity tiles, cells x cells."""
        eye = np.eye(2)

        def evaluate(points):
            tile = np.floor(points * cells).astype(int).sum(axis=1)
            return np.where((tile % 2 == 0)[:, None, None], eye, nu * eye)

        return cls(evaluate, nu=nu)

    def sample(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        values = np.asarray(self.evaluator(points), dtype=float)
        try:
            mats = np.broadcast_to(values, (len(points), 2, 2))
        except ValueError:
            raise ValueError("coefficient evaluator must return 2x2 matrices") from None
        asym = np.abs(mats[:, 0, 1] - mats[:, 1, 0]).max() if len(mats) else 0.0
        if asym > 1e-12:
            raise ValueError("coefficient matrices must be symmetric")
        directions = np.column_stack([np.cos(_PROBE_ANGLES), np.sin(_PROBE_ANGLES)])
        quad = np.einsum("di,nij,dj->nd", directions, mats, directions)
        if quad.min() < self.nu - 1e-10 or quad.max() > 1.0 / self.nu + 1e-10:
            raise ValueError(
                "declared ellipticity constant violated at a quadrature point: "
                f"range [{quad.min():.6e}, {quad.max():.6e}] vs nu={self.nu}"
            )
        return mats


@dataclass
class DomainSpec:
    """Mesh-conforming polygonal subdomain of the background square.

    kinds: square_shrink (inset eps from the boundary), square_expand
    (outset eps from a base inset), boundary_notch (triangles near an
    anchor on the boundary removed), l_shape (corner square removed),
    element_mask (explicit kept element ids).  Each family but element_mask
    is one predicate, ``_keeps``: which centroids it keeps at width w.  The
    kept set, the collar (see ``collar_elements``) and ``side`` derive from
    it.  eps, and the base inset of square_expand, must be nonnegative
    multiples of the mesh size (``check_conforming``); non-conforming values
    are rejected.
    """

    kind: str
    eps: float = 0.0
    anchor: tuple = (0.5, 1.0)
    base: float = 0.25
    elements: list = field(default_factory=list)

    _KINDS = ("square_shrink", "square_expand", "boundary_notch", "l_shape", "element_mask")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise MeshError(f"unknown domain kind {self.kind!r}")
        if self.eps < 0:
            raise MeshError("eps must be nonnegative")
        if self.kind == "boundary_notch":
            x0, y0 = self.anchor
            on_boundary = (
                abs(x0) < 1e-12 or abs(x0 - 1) < 1e-12 or abs(y0) < 1e-12 or abs(y0 - 1) < 1e-12
            )
            inside = -1e-12 <= x0 <= 1 + 1e-12 and -1e-12 <= y0 <= 1 + 1e-12
            if not (on_boundary and inside):
                raise MeshError(f"notch anchor {self.anchor} must lie on the boundary of D")

    def _inset(self, w: float) -> float:
        """Inset from D's boundary of the square that bounds the domain at width w."""
        return {"square_shrink": w, "square_expand": self.base - w}.get(self.kind, 0.0)

    @property
    def side(self) -> float:
        """Side of the square that bounds the domain."""
        return 1.0 - 2.0 * self._inset(self.eps)

    def _keeps(self, cen: np.ndarray, w: float) -> np.ndarray:
        """Mask of the centroids that the family keeps at width w."""
        if self.kind == "boundary_notch":
            return np.linalg.norm(cen - np.asarray(self.anchor), axis=1) > w
        if self.kind == "l_shape":
            return ~((cen[:, 0] > 1.0 - w) & (cen[:, 1] > 1.0 - w))
        inset = self._inset(w)
        return _in_box(cen, inset, 1.0 - inset)

    def kept_elements(self, mesh: BackgroundMesh) -> np.ndarray:
        """Ids of the triangles making up the domain."""
        if self.kind == "element_mask":
            ids = np.unique(_index_array(self.elements, MeshError))
            if ids.size and (ids[0] < 0 or ids[-1] >= mesh.n_triangles):
                raise MeshError("element_mask contains an unknown element id")
            return ids
        self.check_conforming(mesh.h)
        if self.kind == "square_expand" and self.eps > self.base + 1e-12:
            raise MeshError(f"expansion eps={self.eps} exceeds the base inset {self.base}")
        return np.flatnonzero(self._keeps(mesh.centroids(), self.eps))

    def check_conforming(self, h: float) -> None:
        """MeshError unless eps, and the base inset of square_expand, are
        multiples of the mesh size h, and that base is at most 1/2 - h, so
        the reference square (width 0) keeps an interior vertex."""
        widths = {"eps": self.eps}
        if self.kind == "square_expand":
            widths["base"] = self.base
        for what, value in widths.items():
            ratio = value / h
            # a finite value can overflow the ratio, which round() cannot take
            if not np.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 * max(1.0, abs(ratio)):
                raise MeshError(
                    f"{what}={value} is not a multiple of the mesh size h={h}; "
                    "non-conforming perturbations are rejected, not approximated"
                )
        if self.kind == "square_expand" and self.base > 0.5 - h + 1e-12:
            raise MeshError(
                f"base={self.base} leaves the reference square without an interior vertex"
            )


def _in_box(points: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Points strictly inside the square (lo, hi)^2."""
    return (points[:, 0] > lo) & (points[:, 0] < hi) & (points[:, 1] > lo) & (points[:, 1] < hi)


def _p1_gradients(p: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Physical gradients of the three P1 hat functions on each positively
    oriented triangle with vertex coordinates p and the given areas,
    (nt, 3, 2): the edge opposite each vertex, turned a quarter
    counterclockwise, over twice the area."""
    edges = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]
    return np.stack([-edges[..., 1], edges[..., 0]], axis=2) / (2.0 * areas[:, None, None])


def _element_matrices(mesh: BackgroundMesh, coeff_mats: np.ndarray):
    """Per-triangle 3x3 stiffness (with coefficients) and mass matrices."""
    grads = mesh.gradients
    a_grads = np.einsum("tij,tkj->tki", coeff_mats, grads)
    stiff = np.einsum("tki,tli->tkl", grads, a_grads) * mesh.areas[:, None, None]
    mass_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    mass = mesh.areas[:, None, None] * mass_ref[None, :, :]
    return stiff, mass


def assemble(mesh: BackgroundMesh, coeff: CoefficientField) -> EnergySpace:
    """Energy space of the background square: P1 stiffness and mass Grams
    on the interior vertices, with the coefficient sampled at centroids."""
    coeff_mats = coeff.sample(mesh.centroids())
    stiff_loc, mass_loc = _element_matrices(mesh, coeff_mats)
    n = mesh.n_dofs
    dofs = mesh.dof_of_vertex[mesh.triangles]  # (nt, 3), -1 for boundary vertices
    rows = np.repeat(dofs, 3, axis=1)  # local entry (i, j) at column 3 i + j
    cols = np.tile(dofs, 3)
    ok = (rows >= 0) & (cols >= 0)
    index = (rows[ok], cols[ok])

    def gram(local):
        # COO -> CSR sums the duplicate entries; EnergySpace symmetrizes
        return sp.coo_array((local.reshape(-1, 9)[ok], index), shape=(n, n)).tocsr()

    return EnergySpace(gram(stiff_loc), gram(mass_loc))


def carve_subspace(space: EnergySpace, mesh: BackgroundMesh, dom: DomainSpec) -> Subspace:
    """Nodal subspace of the functions supported on the domain's interior.

    A vertex is a degree of freedom of the carved space when it is interior
    to D and every triangle incident to it belongs to the domain.
    """
    if space.dim != mesh.n_dofs:
        raise MeshError("energy space does not match the mesh")
    kept = dom.kept_elements(mesh)
    kept_count = np.zeros(len(mesh.vertices), dtype=int)
    np.add.at(kept_count, mesh.triangles[kept].ravel(), 1)
    inside = mesh.interior_mask & (kept_count == mesh._incident_total)
    dof_ids = mesh.dof_of_vertex[inside]
    if dof_ids.size == 0:
        raise MeshError(f"domain {dom.kind}(eps={dom.eps}) has an empty interior")
    return Subspace.nodal(space, dof_ids)


def _vertex_values(mesh: BackgroundMesh, u: np.ndarray) -> np.ndarray:
    """Extend a DOF coefficient vector by zero to all vertices."""
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.n_dofs,):
        raise MeshError(f"coefficient vector must have length {mesh.n_dofs}")
    values = np.zeros(len(mesh.vertices))
    values[mesh.interior_vertices] = u
    return values


def gradient_energy(
    space: EnergySpace, mesh: BackgroundMesh, region: np.ndarray, u: np.ndarray
) -> float:
    """Integral of |grad u|^2 over a set of triangles (coefficients ignored)."""
    # item() refuses a block of more than one column
    return gradient_energy_form(space, mesh, region, u).item()


def gradient_energy_form(
    space: EnergySpace, mesh: BackgroundMesh, region: np.ndarray, block: np.ndarray
) -> np.ndarray:
    """Quadratic form of the region gradient energy on a vector or an N x J
    block of vectors."""
    region = _index_array(region, MeshError)
    if region.size and (region.min() < 0 or region.max() >= mesh.n_triangles):
        raise MeshError("region contains an unknown element id")
    block = space.check_vector(block).reshape(space.dim, -1)
    values = np.zeros((len(mesh.vertices), block.shape[1]))
    values[mesh.interior_vertices] = block
    grads = mesh.gradients[region]
    local = values[mesh.triangles[region]]  # (nt, 3, nb)
    grad_u = np.einsum("tkb,tki->tib", local, grads)
    return np.einsum("tib,tic,t->bc", grad_u, grad_u, mesh.areas[region])


def region_area(mesh: BackgroundMesh, region: np.ndarray) -> float:
    return float(mesh.areas[_index_array(region, MeshError)].sum())


def symmetric_difference_area(
    mesh: BackgroundMesh, dom1: DomainSpec, dom2: DomainSpec
) -> float:
    """Area of the symmetric difference of two domains (exact, element-wise)."""
    # kept_elements gives sorted unique ids, and so does setxor1d
    diff = np.setxor1d(dom1.kept_elements(mesh), dom2.kept_elements(mesh), assume_unique=True)
    return region_area(mesh, diff)


def collar_elements(mesh: BackgroundMesh, dom: DomainSpec, q: float = 2.0) -> np.ndarray:
    """Boundary layer of the reference domain matched to a perturbation.

    The family at width 0, which is the whole reference domain, minus the
    family at width q*eps (-q*eps for square_expand, inward of its base
    square): a strip within q*eps of the boundary of a square reference, or
    the q*eps neighborhood of a notch or corner cut.
    """
    if q <= 1.0:
        raise MeshError(f"collar factor q must exceed 1, got {q}")
    if dom.kind == "element_mask":
        raise MeshError(f"no collar notion for domain kind {dom.kind!r}")
    cen = mesh.centroids()
    reach = -q * dom.eps if dom.kind == "square_expand" else q * dom.eps
    ids = np.flatnonzero(dom._keeps(cen, 0.0) & ~dom._keeps(cen, reach))
    if ids.size == 0:
        raise MeshError("collar region is empty")
    return ids


def hadamard_slope(
    mesh: BackgroundMesh, space: EnergySpace, eigenpair, shift_profile
) -> float:
    """First-order boundary sensitivity of an eigenvalue of the full square.

    Integrates |normal derivative|^2 times the per-side shift over the four
    sides, recovering the normal derivative by a one-sided difference across
    the first interior vertex layer and integrating with the trapezoid rule.
    The eigenfunction must be L2-normalized.
    """
    lam, phi = eigenpair
    if space.dim != mesh.n_dofs:
        raise MeshError("energy space does not match the mesh")
    norm = float(phi @ (space.mass_csr @ phi))
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"eigenfunction must be L2-normalized, got |phi|^2={norm:.6e}")
    if np.isscalar(shift_profile):
        sides = [float(shift_profile)] * 4
    else:
        sides = [float(s) for s in shift_profile]
        if len(sides) != 4:
            raise ValueError("shift profile must be a scalar or 4 per-side values")
    n, h = int(round(1.0 / mesh.h)), mesh.h
    grid = _vertex_values(mesh, phi).reshape(n + 1, n + 1)  # [iy, ix]
    # first interior vertex layer along each side: bottom, right, top, left
    layers = (grid[1], grid[:, n - 1], grid[n - 1], grid[:, 1])
    weights = np.full(n + 1, h)
    weights[0] = weights[-1] = h / 2.0
    return sum(side * float(weights @ (layer / h) ** 2) for side, layer in zip(sides, layers))


def suggested_group_tol(h: float) -> float:
    """Mesh-aware relative gap for eigenvalue grouping (discrete splitting
    of degenerate continuum eigenvalues scales like h^2 relative)."""
    return 10.0 * h * h
