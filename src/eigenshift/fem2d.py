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

from dataclasses import dataclass
from typing import ClassVar

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
    "collar_elements",
    "region_area",
    "symmetric_difference_area",
    "suggested_group_tol",
]


class MeshError(ValueError):
    """Invalid mesh, domain specification, or region."""


class BackgroundMesh:
    """The structured triangulation of the unit square with n x n cells.

    Vertex k sits at (k mod (n + 1), k div (n + 1)) / n, so vertex values
    reshape to an (n + 1) x (n + 1) raster [iy, ix].  Each cell (ix, iy),
    taken row by row, gives two positively oriented triangles of area
    1 / (2 n^2), split along its lower-left to upper-right diagonal; every
    edge lies on one or two triangles.  The grid is valid by construction,
    so nothing about it is checked at run time.  h = 1/n is the edge
    length.  Vertices strictly inside D are the degrees of freedom of the
    background space, in vertex order.  The areas, the centroids
    (``centroids``, (nt, 2)) and the P1 gradients (``gradients``,
    (nt, 3, 2)) are computed once, as read-only arrays that assembly,
    domains and forms index into.
    """

    def __init__(self, n: int):
        if n < 2:
            raise MeshError(f"need at least 2 cells per side, got {n}")
        self.n, self.h = n, 1.0 / n
        side = np.linspace(0.0, 1.0, n + 1)
        xx, yy = np.meshgrid(side, side)
        self.vertices = np.column_stack([xx.ravel(), yy.ravel()])
        # cell (ix, iy), row by row: lower-left corner a, then b, c, d counterclockwise
        ix, iy = np.meshgrid(np.arange(n), np.arange(n))
        a = (iy * (n + 1) + ix).ravel()
        b, c, d = a + 1, a + n + 2, a + n + 1
        self.triangles = np.column_stack([a, b, c, a, c, d]).reshape(-1, 3)
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
        p = self.vertices[self.triangles]
        cross = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
            p[:, 1, 1] - p[:, 0, 1]
        ) * (p[:, 2, 0] - p[:, 0, 0])
        self.areas = _read_only(0.5 * cross)
        self.centroids = _read_only(p.mean(axis=1))
        self.gradients = _read_only(_p1_gradients(p, self.areas))

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def unit_square_mesh(n: int) -> BackgroundMesh:
    """The structured mesh with n x n cells, diagonals along y = x
    (``BackgroundMesh(n)``); MeshError for n < 2."""
    return BackgroundMesh(n)


class CoefficientField:
    """Symmetric 2x2 coefficient A(x), constant on each tile of the fixed
    4 x 4 checkerboard of D, with a declared ellipticity constant nu.

    ``tiles`` holds one or two 2x2 matrices: tile (i, j) carries
    ``tiles[(i + j) % len(tiles)]``.  Construction checks, once, that each
    is a symmetric 2x2 matrix whose eigenvalues lie in [nu, 1/nu] up to
    1e-10 of each bound, so nu |xi|^2 <= xi' A xi <= |xi|^2 / nu everywhere
    in D; ``extremes`` keeps the least and the largest of them.
    """

    CELLS: ClassVar[int] = 4

    def __init__(self, tiles, nu: float):
        if not 0.0 < nu <= 1.0:
            raise ValueError(f"ellipticity constant nu must be in (0, 1], got {nu}")
        self.nu = float(nu)
        for tile in tiles:
            shape = np.asarray(tile, dtype=object).shape
            if shape != (2, 2):
                raise ValueError(f"coefficient matrix must be 2x2, got shape {shape}")
        self.tiles = np.array(tiles, dtype=float)
        if np.abs(self.tiles[:, 0, 1] - self.tiles[:, 1, 0]).max() > 1e-14:
            raise ValueError("coefficient matrix must be symmetric")
        # eigenvalues m -+ r of [[a, b], [b, d]]; m - r as det / (m + r), free of cancellation
        a, b, d = self.tiles[:, 0, 0], self.tiles[:, 0, 1], self.tiles[:, 1, 1]
        m, r = 0.5 * (a + d), np.hypot(0.5 * (a - d), b)
        low = np.divide(a * d - b * b, m + r, out=m - r, where=m + r > 0)
        self.extremes = lo, hi = float(low.min()), float((m + r).max())
        if not (lo >= self.nu * (1.0 - 1e-10) and hi <= (1.0 + 1e-10) / self.nu):
            raise ValueError(
                "declared ellipticity constant violated: "
                f"eigenvalue range [{lo:.6e}, {hi:.6e}] vs nu={self.nu}"
            )

    @classmethod
    def identity(cls) -> "CoefficientField":
        return cls([np.eye(2)], nu=1.0)

    @classmethod
    def constant(cls, matrix, nu: float) -> "CoefficientField":
        return cls([matrix], nu=nu)

    @classmethod
    def checker(cls, nu: float) -> "CoefficientField":
        """Checkerboard of identity and nu*identity tiles."""
        return cls([np.eye(2), nu * np.eye(2)], nu=nu)

    def sample(self, points: np.ndarray) -> np.ndarray:
        """The (n, 2, 2) matrices at an (n, 2) array of points of D."""
        tile = np.floor(points * self.CELLS).astype(int).sum(axis=1)
        return self.tiles[tile % len(self.tiles)]


@dataclass
class DomainSpec:
    """Mesh-conforming polygonal subdomain of the background square.

    kinds: square_shrink (inset eps from the boundary), square_expand
    (outset eps from the square inset ``base`` = 1/4), boundary_notch
    (triangles near an anchor on the boundary removed), l_shape (corner
    square removed).  Each family is one predicate, ``_keeps``: which
    centroids it keeps at width w.  The kept set, the collar (see
    ``collar_elements``) and ``side`` derive from it.  eps, and the base
    inset of square_expand, must be nonnegative multiples of the mesh size
    (``check_conforming``); non-conforming values are rejected.
    """

    kind: str
    eps: float = 0.0
    anchor: tuple = (0.5, 1.0)

    base: ClassVar[float] = 0.25
    KINDS: ClassVar[tuple] = ("square_shrink", "square_expand", "boundary_notch", "l_shape")

    def __post_init__(self):
        if self.kind not in self.KINDS:
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
        self.check_conforming(mesh.h)
        return np.flatnonzero(self._keeps(mesh.centroids, self.eps))

    def check_conforming(self, h: float) -> None:
        """MeshError unless eps, and the base inset of square_expand, are
        multiples of the mesh size h, and a square_expand eps is at most the
        base, so the expanded square stays inside D.  A conforming base of
        1/4 means h = 1/(4k), so the reference square, inset by 1/4 <= 1/2 - h,
        keeps an interior vertex."""
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
        if self.kind == "square_expand" and self.eps > self.base + 1e-12:
            raise MeshError(f"expansion eps={self.eps} exceeds the base inset {self.base}")


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
    on the interior vertices, with the coefficient sampled at centroids.

    Both Grams are definite by construction, so the space factors neither.
    Each element mass (|T|/12)(I + 11') has eigenvalues |T|/12, |T|/12 and
    |T|/3, so u'Mu >= min|T|/12 |u|^2 when every triangle has positive area
    and every dof lies in a triangle.  Each element stiffness |T| G' C_T G
    has C_T >= c_min I, so A >= c_min A_lap, with (c_min, c_max) =
    ``coeff.extremes`` and A_lap the P1 Dirichlet Laplacian of this grid,
    the 5-point stencil, whose least eigenvalue is 8 sin^2(pi h / 2).
    Rounding moves A by under 2e-13 n c_max in the 2-norm: vertices off by
    2u (u = 2^-53) on edges of length h put each element term, at most
    2 c_max, off by 48 n u of that, and a row of A sums at most 18 terms.
    The proof asks for c_min 8 sin^2(pi h / 2) > 1e-12 n c_max, a safety
    factor of 5.  Where either proof fails, both Grams are proved by pivots."""
    coeff_mats = coeff.sample(mesh.centroids)
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

    c_min, c_max = coeff.extremes
    stiff = c_min * 8.0 * np.sin(0.5 * np.pi * mesh.h) ** 2 > 1e-12 * mesh.n * c_max
    mass = mesh.areas.min() > 0 and mesh._incident_total[mesh.interior_vertices].min() > 0
    return EnergySpace(gram(stiff_loc), gram(mass_loc), definite=bool(stiff and mass))


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
    return Subspace(space, dof_ids)


def _element_ids(mesh: BackgroundMesh, ids) -> np.ndarray:
    """The int array of a list of triangle ids; MeshError for another dtype
    or an id outside 0..n_triangles - 1, which would index another triangle."""
    ids = _index_array(ids, MeshError)
    if ids.size and (ids.min() < 0 or ids.max() >= mesh.n_triangles):
        raise MeshError("unknown element id")
    return ids


def gradient_energy_form(
    space: EnergySpace, mesh: BackgroundMesh, region: np.ndarray, block: np.ndarray
) -> np.ndarray:
    """Quadratic form of the region gradient energy (coefficients ignored)
    on a vector or an N x J block of vectors."""
    if space.dim != mesh.n_dofs:
        raise MeshError("energy space does not match the mesh")
    region = _element_ids(mesh, region)
    u = space.check_vector(block).reshape(space.dim, -1)
    grads = mesh.gradients[region]
    # the corners' dofs as assemble maps them; a boundary corner (-1) reads the zero row
    local = np.vstack([u, np.zeros((1, u.shape[1]))])[mesh.dof_of_vertex[mesh.triangles[region]]]
    grad_u = np.einsum("tkb,tki->tib", local, grads)
    return np.einsum("tib,tic,t->bc", grad_u, grad_u, mesh.areas[region])


def region_area(mesh: BackgroundMesh, region: np.ndarray) -> float:
    return float(mesh.areas[_element_ids(mesh, region)].sum())


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
    cen = mesh.centroids
    reach = -q * dom.eps if dom.kind == "square_expand" else q * dom.eps
    ids = np.flatnonzero(dom._keeps(cen, 0.0) & ~dom._keeps(cen, reach))
    if ids.size == 0:
        raise MeshError("collar region is empty")
    return ids


def suggested_group_tol(h: float) -> float:
    """Mesh-aware relative gap for eigenvalue grouping (discrete splitting
    of degenerate continuum eigenvalues scales like h^2 relative)."""
    return 10.0 * h * h
