"""Finite-dimensional model of a pair of nested spectral problems.

An :class:`EnergySpace` is R^N equipped with two inner products given by
Gram matrices: the energy product (u, v) = u' A v and the mass product
<u, v> = u' M v.  Closed subspaces carry energy-orthogonal projectors, and
the module provides the quantities that control how eigenvalues of the
associated compact operators move from one subspace to another: the
projector distance sigma, the complement constant sigma*, the bridge
operator B, correctors, and the remainder magnitudes rho and rho0.

The Grams are stored as CSR matrices only, and every form on a block of
vectors applies the sparse Gram to the N x J block first.  Every subspace
operator (projector, solution operator, corrector) is one representer
solve, :meth:`Subspace._solve`.  Nodal subspaces (index sets, as carved
from a mesh) solve with one cached sparse LU factor of their CSR energy
block A_II, and one Lanczos routine, :func:`_lanczos_top`, finds the top
eigenpairs of a pencil (K, A_II) through that factor from a seeded start
vector.  It serves two callers.  The lowest eigenpairs of a nodal subspace
are the top ones of (M_II, A_II); each pair passes the residual allowance
of :func:`eigsolve.solve_pencil`, and the number kept must equal the
number of eigenvalues below a separating shift, counted by Sylvester
inertia.  For nodal pairs, sigma and sigma* are the largest eigenvalue of
the pencil (D' M D, A) on the coordinates of I1 u I2, certified like
:func:`eigsolve.solve_pencil`.  Subspaces with an explicit basis are
energy-orthonormalized through a square root of A taken from the sparse
factor that proved A definite; for such pairs, sigma and sigma* are the top
eigenvalue of a form on an energy-orthonormal basis of H1 + H2.  What stays
dense is sized by a subspace, not by the space: complete spectra and the
small pencils.  Only :func:`embedding_constant`, for small spaces, reads the
dense Gram views.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

from .eigsolve import NotPositiveDefiniteError, PencilError, SymmetricPencil, solve_pencil
from .eigsolve import _certify, _fix_signs

__all__ = [
    "EnergySpace",
    "Subspace",
    "EigenDecomposition",
    "EigenspaceImages",
    "DimensionMismatchError",
    "SubspaceRankError",
    "IllConditionedIntersectionError",
    "NotInSubspaceError",
    "DEFAULT_GROUP_TOL",
    "embedding_constant",
    "sigma_distance",
    "sigma_star",
    "solve_operator_eigs",
    "apply_T2",
    "corrector_block",
    "apply_B",
    "eigenspace_images",
    "form_extremes",
    "compute_rho",
    "compute_rho0",
    "intersection_subspace",
]

DEFAULT_GROUP_TOL = 1e-6

# principal-angle cosine thresholds for intersection detection
_COS_INTERSECT = 1.0 - 1e-10
_COS_AMBIGUOUS = 1.0 - 1e-6


class DimensionMismatchError(ValueError):
    """Vector or matrix does not match the ambient dimension."""


class SubspaceRankError(ValueError):
    """Basis is numerically rank deficient."""


class NotInSubspaceError(ValueError):
    """A vector required to lie in a subspace does not."""


class IllConditionedIntersectionError(ValueError):
    """Principal angles too close to the detection threshold to classify.

    The full cosine spectrum is attached as ``cosines``.
    """

    def __init__(self, cosines: np.ndarray):
        self.cosines = np.asarray(cosines)
        super().__init__(
            "intersection detection is ill conditioned; principal-angle cosines: "
            + np.array2string(self.cosines, precision=12)
        )


def _check_gram(mat, name: str) -> sp.csr_array:
    """The symmetrized CSR form of a square Gram, given dense or sparse."""
    if not sp.issparse(mat):
        mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    mat = sp.csr_array(mat, dtype=float)
    scale = abs(mat).max()
    if scale > 0 and abs(mat - mat.T).max() > 1e-12 * scale:
        raise ValueError(f"{name} is not symmetric to 1e-12 relative")
    return 0.5 * (mat + mat.T)


def _symmetric_splu(mat: sp.csr_array):
    # a symmetric ordering without pivoting: stable for an s.p.d. matrix, with
    # about half the fill of the default ordering, and one permutation P so
    # that P mat P' = L U, which keeps the pivots' inertia (Sylvester)
    return splu(
        mat.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def _symmetric_factor(mat: sp.csr_array):
    """Symmetric sparse factor P mat P' = L U with U = D L', L unit lower
    triangular, so that mat is congruent to the pivots D = diag(U).  None
    when the factor is exactly singular or SuperLU left the diagonal
    (perm_r != perm_c), where that congruence fails."""
    try:
        lu = _symmetric_splu(mat)
    except RuntimeError:
        return None
    return lu if np.array_equal(lu.perm_r, lu.perm_c) else None


def _symmetric_pivots(mat: sp.csr_array) -> np.ndarray | None:
    """Pivots of a symmetric matrix, whose signs are its inertia (Sylvester)."""
    lu = _symmetric_factor(mat)
    return None if lu is None else lu.U.diagonal()


def _count_below(a: sp.csr_array, m: sp.csr_array, shift: float) -> int:
    """Number of eigenvalues of the pencil (a, m) below shift, m s.p.d.:
    the negative inertia of a - shift m, from sparse pivots or, when they
    do not show it, from the 1x1 and 2x2 blocks of a dense LDL' factor."""
    shifted = a - shift * m
    pivots = _symmetric_pivots(shifted)
    if pivots is None:
        _, d, _ = sla.ldl(shifted.toarray())
        pivots = sla.eigvalsh_tridiagonal(np.diag(d).copy(), np.diag(d, 1).copy())
    return int(np.count_nonzero(pivots < 0))


class EnergySpace:
    """Ambient space: dimension plus energy and mass Gram matrices.

    The Grams, given dense or sparse, are kept in CSR form (``energy_csr``,
    ``mass_csr``); ``energy_gram`` and ``mass_gram`` are dense views built
    on first use, for small spaces and reference checks.  Both Grams must be
    symmetric positive definite (which also guarantees the embedding
    constant is finite and positive).  Positive pivots of a symmetric sparse
    factorization must prove it at construction, or
    :class:`NotPositiveDefiniteError` is raised.  The energy factor is kept:
    it gives the square root of A that energy-orthonormalizes explicit bases.
    """

    def __init__(self, energy_gram, mass_gram):
        self.energy_csr = _check_gram(energy_gram, "energy_gram")
        self.mass_csr = _check_gram(mass_gram, "mass_gram")
        if self.energy_csr.shape != self.mass_csr.shape:
            raise ValueError("energy_gram and mass_gram must have the same shape")
        self.dim = self.energy_csr.shape[0]
        self._energy_lu = self._definite_factor(self.energy_csr, "energy_gram")
        self._definite_factor(self.mass_csr, "mass_gram")

    def _definite_factor(self, csr: sp.csr_array, name: str):
        """The symmetric sparse factor whose positive pivots prove the Gram
        definite; NotPositiveDefiniteError, with the smallest eigenvalue of
        the dense Gram, when they do not."""
        lu = _symmetric_factor(csr)
        if lu is None or not np.all(lu.U.diagonal() > 0):
            raise NotPositiveDefiniteError(name, float(np.linalg.eigvalsh(csr.toarray())[0]))
        return lu

    @cached_property
    def energy_gram(self) -> np.ndarray:
        return self.energy_csr.toarray()

    @cached_property
    def mass_gram(self) -> np.ndarray:
        return self.mass_csr.toarray()

    @cached_property
    def _root_t(self):
        """R' for a square root R R' = A of the energy Gram.  From the sparse
        factor P A P' = L U with U = D L': R' = D^-1/2 U P, so R = P' L D^1/2."""
        u = self._energy_lu.U
        scaled = sp.diags_array(1.0 / np.sqrt(u.diagonal())) @ u
        return scaled.tocsc()[:, self._energy_lu.perm_r]

    def _root_t_solve(self, block: np.ndarray) -> np.ndarray:
        """R'^-1 block, as A^-1 R block through the sparse factor."""
        return self._energy_lu.solve(self._root_t.T @ block)

    def check_vector(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"vector of length {u.shape[0]} in a space of dimension {self.dim}"
            )
        return u

    def energy_inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(self.check_vector(u) @ (self.energy_csr @ self.check_vector(v)))

    def mass_inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(self.check_vector(u) @ (self.mass_csr @ self.check_vector(v)))

    def energy_norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(max(self.energy_inner(u, u), 0.0)))

    def mass_norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(max(self.mass_inner(u, u), 0.0)))

    def whole(self) -> "Subspace":
        """The whole space as a nodal subspace."""
        return Subspace.nodal(self, np.arange(self.dim))


class Subspace:
    """Closed subspace of an :class:`EnergySpace`.

    Either nodal (spanned by coordinate vectors at a recorded index set) or
    general (spanned by the columns of an explicit basis).  Projections are
    energy orthogonal.  Every operator goes through one representer solve,
    :meth:`_solve`: E A_II^-1 rhs_I through a cached sparse LU of the CSR
    block A_II for a nodal subspace, and Q Q' rhs for a general one, whose
    energy-orthonormal basis Q is cached and comes from the parent's square
    root of A, so no dense N x N matrix is formed.  A nodal subspace has no
    explicit basis, so a pair of one nodal and one general subspace raises.
    """

    def __init__(self, parent: EnergySpace, basis: np.ndarray, *, _indices=None):
        self.parent = parent
        self._indices = None if _indices is None else np.asarray(_indices, dtype=int)
        if self._indices is not None:
            self.dim = int(self._indices.size)
            if self.dim < 1:
                raise SubspaceRankError("nodal subspace needs a nonempty index set")
            self._basis_raw = None
        else:
            basis = np.asarray(basis, dtype=float)
            if basis.ndim != 2 or basis.shape[0] != parent.dim:
                raise DimensionMismatchError(
                    f"basis of shape {basis.shape} in a space of dimension {parent.dim}"
                )
            if basis.shape[1] < 1:
                raise SubspaceRankError("basis needs at least one column")
            self._basis_raw = basis
            self.dim = basis.shape[1]
        self._onb = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def nodal(cls, parent: EnergySpace, indices) -> "Subspace":
        indices = np.unique(np.asarray(indices, dtype=int))
        if indices.size and (indices[0] < 0 or indices[-1] >= parent.dim):
            raise DimensionMismatchError("nodal index out of range")
        return cls(parent, None, _indices=indices)

    @classmethod
    def from_basis(cls, parent: EnergySpace, basis: np.ndarray) -> "Subspace":
        return cls(parent, basis)

    # -- structure ----------------------------------------------------------

    @property
    def kind(self) -> str:
        return "nodal" if self._indices is not None else "general"

    @property
    def indices(self) -> np.ndarray:
        if self._indices is None:
            raise ValueError("general subspace has no nodal index set")
        return self._indices

    @property
    def basis(self) -> np.ndarray:
        """Raw spanning columns of a general subspace."""
        if self._basis_raw is None:
            raise ValueError("nodal subspace has no explicit basis")
        return self._basis_raw

    def orthonormal_basis(self) -> np.ndarray:
        """Energy-orthonormal basis with Q' A Q = I (cached): with R R' = A
        and R' B = q r, Q = B r^-1."""
        if self._onb is None:
            yb = self.parent._root_t @ self.basis
            scale = np.linalg.norm(yb, axis=0)
            if np.any(scale <= 0.0):
                raise SubspaceRankError("basis contains a zero column")
            svals = np.linalg.svd(yb / scale, compute_uv=False)
            if svals[-1] < 1e-10:
                raise SubspaceRankError(
                    f"basis is rank deficient: smallest singular value {svals[-1]:.3e}"
                )
            _, r = np.linalg.qr(yb)
            self._onb = sla.solve_triangular(r, self.basis.T, trans="T").T
        return self._onb

    @cached_property
    def _energy_block(self) -> sp.csr_array:
        """The CSR block A_II of a nodal subspace."""
        return self.parent.energy_csr[np.ix_(self._indices, self._indices)]

    @cached_property
    def _mass_block(self) -> sp.csr_array:
        """The CSR block M_II of a nodal subspace."""
        return self.parent.mass_csr[np.ix_(self._indices, self._indices)]

    @cached_property
    def _restricted_energy_solve(self):
        """Solver for the restricted energy Gram, factored on first use."""
        if self.kind == "nodal":
            return _symmetric_splu(self._energy_block).solve
        return partial(sla.cho_solve, sla.cho_factor(self.restricted_grams()[0], lower=True))

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """The w in this subspace with (w, v) = rhs' v for every v in it,
        columnwise: E A_II^-1 rhs_I for a nodal subspace, Q Q' rhs otherwise."""
        if self.kind == "general":
            b = self.orthonormal_basis()
            return b @ (b.T @ rhs)
        return self.embed(self._restricted_energy_solve(rhs[self._indices]))

    def restricted_grams(self):
        """Energy and mass Grams restricted to this subspace's coordinates:
        the CSR blocks A_II, M_II of a nodal subspace, dense ones otherwise."""
        if self.kind == "nodal":
            return self._energy_block, self._mass_block
        b = self.orthonormal_basis()
        return b.T @ (self.parent.energy_csr @ b), b.T @ (self.parent.mass_csr @ b)

    def embed(self, coords: np.ndarray) -> np.ndarray:
        """Map subspace coordinates back to ambient vectors."""
        coords = np.asarray(coords, dtype=float)
        if self.kind == "nodal":
            out = np.zeros((self.parent.dim,) + coords.shape[1:])
            out[self._indices] = coords
            return out
        return self.orthonormal_basis() @ coords

    # -- operators ----------------------------------------------------------

    def project_block(self, u: np.ndarray) -> np.ndarray:
        """Energy-orthogonal projection, applied columnwise."""
        return self._solve(self.parent.energy_csr @ self.parent.check_vector(u))

    def apply_k(self, u: np.ndarray) -> np.ndarray:
        """Compact solution operator on this subspace: (K u, v) = <u, v>."""
        return self._solve(self.parent.mass_csr @ self.parent.check_vector(u))

    def contains(self, u: np.ndarray, tol: float = 1e-8) -> bool:
        u = self.parent.check_vector(u)
        norm = self.parent.energy_norm(u)
        if norm == 0.0:
            return True
        return self.parent.energy_norm(u - self.project_block(u)) <= tol * norm

    def same_parent(self, other: "Subspace") -> None:
        if self.parent is not other.parent:
            raise ValueError("subspaces must share the same parent space")


@dataclass
class EigenDecomposition:
    """Eigenvalues of the restricted spectral problem, grouped into eigenspaces.

    ``values[g]`` is the g-th distinct eigenvalue, ``spaces[g]`` the ambient
    N x J_g matrix of energy-orthonormal eigenvectors, ``multiplicities[g]``
    its dimension.  ``complete`` records whether the whole spectrum was
    computed; for partial solves ``n_computed`` = sum of multiplicities.
    """

    values: np.ndarray
    spaces: list
    multiplicities: np.ndarray
    complete: bool
    spreads: np.ndarray = None  # per group: max |1/lam_i - 1/lam_mean| over members

    @property
    def n_groups(self) -> int:
        return len(self.values)

    @property
    def n_computed(self) -> int:
        return int(self.multiplicities.sum())

    def group(self, m: int) -> tuple[float, np.ndarray, int]:
        """1-based access: (eigenvalue, eigenspace basis, multiplicity)."""
        if not 1 <= m <= self.n_groups:
            raise IndexError(f"group index {m} outside 1..{self.n_groups}")
        return float(self.values[m - 1]), self.spaces[m - 1], int(self.multiplicities[m - 1])

    def flat_values(self) -> np.ndarray:
        """Eigenvalues repeated by multiplicity, ascending."""
        return np.repeat(self.values, self.multiplicities)

    def cumulative_sum(self, m: int) -> float:
        """Sum of the first m distinct eigenvalues."""
        return float(self.values[:m].sum())


# -- module operations -------------------------------------------------------


def embedding_constant(space: EnergySpace) -> float:
    """Smallest c0 with mass_norm(u) <= c0 * energy_norm(u) for all u."""
    theta, _ = solve_pencil(SymmetricPencil(space.mass_gram, space.energy_gram))
    return float(np.sqrt(max(theta[-1], 0.0)))


def apply_T2(h2: Subspace, phi: np.ndarray) -> np.ndarray:
    """Complement part phi - S2 phi."""
    phi = h2.parent.check_vector(phi)
    return phi - h2.project_block(phi)


def _nodal_pair(h1: Subspace, h2: Subspace) -> bool:
    return h1.kind == "nodal" and h2.kind == "nodal"


def _nodal_on(h1: Subspace, h2: Subspace, idx: np.ndarray) -> Subspace:
    """Nodal subspace on idx, a subset or a superset of both index sets; an
    operand with that index set is returned itself, so its factor is shared."""
    for sub in (h2, h1):
        if idx.size == sub.dim:
            return sub
    return Subspace.nodal(h1.parent, idx)


def _lanczos_top(sub: Subspace, matvec, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top k eigenpairs of the pencil (K, A_II) on the coordinates of a nodal
    subspace, K symmetric and applied by ``matvec``: Lanczos in the
    A_II-inner product on A_II^-1 K through the subspace's factor, from a
    seeded start vector.  The eigenvectors are A_II-orthonormal."""
    n = sub.dim
    try:
        return eigsh(
            LinearOperator((n, n), matvec=matvec, dtype=float),
            k=k,
            M=sub._energy_block,
            Minv=LinearOperator((n, n), matvec=sub._restricted_energy_solve, dtype=float),
            which="LA",
            tol=0,
            v0=np.random.default_rng(0).standard_normal(n),
        )
    except ArpackError as exc:
        raise PencilError(f"Lanczos eigensolve failed: {exc}") from exc


def _nodal_pencil_max(union: Subspace, plus: Subspace, minus: Subspace | None) -> float:
    """Largest eigenvalue of the pencil (D' M D, A) on the coordinates of union.

    D = S_plus - S_minus (S_minus = 0 when ``minus`` is None).  Both operands
    lie in ``union`` and D vanishes on its energy-orthogonal complement, so
    this is the maximum over the whole space.  A nodal projector is
    S = E A_II^-1 E' A, so D = G A and D' = A G with G the difference of the
    two embedded solves.  The eigenpair from :func:`_lanczos_top` is
    certified against the residual allowance of solve_pencil, with
    |K x| / |x| standing in for |K|_F, which it never exceeds.
    """
    a, m, a_uu = union.parent.energy_csr, union.parent.mass_csr, union._energy_block

    def g(w):
        gw = plus._solve(w)
        return gw if minus is None else gw - minus._solve(w)

    def numerator(coords):
        return (a @ g(m @ g(a @ union.embed(coords))))[union.indices]

    theta, vecs = _lanczos_top(union, numerator, 1)
    theta = float(theta[0])
    x = vecs[:, 0] / np.sqrt(vecs[:, 0] @ (a_uu @ vecs[:, 0]))  # A-normalized, as in solve_pencil
    kx, x_norm = numerator(x), np.linalg.norm(x)
    resid = np.linalg.norm(kx - theta * (a_uu @ x))
    allowed = 1e-9 * (np.linalg.norm(kx) / x_norm + abs(theta) * np.linalg.norm(a_uu.data))
    allowed *= max(1.0, x_norm)
    if not resid <= allowed:
        raise PencilError(
            f"Lanczos eigenpair certification failed: residual {resid:.3e} > allowed {allowed:.3e}"
        )
    return max(theta, 0.0)


def _sum_basis(h1: Subspace, h2: Subspace) -> np.ndarray:
    """Energy-orthonormal basis R'^-1 U of H1 + H2, R R' = A, from the SVD
    R' [Q1 Q2] = U S V' with the singular values above 1e-10 of the largest."""
    space = h1.parent
    stacked = space._root_t @ np.hstack([h1.orthonormal_basis(), h2.orthonormal_basis()])
    u, svals, _ = np.linalg.svd(stacked, full_matrices=False)
    rank = int(np.count_nonzero(svals > 1e-10 * svals[0]))
    return space._root_t_solve(u[:, :rank])


def _top_mass_form(space: EnergySpace, dq: np.ndarray) -> float:
    """Largest eigenvalue of (D Q)' M (D Q): the maximum of |D u|^2 over the
    unit-energy u in the span of the energy-orthonormal Q."""
    return form_extremes(dq.T @ (space.mass_csr @ dq))[1]


def sigma_distance(h1: Subspace, h2: Subspace) -> float:
    """Best constant in |(S1 - S2) u|^2 <= sigma ||u||^2 over the parent space."""
    h1.same_parent(h2)
    space = h1.parent
    if _nodal_pair(h1, h2):
        if np.array_equal(h1.indices, h2.indices):
            return 0.0
        return _nodal_pencil_max(_nodal_on(h1, h2, np.union1d(h1.indices, h2.indices)), h1, h2)
    # S1 - S2 vanishes on the energy-orthogonal complement of H1 + H2
    q = _sum_basis(h1, h2)
    return _top_mass_form(space, h1.project_block(q) - h2.project_block(q))


def intersection_subspace(h1: Subspace, h2: Subspace) -> Subspace | None:
    """H1 cap H2, or None when it is trivial.

    Nodal pairs intersect combinatorially through their index sets; when one
    contains the other the contained operand itself is returned, so its
    cached factorization is shared.  General pairs intersect through
    principal angles with cosine threshold 1 - 1e-10.  Cosines falling in
    the ambiguous band (1 - 1e-6, 1 - 1e-10) raise, with the full spectrum
    attached.
    """
    h1.same_parent(h2)
    space = h1.parent
    if _nodal_pair(h1, h2):
        inter = np.intersect1d(h1.indices, h2.indices, assume_unique=True)
        return None if inter.size == 0 else _nodal_on(h1, h2, inter)
    b1 = h1.orthonormal_basis()
    q1, q2 = space._root_t @ b1, space._root_t @ h2.orthonormal_basis()
    u, cosines, _ = np.linalg.svd(q1.T @ q2)
    cosines = np.clip(cosines, 0.0, None)
    ambiguous = (cosines > _COS_AMBIGUOUS) & (cosines < _COS_INTERSECT)
    if np.any(ambiguous):
        raise IllConditionedIntersectionError(cosines)
    k = int(np.count_nonzero(cosines >= _COS_INTERSECT))
    if k == 0:
        return None
    return Subspace.from_basis(space, b1 @ u[:, :k])


def sigma_star(h1: Subspace, h2: Subspace) -> float:
    """Best constant in |u|^2 <= sigma* ||u||^2 on (H1+H2) energy-orthogonal
    to H1 cap H2; zero when the sum equals the intersection."""
    h1.same_parent(h2)
    space = h1.parent
    inter = intersection_subspace(h1, h2)
    if _nodal_pair(h1, h2):
        if inter is h1 or inter is h2:
            # nested: the sum is the larger operand and the intersection the
            # smaller, so S_sum - S_inter = +-(S1 - S2) and sigma* = sigma
            return sigma_distance(h1, h2)
        union = _nodal_on(h1, h2, np.union1d(h1.indices, h2.indices))
        return _nodal_pencil_max(union, union, inter)
    q = _sum_basis(h1, h2)
    if inter is not None and q.shape[1] == inter.dim:
        return 0.0
    return _top_mass_form(space, q if inter is None else q - inter.project_block(q))


def solve_operator_eigs(
    sub: Subspace, group_tol: float = DEFAULT_GROUP_TOL, n_lowest: int | None = None
) -> EigenDecomposition:
    """Solve (phi, v) = lambda <phi, v> restricted to sub.

    Eigenvalues come out ascending, grouped into eigenspaces wherever the
    relative gap is at most ``group_tol``; each group's basis is
    energy-orthonormal in the ambient coordinates.  ``n_lowest`` asks for a
    partial spectrum (the trailing, possibly split group is dropped).

    A partial solve on a nodal subspace takes the top eigenpairs of
    (M_II, A_II), whose eigenvalues are 1/lambda, from :func:`_lanczos_top`;
    each pair is certified like solve_pencil, and the count of eigenvalues
    below a shift between the kept groups and the dropped one must equal the
    number kept, or :class:`PencilError` is raised.  Complete spectra and
    general subspaces are solved densely.
    """
    if group_tol <= 0:
        raise ValueError(f"group_tol must be positive, got {group_tol}")
    # (phi, v) = lambda <phi, v> restricted: A_res c = lambda M_res c
    a_res, m_res = sub.restricted_grams()
    d = sub.dim
    partial = n_lowest is not None and n_lowest < d
    request = min(d, n_lowest + 3) if partial else None
    lanczos = partial and sub.kind == "nodal" and request < d - 1
    if lanczos:
        theta, coords = _lanczos_top(sub, lambda x: m_res @ x, request)
        order = np.argsort(-theta, kind="stable")
        lam = 1.0 / theta[order]
        # A_II-orthonormal pairs of (M_II, A_II) become M_II-orthonormal ones
        coords = coords[:, order]
        coords *= np.sqrt(lam)
        _certify(a_res, m_res, lam, coords)
    else:
        dense = [g.toarray() if sp.issparse(g) else g for g in (a_res, m_res)]
        lam, coords = solve_pencil(SymmetricPencil(*dense), n_lowest=request)
    groups = _group_boundaries(lam, group_tol)
    if partial and len(groups) > 1:
        groups = groups[:-1]
    elif partial and len(groups) == 1 and request < d:
        raise PencilError(
            "partial solve cannot separate a trailing eigenvalue group; increase n_lowest"
        )
    if lanczos:
        # Lanczos can miss a copy of a degenerate eigenvalue; the dense solve cannot
        kept = groups[-1].stop
        shift = 0.5 * (lam[kept - 1] + lam[kept])
        below = _count_below(a_res, m_res, shift)
        if below != kept:
            raise PencilError(
                f"Lanczos kept {kept} eigenvalues, but {below} lie below {shift:.6e} "
                "by Sylvester inertia"
            )
    values, spaces, mults, spreads = [], [], [], []
    for sel in groups:
        lam_g = float(lam[sel].mean())
        block = coords[:, sel]
        # pencil vectors are A-orthonormal up to scaling by sqrt(lambda)
        block = block / np.sqrt(lam[sel])[np.newaxis, :]
        gram = block.T @ (a_res @ block)
        block = block @ _inv_sqrt(gram)
        ambient = sub.embed(block)
        _certify_group(sub, a_res, m_res, block, lam_g, lam[sel])
        values.append(lam_g)
        spaces.append(_fix_signs(ambient))
        mults.append(block.shape[1])
        spreads.append(float(np.abs(1.0 / lam[sel] - 1.0 / lam_g).max()))
    return EigenDecomposition(
        values=np.array(values),
        spaces=spaces,
        multiplicities=np.array(mults, dtype=int),
        complete=not partial,
        spreads=np.array(spreads),
    )


def _group_boundaries(lam: np.ndarray, tol: float) -> list:
    groups, start = [], 0
    for i in range(1, lam.size):
        if lam[i] - lam[i - 1] > tol * max(abs(lam[i]), abs(lam[i - 1])):
            groups.append(slice(start, i))
            start = i
    groups.append(slice(start, lam.size))
    return groups


def _inv_sqrt(gram: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (gram + gram.T))
    if w[0] <= 0:
        raise SubspaceRankError("eigenspace block lost rank during orthonormalization")
    return v @ np.diag(1.0 / np.sqrt(w)) @ v.T


def _certify_group(sub, a_res, m_res, block, lam_g, lam_members) -> None:
    # residual of K x = lambda_m^-1 x in the restricted energy norm; grouped
    # eigenvalues that are merely close (not equal) contribute their spread
    # in the reciprocal scale on top of the 1e-8 solver allowance
    k_block = sub._restricted_energy_solve(m_res @ block)
    resid = k_block - block / lam_g
    num = np.sqrt(np.maximum(np.einsum("ij,ij->j", resid, a_res @ resid), 0.0))
    den = np.sqrt(np.maximum(np.einsum("ij,ij->j", block, a_res @ block), 0.0))
    spread = float(np.abs(1.0 / lam_members - 1.0 / lam_g).max())
    if np.any(num > (1e-8 + spread) * den):
        raise PencilError(
            f"eigenrelation residual {num.max():.3e} exceeds the certified bound"
        )


def _energy_norms(space: EnergySpace, block: np.ndarray) -> np.ndarray:
    """Energy norm of a vector, or of each column of a block."""
    return np.sqrt(np.maximum(np.sum(block * (space.energy_csr @ block), axis=0), 0.0))


def corrector_block(h2: Subspace, block: np.ndarray, lam_m: float) -> np.ndarray:
    """Element of h2 carrying the eigen-residual of each column (or of a vector).

    Solves (psi, w) = (phi, w) - lam_m <phi, w> for all w in h2; the columns
    share one factorization.
    """
    space = h2.parent
    value = h2._solve(space.energy_csr @ block - lam_m * (space.mass_csr @ block))
    if h2.kind == "nodal":
        return value
    # the value lies in h2 by construction; a defect means the basis is suspect
    defect = _energy_norms(space, value - h2.project_block(value))
    if np.any(defect > 1e-10 * np.maximum(_energy_norms(space, value), 1.0)):
        raise ValueError("corrector left its subspace; restricted Gram is suspect")
    return value


def apply_B(h1: Subspace, h2: Subspace, v: np.ndarray) -> np.ndarray:
    """Bridge operator K2 S2 v - S2 K1 v for v in H1."""
    h1.same_parent(h2)
    space = h1.parent
    v = space.check_vector(v)
    norm = space.energy_norm(v)
    if norm > 0 and space.energy_norm(v - h1.project_block(v)) > 1e-8 * norm:
        raise NotInSubspaceError("apply_B requires its argument to lie in H1")
    return h2.apply_k(h2.project_block(v)) - h2.project_block(h1.apply_k(v))


@dataclass(frozen=True)
class EigenspaceImages:
    """Images of a reference eigenspace under the operators of a subspace pair.

    ``x`` is the energy-orthonormal N x J basis X of the eigenspace at
    eigenvalue ``lam``; ``s`` = S2 X, ``t`` = X - S2 X, ``psi`` holds the
    correctors of the columns in H2, and ``t0`` = X - S0 X with S0 the
    projector onto H1 cap H2.  Every per-cell quantity is a small J x J
    form in these blocks.
    """

    space: EnergySpace
    lam: float
    x: np.ndarray
    s: np.ndarray
    t: np.ndarray
    psi: np.ndarray
    t0: np.ndarray


def eigenspace_images(
    h1: Subspace, h2: Subspace, x_m: np.ndarray, lam_m: float, inter: Subspace | None
) -> EigenspaceImages:
    """Compute the images of X once; ``inter`` is intersection_subspace(h1, h2)."""
    h1.same_parent(h2)
    space = h1.parent
    x_m = np.atleast_2d(np.asarray(x_m, dtype=float))
    if x_m.shape[0] != space.dim:
        x_m = x_m.T
    gram = x_m.T @ (space.energy_csr @ x_m)
    if np.abs(gram - np.eye(gram.shape[0])).max() > 1e-8:
        raise ValueError("eigenspace basis must be energy-orthonormal")
    s_block = h2.project_block(x_m)
    return EigenspaceImages(
        space=space,
        lam=lam_m,
        x=x_m,
        s=s_block,
        t=x_m - s_block,
        psi=corrector_block(h2, x_m, lam_m),
        t0=x_m if inter is None else x_m - inter.project_block(x_m),
    )


def form_extremes(form: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the symmetrized form, clipped at 0."""
    theta = np.linalg.eigvalsh(0.5 * (form + form.T))
    return (float(max(theta[0], 0.0)), float(max(theta[-1], 0.0)))


def compute_rho(images: EigenspaceImages, sigma: float) -> float:
    """Remainder magnitude: max over unit-energy phi in the eigenspace of
    sigma ||Psi_phi||^2 + |T phi|^2 + |Psi_phi|^2.

    Assembled exactly as the largest eigenvalue of the induced quadratic
    form on the eigenspace coordinates.
    """
    a, m = images.space.energy_csr, images.space.mass_csr
    t, psi = images.t, images.psi
    form = sigma * (psi.T @ (a @ psi)) + t.T @ (m @ t) + psi.T @ (m @ psi)
    return form_extremes(form)[1]


def compute_rho0(images: EigenspaceImages) -> float:
    """Intersection-based remainder magnitude: max over unit-energy phi of
    ||T0 phi||^2 + ||Psi_phi||^2 with T0 = I - (projector onto H1 cap H2)."""
    a = images.space.energy_csr
    t0, psi = images.t0, images.psi
    return form_extremes(t0.T @ (a @ t0) + psi.T @ (a @ psi))[1]
