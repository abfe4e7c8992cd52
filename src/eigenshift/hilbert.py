"""Finite-dimensional model of a pair of nested spectral problems.

An :class:`EnergySpace` is R^N equipped with two inner products given by
Gram matrices: the energy product (u, v) = u' A v and the mass product
<u, v> = u' M v.  Closed subspaces carry energy-orthogonal projectors, and
the module provides the quantities that control how eigenvalues of the
associated compact operators move from one subspace to another: the
projector distance sigma, the complement constant sigma*, the bridge
operator B, correctors, and the remainder magnitudes rho and rho0.

The Grams are stored as CSR matrices only, and every form on a block of
vectors applies the sparse Gram to the N x J block first.  A subspace is
nodal: the span of the coordinate vectors at an index set, as carved from a
mesh.  That is no loss for pairs: in a basis adapted to H1 cap H2, H1 and
H2, any two subspaces are coordinate spans, and every quantity here is
invariant under the congruence A -> B'AB, M -> B'MB.  Every subspace
operator (projector, solution operator, corrector) is one representer
solve, :meth:`Subspace._solve`, with one cached sparse LU factor of the CSR
energy block A_II (on every index, the parent's factor of A).

One routine, :func:`_top_eigs`, finds the top eigenpairs of a pencil
(K, A_II): the complete dense pencil up to scipy's default Krylov size
max(2k + 1, 20), where ARPACK's Krylov space would be the whole subspace,
by LAPACK's generalized driver, and Lanczos through the factor from a seeded
start vector above it; each caller certifies every pair it reads once with
:func:`eigsolve._certify`, whose allowance is relative to |x|.  The
lowest eigenpairs of a subspace are the top ones of (M_II, A_II), and a
partial result must match the Sylvester inertia count below the gap above
it (spectrum slicing from sparse pivots).  sigma, sigma* and the embedding
constant are largest eigenvalues; a :class:`SubspacePair` decides once how
two subspaces relate and solves each of its pencils once.  Only the
abstract suite's counterexamples and grid oracle read the dense Gram views.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

from .eigsolve import NotPositiveDefiniteError, PencilError, _certify, _eigh, _fix_signs

__all__ = [
    "EnergySpace",
    "Subspace",
    "EigenDecomposition",
    "EigenspaceImages",
    "SubspacePair",
    "DimensionMismatchError",
    "SubspaceRankError",
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


class DimensionMismatchError(ValueError):
    """Vector or matrix does not match the ambient dimension."""


class SubspaceRankError(ValueError):
    """A subspace or an eigenspace block is empty or numerically rank deficient."""


class NotInSubspaceError(ValueError):
    """A vector required to lie in a subspace does not."""


def _index_array(values, error: type = DimensionMismatchError) -> np.ndarray:
    """The int array of an index list; ``error`` for any other dtype, which a
    cast would truncate (floats) or read as the indices 0 and 1 (a mask)."""
    values = np.asarray(values)
    if values.size and not np.issubdtype(values.dtype, np.integer):
        raise error(f"indices must be integers, got dtype {values.dtype}")
    return values.astype(int, copy=False)


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
    triangular, and its pivots D = diag(U), to which mat is congruent, so
    their signs are its inertia (Sylvester).  None when the factor is
    exactly singular or SuperLU left the diagonal (perm_r != perm_c), where
    that congruence fails."""
    try:
        lu = _symmetric_splu(mat)
    except RuntimeError:
        return None
    return (lu, lu.U.diagonal()) if np.array_equal(lu.perm_r, lu.perm_c) else None


def _count_below(a: sp.csr_array, m: sp.csr_array, gap: tuple[float, float]) -> int:
    """Number of eigenvalues of the pencil (a, m), m s.p.d., below the gap
    (lo, hi) between two of them: the negative inertia of a - shift m at
    every shift inside the gap (spectrum slicing), read from sparse pivots at
    the midpoint or else other points of it; PencilError if none shows it."""
    lo, hi = gap
    for shift in (0.5 * (lo + hi), *(lo + t * (hi - lo) for t in (0.25, 0.75, 0.125, 0.875))):
        factor = _symmetric_factor(a - shift * m)
        if factor is not None and lo < shift < hi:
            return int(np.count_nonzero(factor[1] < 0))
    raise PencilError(
        f"no shift inside the gap ({lo:.6e}, {hi:.6e}) gives symmetric sparse pivots"
    )


class EnergySpace:
    """Ambient space: dimension plus energy and mass Gram matrices.

    The Grams, given dense or sparse, are kept in CSR form (``energy_csr``,
    ``mass_csr``); ``energy_gram`` and ``mass_gram`` are dense views built
    on first use, for small spaces and reference checks.  Both Grams must be
    symmetric positive definite (which also guarantees the embedding
    constant is finite and positive).  Positive pivots of a symmetric sparse
    factorization must prove it at construction, or
    :class:`NotPositiveDefiniteError` is raised with the smallest pivot; no
    dense matrix is formed.  The energy factor is kept: a subspace on every
    index solves with it.
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
        definite; NotPositiveDefiniteError when they do not, carrying the
        factor's smallest pivot (NaN when no symmetric factor forms)."""
        factor = _symmetric_factor(csr)
        smallest = np.nan if factor is None else float(factor[1].min())
        if not smallest > 0:
            raise NotPositiveDefiniteError(name, smallest, "pivot")
        return factor[0]

    @cached_property
    def energy_gram(self) -> np.ndarray:
        return self.energy_csr.toarray()

    @cached_property
    def mass_gram(self) -> np.ndarray:
        return self.mass_csr.toarray()

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
    """Closed subspace of an :class:`EnergySpace`: the span of the coordinate
    vectors at a sorted index set I (nodal).

    Projections are energy orthogonal.  Every operator goes through one
    representer solve, :meth:`_solve`: E A_II^-1 rhs_I through a cached
    sparse LU of the CSR block A_II, so no dense N x N matrix is formed.  A
    subspace spanned by other vectors is a coordinate span after a
    congruence of the Grams (see the module docstring).
    """

    def __init__(self, parent: EnergySpace, indices):
        indices = np.unique(_index_array(indices))
        if indices.size and (indices[0] < 0 or indices[-1] >= parent.dim):
            raise DimensionMismatchError("nodal index out of range")
        if indices.size < 1:
            raise SubspaceRankError("nodal subspace needs a nonempty index set")
        self.parent = parent
        self.indices = indices
        self.dim = int(indices.size)

    @classmethod
    def nodal(cls, parent: EnergySpace, indices) -> "Subspace":
        return cls(parent, indices)

    # -- structure ----------------------------------------------------------

    @cached_property
    def _energy_block(self) -> sp.csr_array:
        """The CSR block A_II."""
        return self.parent.energy_csr[np.ix_(self.indices, self.indices)]

    @cached_property
    def _mass_block(self) -> sp.csr_array:
        """The CSR block M_II."""
        return self.parent.mass_csr[np.ix_(self.indices, self.indices)]

    @cached_property
    def _restricted_energy_solve(self):
        """Solver for A_II, factored on first use; a subspace on every index
        solves with the parent's factor."""
        if self.dim == self.parent.dim:
            return self.parent._energy_lu.solve
        return _symmetric_splu(self._energy_block).solve

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """The w in this subspace with (w, v) = rhs' v for every v in it,
        columnwise: E A_II^-1 rhs_I."""
        return self.embed(self._restricted_energy_solve(rhs[self.indices]))

    def restricted_grams(self):
        """The CSR blocks A_II, M_II of the energy and mass Grams."""
        return self._energy_block, self._mass_block

    def embed(self, coords: np.ndarray) -> np.ndarray:
        """Map subspace coordinates back to ambient vectors."""
        coords = np.asarray(coords, dtype=float)
        out = np.zeros((self.parent.dim,) + coords.shape[1:])
        out[self.indices] = coords
        return out

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


@dataclass
class EigenDecomposition:
    """Eigenvalues of the restricted spectral problem, grouped into eigenspaces.

    ``values[g]`` is the g-th distinct eigenvalue, ``spaces[g]`` the ambient
    N x J_g matrix of energy-orthonormal eigenvectors, ``multiplicities[g]``
    its dimension.  ``complete`` records whether the whole spectrum was
    computed; only a Lanczos solve keeps fewer pairs (``n_computed``).
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
    return float(np.sqrt(_pencil_max(space.whole(), lambda x: space.mass_csr @ x)))


def apply_T2(h2: Subspace, phi: np.ndarray) -> np.ndarray:
    """Complement part phi - S2 phi."""
    phi = h2.parent.check_vector(phi)
    return phi - h2.project_block(phi)


def _lanczos_top(sub: Subspace, matvec, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top k eigenpairs of the pencil (K, A_II) on the coordinates of a nodal
    subspace, K applied by ``matvec``: Lanczos in the A_II-inner product on
    A_II^-1 K through the subspace's factor, from a seeded start vector.
    A_II^-1 K need only be A_II-self-adjoint on the range of A_II^-1 K:
    ARPACK (mode 2, bmat='G') applies the operator to the start vector and
    to every restart vector before it uses them (dgetv0), so the Krylov
    space lies in that range.  The eigenvectors are A_II-orthonormal."""
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


def _top_eigs(sub: Subspace, apply_k, k: int, step=None) -> tuple[np.ndarray, np.ndarray, bool]:
    """Top k eigenpairs of a pencil (K, A_II) on the coordinates of a nodal
    subspace, descending and A_II-orthonormal, and whether they are all.  Up
    to scipy's default Krylov size max(2k + 1, 20), ``apply_k`` builds the
    complete dense pencil, and above it :func:`_lanczos_top` applies
    ``step``, which need only agree with K on the Krylov space.  The caller
    certifies the pairs it reads."""
    if sub.dim <= max(2 * k + 1, 20):
        kmat = apply_k(np.eye(sub.dim))
        theta, vecs = _eigh(0.5 * (kmat + kmat.T), sub._energy_block.toarray())
    else:
        theta, vecs = _lanczos_top(sub, step or apply_k, k)
    order = np.argsort(-theta, kind="stable")
    return theta[order], vecs[:, order], theta.size == sub.dim


def _pencil_max(union: Subspace, numerator, step=None) -> float:
    """Largest eigenvalue, clipped at 0, of a pencil (K, A_UU) on the
    coordinates of ``union``, K applied by ``numerator``: the certified top
    pair of :func:`_top_eigs`."""
    theta, vecs, _ = _top_eigs(union, numerator, 1, step)
    _certify(numerator, union._energy_block, theta[:1], vecs[:, :1])
    return max(float(theta[0]), 0.0)


class SubspacePair:
    """An ordered pair (H1, H2) of nodal subspaces of one parent, and how
    they relate, decided once from their index sets.

    ``union`` and ``inter`` are the subspaces on I1 u I2 and I1 cap I2 (None
    when trivial); an operand with that index set is used itself, so each
    index set is factored once.  ``direction`` follows: "equal" when the
    union is the intersection, "shrink" when it is H1, "expand" when it is
    H2, and "none" for a crossing pair.

    Each distance is the largest eigenvalue of a pencil (D' M D, A) on the
    union coordinates, solved once by :func:`_pencil_max`.  ``sigma_star``
    takes D = S_union - S_inter = P, P u = u - S_inter u (P = I with no
    intersection).  P is A-self-adjoint, so A_UU^-1 P' M = P A_UU^-1 M maps
    into range(P), where P' M P = P' M: Lanczos applies P' M alone, one
    solve with the intersection's factor per step.  ``sigma`` takes
    D = S1 - S2, which is +-P for a nested pair, so it is ``sigma_star``; a
    crossing pair solves D = G A, G the difference of two embedded solves.
    """

    def __init__(self, h1: Subspace, h2: Subspace):
        if h1.parent is not h2.parent:
            raise ValueError("subspaces must share the same parent space")
        self.h1, self.h2 = h1, h2
        self.union = self._on(np.union1d(h1.indices, h2.indices))
        inter = np.intersect1d(h1.indices, h2.indices, assume_unique=True)
        self.inter = None if inter.size == 0 else self._on(inter)

    def _on(self, idx: np.ndarray) -> Subspace:
        # idx holds or lies in both index sets, so an operand of its size is it
        for sub in (self.h2, self.h1):
            if idx.size == sub.dim:
                return sub
        return Subspace.nodal(self.h1.parent, idx)

    @property
    def direction(self) -> str:
        if self.union is self.inter:
            return "equal"
        if self.union is self.h1:
            return "shrink"
        return "expand" if self.union is self.h2 else "none"

    @cached_property
    def sigma_star(self) -> float:
        union, inter = self.union, self.inter
        if union is inter:
            return 0.0
        a, m = union.parent.energy_csr, union.parent.mass_csr

        def step(coords):
            md = m @ union.embed(coords)
            if inter is not None:
                md -= a @ inter._solve(md)
            return md[union.indices]

        def numerator(coords):
            if inter is not None:
                u = union.embed(coords)
                coords = (u - inter._solve(a @ u))[union.indices]
            return step(coords)

        return _pencil_max(union, numerator, step)

    @cached_property
    def sigma(self) -> float:
        if self.direction != "none":
            return self.sigma_star
        h1, h2, union = self.h1, self.h2, self.union
        a, m = union.parent.energy_csr, union.parent.mass_csr

        def g(w):
            return h1._solve(w) - h2._solve(w)

        def numerator(coords):
            return (a @ g(m @ g(a @ union.embed(coords))))[union.indices]

        return _pencil_max(union, numerator)


def sigma_distance(pair: SubspacePair) -> float:
    """Best constant in |(S1 - S2) u|^2 <= sigma ||u||^2 over the parent
    space: ``pair.sigma``, which a nested pair shares with sigma*."""
    return pair.sigma


def sigma_star(pair: SubspacePair) -> float:
    """Best constant in |u|^2 <= sigma* ||u||^2 on (H1+H2) energy-orthogonal
    to H1 cap H2, zero when the sum equals the intersection: ``pair.sigma_star``."""
    return pair.sigma_star


def intersection_subspace(h1: Subspace, h2: Subspace) -> Subspace | None:
    """H1 cap H2, or None when it is trivial: ``SubspacePair(h1, h2).inter``."""
    return SubspacePair(h1, h2).inter


def solve_operator_eigs(
    sub: Subspace, group_tol: float = DEFAULT_GROUP_TOL, n_lowest: int | None = None
) -> EigenDecomposition:
    """Solve (phi, v) = lambda <phi, v> restricted to sub.

    Eigenvalues come out ascending, grouped into eigenspaces wherever the
    relative gap is at most ``group_tol``; each group's basis is
    energy-orthonormal in the ambient coordinates.

    The eigenpairs are the top ones of (M_II, A_II), whose eigenvalues are
    1/lambda, from :func:`_top_eigs`: ``n_lowest + 3`` of them, or all when
    ``n_lowest`` is None, each certified once on that pencil.  A
    partial result drops its trailing, possibly split group, and
    :class:`PencilError` is raised unless the Sylvester count below the gap
    above the kept groups equals the number kept.  A complete result is
    returned whole.
    """
    if group_tol <= 0:
        raise ValueError(f"group_tol must be positive, got {group_tol}")
    # (phi, v) = lambda <phi, v> restricted: A_res c = lambda M_res c
    a_res, m_res = sub.restricted_grams()
    k = sub.dim if n_lowest is None else n_lowest + 3
    theta, coords, complete = _top_eigs(sub, lambda x: m_res @ x, k)
    _certify(m_res, a_res, theta, coords)
    lam = 1.0 / theta
    groups = _group_boundaries(lam, group_tol)
    if not complete:
        if len(groups) == 1:
            raise PencilError(
                "partial solve cannot separate a trailing eigenvalue group; increase n_lowest"
            )
        groups = groups[:-1]
        # Lanczos can miss a copy of a degenerate eigenvalue
        kept = groups[-1].stop
        below = _count_below(a_res, m_res, (lam[kept - 1], lam[kept]))
        if below != kept:
            raise PencilError(
                f"Lanczos kept {kept} eigenvalues, but {below} lie below the gap "
                f"({lam[kept - 1]:.6e}, {lam[kept]:.6e}) by Sylvester inertia"
            )
    blocks = np.empty((sub.dim, groups[-1].stop))
    for sel in groups:
        # pencil vectors are A-orthonormal up to rounding
        block = coords[:, sel]
        gram = block.T @ (a_res @ block)
        blocks[:, sel] = block @ _inv_sqrt(gram)
    # one certificate solve for all kept pairs
    k_blocks = sub._restricted_energy_solve(m_res @ blocks)
    values, spaces, mults, spreads = [], [], [], []
    for sel in groups:
        lam_g = float(lam[sel].mean())
        spread = float(np.abs(1.0 / lam[sel] - 1.0 / lam_g).max())
        block = blocks[:, sel]
        _certify_group(a_res, block, k_blocks[:, sel], lam_g, spread)
        values.append(lam_g)
        spaces.append(_fix_signs(sub.embed(block)))
        mults.append(block.shape[1])
        spreads.append(spread)
    return EigenDecomposition(
        values=np.array(values),
        spaces=spaces,
        multiplicities=np.array(mults, dtype=int),
        complete=complete,
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


def _certify_group(a_res, block, k_block, lam_g, spread) -> None:
    # residual of K x = lambda_m^-1 x in the restricted energy norm, with
    # k_block = K block; grouped eigenvalues that are merely close (not equal)
    # contribute their spread in the reciprocal scale on top of the 1e-8
    # solver allowance
    resid = k_block - block / lam_g
    num = np.sqrt(np.maximum(np.einsum("ij,ij->j", resid, a_res @ resid), 0.0))
    den = np.sqrt(np.maximum(np.einsum("ij,ij->j", block, a_res @ block), 0.0))
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
    return h2._solve(space.energy_csr @ block - lam_m * (space.mass_csr @ block))


def apply_B(pair: SubspacePair, v: np.ndarray) -> np.ndarray:
    """Bridge operator K2 S2 v - S2 K1 v for v in H1."""
    h1, h2 = pair.h1, pair.h2
    if not h1.contains(v):
        raise NotInSubspaceError("apply_B requires its argument to lie in H1")
    return h2.apply_k(h2.project_block(v)) - h2.project_block(h1.apply_k(v))


@dataclass(frozen=True)
class EigenspaceImages:
    """J x J forms on the images of a reference eigenspace under a subspace pair.

    X is the energy-orthonormal N x J basis of the eigenspace at eigenvalue
    ``lam``, with the images S2 X (kept as ``s``), T X = X - S2 X, the
    correctors Psi in H2, and T0 X = X - S0 X for S0 the projector onto
    H1 cap H2.  Every form a cell reads is taken once, and every per-cell
    quantity is built from them: ``psi_a_psi`` = Psi' A Psi, ``t_a_t`` =
    (T X)' A (T X), ``psi_a_x`` = Psi' A X, ``s_a_s`` = (S2 X)' A (S2 X),
    ``t0_a_t0`` = (T0 X)' A (T0 X), ``t_m_t`` = (T X)' M (T X) and
    ``psi_m_psi`` = Psi' M Psi.  A projection onto span(S2 X) solves with
    ``s_a_s``, so a cell builds no subspace of its own.
    """

    space: EnergySpace
    lam: float
    s: np.ndarray
    psi_a_psi: np.ndarray
    t_a_t: np.ndarray
    psi_a_x: np.ndarray
    s_a_s: np.ndarray
    t0_a_t0: np.ndarray
    t_m_t: np.ndarray
    psi_m_psi: np.ndarray


def eigenspace_images(pair: SubspacePair, x_m: np.ndarray, lam_m: float) -> EigenspaceImages:
    """Apply A and M to the images of X, a vector or an N x J block, once.
    T0 X is read from ``pair.direction``: it is T X when the intersection
    is H2 (equal and shrinking pairs), and zero when it is H1 (expanding
    pairs), which holds X.  Only a crossing pair's intersection is solved
    for."""
    space, h2 = pair.h1.parent, pair.h2
    a, m = space.energy_csr, space.mass_csr
    x_m = space.check_vector(x_m).reshape(space.dim, -1)
    gram = x_m.T @ (a @ x_m)
    if np.abs(gram - np.eye(gram.shape[0])).max() > 1e-8:
        raise ValueError("eigenspace basis must be energy-orthonormal")
    s_block = h2.project_block(x_m)
    t_block = x_m - s_block
    psi = corrector_block(h2, x_m, lam_m)
    a_psi = a @ psi
    t_a_t = t_block.T @ (a @ t_block)
    if pair.direction in ("equal", "shrink"):
        t0_a_t0 = t_a_t
    elif pair.direction == "expand":
        t0_a_t0 = np.zeros_like(t_a_t)
    else:
        t0 = x_m if pair.inter is None else x_m - pair.inter.project_block(x_m)
        t0_a_t0 = t0.T @ (a @ t0)
    return EigenspaceImages(
        space=space, lam=lam_m, s=s_block,
        psi_a_psi=psi.T @ a_psi, t_a_t=t_a_t, psi_a_x=a_psi.T @ x_m,
        s_a_s=s_block.T @ (a @ s_block), t0_a_t0=t0_a_t0,
        t_m_t=t_block.T @ (m @ t_block), psi_m_psi=psi.T @ (m @ psi),
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
    return form_extremes(sigma * images.psi_a_psi + images.t_m_t + images.psi_m_psi)[1]


def compute_rho0(images: EigenspaceImages) -> float:
    """Intersection-based remainder magnitude: max over unit-energy phi of
    ||T0 phi||^2 + ||Psi_phi||^2 with T0 = I - (projector onto H1 cap H2)."""
    return form_extremes(images.t0_a_t0 + images.psi_a_psi)[1]
