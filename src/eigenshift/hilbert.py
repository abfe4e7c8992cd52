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
solve, :meth:`Subspace._solve`, with the one sparse LU factor of the CSR
energy block A_II (on every index, the Gram itself) that the subspace
builds on first use; the space keeps none.  The inner operand of a nested
pair that removes at most 48 dofs solves through the union's factor
instead, by a capacitance correction (:class:`SubspacePair`), and builds
no factor.

A pencil (K, A_II) is solved by one switch, :func:`_top_pairs`: completely
by :func:`eigsolve.solve_pencil` up to scipy's default Krylov size
max(2k + 1, 20), where ARPACK's Krylov space would be the whole subspace,
and above it by Lanczos through the factor from a seeded start vector.
Every pair read is certified once with :func:`eigsolve._certify` (allowance
relative to |x|): a dense pair inside ``solve_pencil``, which solves every
dense pencil here, against the dense K it was solved from, and a Lanczos
pair by :func:`_top_pairs`.  The lowest eigenpairs of a subspace are the
top ones of (M_II, A_II), grown and checked as :func:`solve_operator_eigs`
states: only the slice it returns is proved complete, by Courant-Fischer
interlacing with the certified spectrum of a subspace that holds it
(:func:`_interlacing_gap`), or else by a Sylvester count from sparse pivots
(:func:`_count_below`).  Grams definite by construction (``fem2d.assemble``)
are not factored; any others are proved definite by their pivots.  sigma,
sigma* and the embedding constant are largest eigenvalues (:func:`_pencil_max`);
a :class:`SubspacePair` decides once how two subspaces relate and solves each
of its pencils once, densely on the removed dofs where it solves through the
union.  Only the abstract suite's counterexamples and grid oracle read the
dense Gram views.  The solvers note their work only inside an
:func:`eigsolve.census` block (``hilbert.census`` is the same class), and
no computation reads the notes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

from .eigsolve import NotPositiveDefiniteError, PencilError, SymmetricPencil, solve_pencil
from .eigsolve import _certify, _fix_signs, _note, census

__all__ = [
    "EnergySpace",
    "Subspace",
    "EigenDecomposition",
    "EigenspaceImages",
    "SubspacePair",
    "DimensionMismatchError",
    "SubspaceRankError",
    "NotInSubspaceError",
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

# a certified group's relative residual past its spread; the interlacing edge adds it too
_SOLVER_ALLOWANCE = 1e-8

# the most dofs R a nested pair may remove and still solve through the union's
# factor (SubspacePair); measured in CHANGES.md
_CAPACITANCE_MAX = 48


class DimensionMismatchError(ValueError):
    """Vector or matrix does not match the ambient dimension."""


class SubspaceRankError(ValueError):
    """A nodal subspace was given an empty index set."""


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
    """The pivots D = diag(U) of a symmetric sparse factor P mat P' = L U,
    U = D L', to which mat is congruent, so their signs are its inertia
    (Sylvester); the factor is not kept.  None when it is exactly singular
    or SuperLU left the diagonal (perm_r != perm_c), where that fails."""
    try:
        lu = _symmetric_splu(mat)
    except RuntimeError:
        return None
    return lu.U.diagonal() if np.array_equal(lu.perm_r, lu.perm_c) else None


def _count_below(a: sp.csr_array, m: sp.csr_array, gap: tuple[float, float]) -> int:
    """Number of eigenvalues of the pencil (a, m), m s.p.d., below the gap
    (lo, hi) between two of them: the negative inertia of a - shift m at
    every shift inside the gap (spectrum slicing), read from sparse pivots at
    the midpoint or else other points of it; PencilError if none shows it."""
    lo, hi = gap
    for shift in (0.5 * (lo + hi), *(lo + t * (hi - lo) for t in (0.25, 0.75, 0.125, 0.875))):
        _note("factors", ("count", a.shape[0]))
        pivots = _symmetric_factor(a - shift * m)
        if pivots is not None and lo < shift < hi:
            _note("counts", a.shape[0])
            return int(np.count_nonzero(pivots < 0))
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
    factorization of each prove it at construction, or
    :class:`NotPositiveDefiniteError` is raised with the smallest pivot; no
    dense matrix is formed and no factor is kept (a :class:`Subspace`
    factors its own block).  ``definite`` skips both; only a proof by
    construction may set it (``fem2d.assemble``).
    """

    def __init__(self, energy_gram, mass_gram, *, definite: bool = False):
        self.energy_csr = _check_gram(energy_gram, "energy_gram")
        self.mass_csr = _check_gram(mass_gram, "mass_gram")
        if self.energy_csr.shape != self.mass_csr.shape:
            raise ValueError("energy_gram and mass_gram must have the same shape")
        self.dim = self.energy_csr.shape[0]
        for name in () if definite else ("energy", "mass"):
            _note("factors", ("space", self.dim))
            pivots = _symmetric_factor(getattr(self, f"{name}_csr"))
            smallest = np.nan if pivots is None else float(pivots.min())
            if not smallest > 0:
                raise NotPositiveDefiniteError(f"{name}_gram", smallest, "pivot")

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
        """The whole space as a nodal subspace, the same one on every call."""
        if "_whole" not in self.__dict__:
            self._whole = Subspace(self, np.arange(self.dim))
        return self._whole


class Subspace:
    """Closed subspace of an :class:`EnergySpace`: the span of the coordinate
    vectors at a sorted index set I (nodal).

    Projections are energy orthogonal.  Every operator goes through one
    representer solve, :meth:`_solve`: E A_II^-1 rhs_I through the one
    sparse LU of the CSR block A_II, built on first use (no dense N x N
    matrix is formed), or through the solver that a :class:`SubspacePair`
    hands it before then (:meth:`_take_solver`), in which case A_II is not
    factored.  A subspace spanned by other vectors is a coordinate span
    after a congruence of the Grams (see the module docstring).
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

    # -- structure ----------------------------------------------------------

    def _block(self, gram: sp.csr_array) -> sp.csr_array:
        """The CSR block of a parent Gram on I x I: the Gram itself on every index."""
        return gram if self.dim == self.parent.dim else gram[np.ix_(self.indices, self.indices)]

    @cached_property
    def _energy_block(self) -> sp.csr_array:
        """The CSR block A_II."""
        return self._block(self.parent.energy_csr)

    @cached_property
    def _mass_block(self) -> sp.csr_array:
        """The CSR block M_II."""
        return self._block(self.parent.mass_csr)

    @cached_property
    def _restricted_energy_solve(self):
        """Solver for A_II, factored on first use."""
        _note("factors", ("solve", self.dim))
        return _symmetric_splu(self._energy_block).solve

    def _take_solver(self, solve) -> None:
        """Solve with A_II through ``solve`` from now on, unless a solver for
        it is already in place: a :class:`SubspacePair` hands its inner
        operand the capacitance solve."""
        self.__dict__.setdefault("_restricted_energy_solve", solve)

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """The w in this subspace with (w, v) = rhs' v for every v in it,
        columnwise: E A_II^-1 rhs_I."""
        _note("solves", (self.dim, 1 if rhs.ndim == 1 else rhs.shape[1]))
        return self.embed(self._restricted_energy_solve(rhs[self.indices]))

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

    def contains(self, u: np.ndarray) -> bool:
        u = self.parent.check_vector(u)
        norm = self.parent.energy_norm(u)
        if norm == 0.0:
            return True
        return self.parent.energy_norm(u - self.project_block(u)) <= 1e-8 * norm


@dataclass
class EigenDecomposition:
    """The kept eigenvalues ``lam`` ascending, the ambient N x n block
    ``vectors`` of their energy-orthonormal eigenvectors, and the slices
    ``groups`` of both that form the eigenvalue groups.  Each group's mean
    ``values[g]``, size ``multiplicities[g]`` and splitting ``spreads[g]`` =
    max |1/lam_i - 1/values[g]| derive from them, once.  ``complete`` records
    whether the whole spectrum was computed; only Lanczos keeps fewer pairs.
    """

    lam: np.ndarray
    vectors: np.ndarray
    groups: list
    complete: bool

    @cached_property
    def values(self) -> np.ndarray:
        return np.array([self.lam[sel].mean() for sel in self.groups])

    @cached_property
    def multiplicities(self) -> np.ndarray:
        return np.array([sel.stop - sel.start for sel in self.groups], dtype=int)

    @cached_property
    def spreads(self) -> np.ndarray:
        pairs = zip(self.groups, self.values)
        return np.array([np.abs(1.0 / self.lam[sel] - 1.0 / mean).max() for sel, mean in pairs])

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_computed(self) -> int:
        return int(self.lam.size)

    def group(self, m: int) -> tuple[float, np.ndarray, int]:
        """1-based access: (eigenvalue, eigenspace basis, multiplicity)."""
        if not 1 <= m <= self.n_groups:
            raise IndexError(f"group index {m} outside 1..{self.n_groups}")
        sel = self.groups[m - 1]
        return float(self.values[m - 1]), self.vectors[:, sel], int(self.multiplicities[m - 1])

    def head(self, g: int) -> "EigenDecomposition":
        """The partial decomposition of the first g groups."""
        stop = self.groups[g - 1].stop
        return EigenDecomposition(self.lam[:stop], self.vectors[:, :stop], self.groups[:g], False)

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
    n, applied = sub.dim, [0]
    _note("lanczos", n)

    def counted(coords):
        applied[0] += 1
        return matvec(coords)

    try:
        return eigsh(
            LinearOperator((n, n), matvec=counted, dtype=float),
            k=k,
            M=sub._energy_block,
            Minv=LinearOperator((n, n), matvec=sub._restricted_energy_solve, dtype=float),
            which="LA",
            tol=0,
            v0=np.random.default_rng(0).standard_normal(n),
        )
    except ArpackError as exc:
        raise PencilError(f"Lanczos eigensolve failed: {exc}") from exc
    finally:
        _note("applications", applied[0])


def _top_pairs(sub: Subspace, kmat, k: int, step=None) -> tuple[np.ndarray, np.ndarray]:
    """At least the top k eigenpairs of a pencil (K, A_II) on the coordinates
    of ``sub``, K applied by ``kmat``, each certified once.  Up to scipy's
    default Krylov size max(2k + 1, 20) every pair, ascending, by
    :func:`eigsolve.solve_pencil` on K = kmat(I); above it the top k by
    Lanczos applying ``step``, which need only agree with K on the Krylov
    space, certified through ``kmat``."""
    if sub.dim <= max(2 * k + 1, 20):
        return solve_pencil(SymmetricPencil(kmat(np.eye(sub.dim)), sub._energy_block.toarray()))
    theta, vecs = _lanczos_top(sub, step or kmat, k)
    _certify(kmat, sub._energy_block, theta, vecs)
    return theta, vecs


def _pencil_max(union: Subspace, numerator, step=None) -> float:
    """Largest eigenvalue, clipped at 0, of a pencil (K, A_UU) on the
    coordinates of ``union``, K applied by ``numerator``: :func:`_top_pairs`."""
    return max(float(_top_pairs(union, numerator, 1, step)[0][-1]), 0.0)


class SubspacePair:
    """An ordered pair (H1, H2) of nodal subspaces of one parent, and how
    they relate, decided once from their index sets.

    ``union`` and ``inter`` are the subspaces on I1 u I2 and I1 cap I2 (None
    when trivial); an operand with that index set is used itself, so each
    index set is factored once.  ``direction`` follows: "equal" when the
    union is the intersection, "shrink" when it is H1, "expand" when it is
    H2, and "none" for a crossing pair.

    Each distance is the largest eigenvalue of a pencil (D' M D, A) on the
    union coordinates, solved once.  ``sigma_star`` takes
    D = S_union - S_inter = P, P u = u - S_inter u (P = I with no
    intersection), and ``sigma`` takes D = S1 - S2, which is +-P for a nested
    pair, so it is ``sigma_star``.

    The removed set alone routes a nested pair.  When its inner operand lacks
    at most ``_CAPACITANCE_MAX`` of the union's dofs, the set R, ``removed``
    is |R| (0 on any other pair).  range(P) is spanned by W = A_UU^-1 E_R,
    built once, and W' A_UU W = E_R' W = C, the capacitance matrix, so sigma*
    is the top eigenvalue of the dense |R| x |R| pencil (W' M_UU W, C), which
    :func:`eigsolve.solve_pencil` certifies as the largest.  The pair hands
    its inner operand the capacitance solve of :func:`_capacitance_solve`
    (Buzbee, Dorr, George & Golub, SIAM J. Numer. Anal. 8, 1971): unless that
    operand already solves with a factor of its own, no factor of A_II is
    built.  A
    crossing pair, or a nested one that removes more, solves on the union by
    :func:`_pencil_max`.  There P is A-self-adjoint, so A_UU^-1 P' M =
    P A_UU^-1 M maps into range(P), where P' M P = P' M: Lanczos applies
    P' M alone, one solve with the intersection's factor per step; a crossing
    pair's sigma solves D = G A, G the difference of two embedded solves.
    """

    def __init__(self, h1: Subspace, h2: Subspace):
        if h1.parent is not h2.parent:
            raise ValueError("subspaces must share the same parent space")
        self.h1, self.h2 = h1, h2
        self.union = self._on(np.union1d(h1.indices, h2.indices))
        inter = np.intersect1d(h1.indices, h2.indices, assume_unique=True)
        self.inter = None if inter.size == 0 else self._on(inter)
        self.removed = 0
        few = self.union.dim - inter.size <= _CAPACITANCE_MAX
        if self.direction in ("shrink", "expand") and few:
            self._solve_inner_through_union()

    def _on(self, idx: np.ndarray) -> Subspace:
        # idx holds or lies in both index sets, so an operand of its size is it
        for sub in (self.h2, self.h1):
            if idx.size == sub.dim:
                return sub
        return Subspace(self.h1.parent, idx)

    def _solve_inner_through_union(self) -> None:
        union, inner = self.union, self.inter
        kept = np.isin(union.indices, inner.indices, assume_unique=True)
        removed = np.flatnonzero(~kept)
        self.removed = removed.size
        _note("through_union", self.removed)
        e_r = np.zeros((union.dim, removed.size))
        e_r[removed, np.arange(removed.size)] = 1.0
        self._w = w = union._restricted_energy_solve(e_r)
        self._c = c = 0.5 * (w[removed] + w[removed].T)
        inner._take_solver(
            partial(_capacitance_solve, union._restricted_energy_solve, w, sla.cho_factor(c), kept)
        )

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
        if self.removed:
            kmat = self._w.T @ (union._mass_block @ self._w)
            return max(float(solve_pencil(SymmetricPencil(kmat, self._c))[0][-1]), 0.0)
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


def _capacitance_solve(union_solve, w: np.ndarray, c_factor, kept: np.ndarray, rhs):
    """A_II^-1 rhs, columnwise, for I the ``kept`` coordinates of a union U
    and R the rest, through ``union_solve`` (A_UU^-1): with y = A_UU^-1 [rhs; 0],
    x = y - W C^-1 y_R vanishes on R, and A_UU x = [rhs; 0] - E_R C^-1 y_R
    equals rhs on I.  W = A_UU^-1 E_R, and ``c_factor`` factors C = E_R' W."""
    y = np.zeros(kept.shape + rhs.shape[1:])
    y[kept] = rhs
    y = union_solve(y)
    y -= w @ sla.cho_solve(c_factor, y[~kept])
    return y[kept]


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


def _lowest_attempt(sub: Subspace, group_tol: float, n: int | None):
    """An attempt of :func:`solve_operator_eigs` for n, which certifies the
    top n + 3 pairs of (M_II, A_II), or all when n is None: its kept groups,
    with the solver's coordinates on sub as vectors, and every eigenvalue it
    computed, ascending."""
    # (phi, v) = lambda <phi, v> restricted: A_res c = lambda M_res c
    _note("requests", n)
    m_res = sub._mass_block
    theta, coords = _top_pairs(sub, lambda x: m_res @ x, sub.dim if n is None else n + 3)
    order = np.argsort(-theta, kind="stable")
    theta, coords, complete = theta[order], coords[:, order], theta.size == sub.dim
    lam = 1.0 / theta
    groups = _group_boundaries(lam, group_tol)[: None if complete else -1]
    kept = groups[-1].stop if groups else 0
    return EigenDecomposition(lam[:kept], coords[:, :kept], groups, complete), lam


def solve_operator_eigs(
    sub: Subspace,
    group_tol: float,
    n_lowest: int | None = None,
    outer: EigenDecomposition | None = None,
    enough=lambda eigs: eigs.n_groups > 0,
) -> EigenDecomposition:
    """Solve (phi, v) = lambda <phi, v> restricted to sub.

    Eigenvalues come out ascending, grouped wherever the relative gap is at
    most ``group_tol``, with the eigenvectors as the solver returned them,
    A_II-orthonormal (LAPACK's generalized driver, or ARPACK in mode 2 with
    M = A_II), sign-fixed once.

    The eigenpairs are the top ones of (M_II, A_II), whose eigenvalues are
    1/lambda, from :func:`_lowest_attempt`.  The request grows here alone: an
    attempt for n asks ``n + 3`` pairs, or all when n is None, each passing
    :func:`eigsolve._certify` on that pencil, and a partial attempt drops
    its trailing, possibly split group.  From ``n_lowest``, n doubles until
    the kept groups satisfy ``enough`` (by default, that one is kept) or the
    spectrum is complete.  Only the attempt returned is checked further, and
    a miss raises :class:`PencilError`: each kept group passes
    :func:`_certify_group`, and a partial result must hold every eigenvalue
    below its last kept one.  Given ``outer``, the certified decomposition
    of a subspace that holds sub, interlacing proves that without a factor
    (:func:`_interlacing_gap`) at the largest group boundary where it holds
    and the truncated decomposition still satisfies ``enough``; the result
    is truncated there.  Otherwise the Sylvester count below the gap above
    the kept groups must equal the number kept.
    """
    if group_tol <= 0:
        raise ValueError(f"group_tol must be positive, got {group_tol}")
    if n_lowest is not None and n_lowest < 1:  # a request of 0 cannot double
        raise ValueError(f"n_lowest must be positive, got {n_lowest}")
    eigs, lam = _lowest_attempt(sub, group_tol, n_lowest)
    while not (eigs.complete or enough(eigs)):
        n_lowest *= 2
        eigs, lam = _lowest_attempt(sub, group_tol, n_lowest)
    a_res, m_res = sub._energy_block, sub._mass_block
    groups, kept, blocks = eigs.groups, eigs.n_computed, eigs.vectors
    eigs = EigenDecomposition(eigs.lam, _fix_signs(sub.embed(blocks)), groups, eigs.complete)
    # one certificate solve for all kept pairs
    k_blocks = sub._restricted_energy_solve(m_res @ blocks)
    for sel, lam_g, spread in zip(groups, eigs.values, eigs.spreads):
        _certify_group(a_res, blocks[:, sel], k_blocks[:, sel], lam_g, spread)
    if eigs.complete:
        return eigs
    if outer is not None:
        for g in range(len(groups), 0, -1):
            head = eigs.head(g)
            if enough(head) and _interlacing_gap(a_res, m_res, blocks[:, :head.n_computed], outer):
                _note("interlaced", sub.dim)
                return head
    # Lanczos can miss a copy of a degenerate eigenvalue
    below = _count_below(a_res, m_res, (lam[kept - 1], lam[kept]))
    if below != kept:
        raise PencilError(
            f"Lanczos kept {kept} eigenvalues, but {below} lie below the gap "
            f"({lam[kept - 1]:.6e}, {lam[kept]:.6e}) by Sylvester inertia"
        )
    return eigs


def _interlacing_gap(a_res, m_res, block: np.ndarray, outer: EigenDecomposition):
    """The gap (q, t) in which the pencil (a_res, m_res) of a subspace H2 of
    the outer subspace H1 has exactly j eigenvalues below every shift, j the
    columns of ``block``, or None when interlacing does not prove one.

    q is the largest Rayleigh quotient on span(block), the top eigenvalue of
    the dense j x j pencil (V'AV, V'MV), certified by solve_pencil on
    (V'MV, V'AV), so mu_j <= q (Courant-Fischer).
    t is the least value that ``outer``'s lambda_{j+1} can take, with
    j < ``outer.n_computed`` so that it lies in the certified slice: in the
    reciprocal scale, its group's mean plus the spread and the solver
    allowance of :func:`_certify_group`.  H2 in H1 gives mu_i >= lambda_i, so
    N2(s) <= N1(s) for every s; for q < s < t, j <= N2(s) <= N1(s) <= j."""
    j = block.shape[1]
    if j >= outer.n_computed:
        return None
    g = next(i for i, sel in enumerate(outer.groups) if j < sel.stop)
    # the smallest reciprocal Rayleigh quotient of span(block) is 1/q
    pencil = SymmetricPencil(block.T @ (m_res @ block), block.T @ (a_res @ block))
    theta = solve_pencil(pencil)[0][0]
    edge = 1.0 / outer.values[g] + outer.spreads[g] + _SOLVER_ALLOWANCE
    return (1.0 / theta, 1.0 / edge) if theta > edge else None


def _group_boundaries(lam: np.ndarray, tol: float) -> list:
    groups, start = [], 0
    for i in range(1, lam.size):
        if lam[i] - lam[i - 1] > tol * max(abs(lam[i]), abs(lam[i - 1])):
            groups.append(slice(start, i))
            start = i
    groups.append(slice(start, lam.size))
    return groups


def _certify_group(a_res, block, k_block, lam_g, spread) -> None:
    # residual of K x = lambda_m^-1 x in the restricted energy norm, lambda_m
    # the group mean, with k_block = K block from one solve for all kept
    # columns; grouped eigenvalues that are merely close (not equal)
    # contribute their spread in the reciprocal scale on top of the solver
    # allowance
    num = _energy_norms(a_res, k_block - block / lam_g)
    den = _energy_norms(a_res, block)
    if np.any(num > (_SOLVER_ALLOWANCE + spread) * den):
        raise PencilError(f"eigenrelation residual {num.max():.3e} exceeds the certified bound")


def _energy_norms(a, block: np.ndarray) -> np.ndarray:
    """Norm in the Gram ``a`` of a vector, or of each column of a block."""
    return np.sqrt(np.maximum(np.sum(block * (a @ block), axis=0), 0.0))


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
