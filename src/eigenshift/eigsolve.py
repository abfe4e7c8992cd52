"""Dense symmetric generalized eigenvalue kernel with residual certification.

Dense spectral computations funnel through :func:`solve_pencil`, so their
ordering, sign conventions and residual checks are uniform.  The lowest
eigenpairs of a nodal subspace come instead from the Lanczos routine of
:mod:`hilbert`, as the top eigenpairs of (M_II, A_II); those pairs pass the
same residual allowance (:func:`_certify`, on the sparse blocks), and a
Sylvester inertia count certifies that no eigenvalue below the kept ones
was missed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SymmetricPencil",
    "PencilError",
    "NotPositiveDefiniteError",
    "solve_pencil",
    "count_in_interval",
]

# relative asymmetry above which symmetrization is reported loudly
_ASYM_WARN = 1e-9


class PencilError(ValueError):
    """Invalid pencil or failed eigensolve."""


class NotPositiveDefiniteError(PencilError):
    """Matrix expected to be positive definite is not.

    Carries the offending matrix's smallest eigenvalue in ``smallest_eig``.
    """

    def __init__(self, name: str, smallest_eig: float):
        self.name = name
        self.smallest_eig = smallest_eig
        super().__init__(
            f"{name} is not positive definite (smallest eigenvalue {smallest_eig:.6e})"
        )


def _cholesky(mat: np.ndarray, name: str) -> np.ndarray:
    """Lower Cholesky factor, or NotPositiveDefiniteError naming the matrix."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(name, float(np.linalg.eigvalsh(mat)[0])) from None


def _symmetrize(mat: np.ndarray, name: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise PencilError(f"{name} must be square, got shape {mat.shape}")
    scale = np.abs(mat).max()
    asym = np.abs(mat - mat.T).max()
    if scale > 0 and asym > _ASYM_WARN * scale:
        warnings.warn(
            f"{name} deviates from symmetry by {asym / scale:.3e} (relative); "
            "symmetrizing, but the assembly that produced it should be checked",
            stacklevel=3,
        )
    return 0.5 * (mat + mat.T)


@dataclass
class SymmetricPencil:
    """Pair (a, b) of a symmetric matrix and an s.p.d. right-hand matrix.

    Both matrices are symmetrized on construction; asymmetry beyond 1e-9
    relative triggers a warning rather than silent repair.
    """

    a: np.ndarray
    b: np.ndarray
    _b_cho: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.a = _symmetrize(self.a, "a")
        self.b = _symmetrize(self.b, "b")
        if self.a.shape != self.b.shape:
            raise PencilError(
                f"pencil matrices must share a shape, got {self.a.shape} and {self.b.shape}"
            )
        self._b_cho = _cholesky(self.b, "b")

    @property
    def dim(self) -> int:
        return self.a.shape[0]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: largest-magnitude entry positive."""
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        k = int(np.argmax(np.abs(col)))
        if col[k] < 0:
            vectors[:, j] = -col
    return vectors


def _certify(a, b, theta: np.ndarray, vectors: np.ndarray) -> None:
    """Residual check of the pairs of a x = theta b x; a and b are dense or sparse."""
    norm = spla.norm if sp.issparse(a) else np.linalg.norm
    norm_a = norm(a)
    norm_b = norm(b)
    resid = a @ vectors - b @ vectors * theta[np.newaxis, :]
    resid_norms = np.linalg.norm(resid, axis=0)
    vec_norms = np.maximum(1.0, np.linalg.norm(vectors, axis=0))
    allowed = 1e-9 * (norm_a + np.abs(theta) * norm_b) * vec_norms
    bad = resid_norms > allowed
    if np.any(bad):
        k = int(np.argmax(resid_norms - allowed))
        raise PencilError(
            f"eigenpair residual certification failed: index {k}, "
            f"residual {resid_norms[k]:.3e} > allowed {allowed[k]:.3e}"
        )


def solve_pencil(
    pencil: SymmetricPencil, n_lowest: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Solve a x = theta b x.

    Returns eigenvalues ascending and b-orthonormal eigenvectors (columns),
    signs fixed so the largest-magnitude entry of each vector is positive.
    Residuals are certified against 1e-9*(|a|_F + |theta| |b|_F) per vector.

    ``n_lowest`` limits the solve to the lowest eigenpairs (same reduction,
    partial back-end extraction); None means the full spectrum.
    """
    n = pencil.dim
    if n_lowest is not None and not 1 <= n_lowest <= n:
        raise PencilError(f"n_lowest must be in [1, {n}], got {n_lowest}")
    if n_lowest is None or n_lowest >= n:
        # reduce via the Cholesky factor of b, then a dense symmetric solve
        ell = pencil._b_cho
        c = sla.solve_triangular(ell, pencil.a, lower=True)
        c = sla.solve_triangular(ell, c.T, lower=True).T
        c = 0.5 * (c + c.T)
        try:
            theta, y = np.linalg.eigh(c)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise PencilError(f"dense symmetric eigensolve failed: {exc}") from exc
        vectors = sla.solve_triangular(ell, y, lower=True, trans="T")
    else:
        try:
            theta, vectors = sla.eigh(
                pencil.a, pencil.b, subset_by_index=(0, n_lowest - 1), driver="gvx"
            )
        except sla.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise PencilError(f"partial generalized eigensolve failed: {exc}") from exc
    order = np.argsort(theta, kind="stable")
    theta = theta[order]
    vectors = _fix_signs(vectors[:, order])
    _certify(pencil.a, pencil.b, theta, vectors)
    return theta, vectors


def count_in_interval(eigenvalues: np.ndarray, lo: float, hi: float) -> int:
    """Number of eigenvalues in the open interval (lo, hi), with multiplicity."""
    if not lo < hi:
        raise ValueError(f"interval bounds must satisfy lo < hi, got ({lo}, {hi})")
    vals = np.asarray(eigenvalues, dtype=float)
    return int(np.count_nonzero((vals > lo) & (vals < hi)))
