"""Dense symmetric generalized eigenvalue kernel with residual certification.

:func:`solve_pencil` solves, and returns, a complete dense pencil with a
uniform ordering, sign convention and residual check (:func:`_certify`).
Every dense pencil goes through LAPACK's generalized driver (:func:`_eigh`).
``hilbert._top_eigs`` calls it up to scipy's default Krylov size
max(2k + 1, 20), runs Lanczos above it and certifies nothing: its callers
certify each pair once with :func:`_certify`, which also takes K as a
callback.  Only Lanczos gives a partial spectrum, and a Sylvester inertia
count from sparse pivots inside the gap above the kept pairs certifies that
none below them was missed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SymmetricPencil",
    "PencilError",
    "NotPositiveDefiniteError",
    "solve_pencil",
]

# relative asymmetry above which symmetrization is reported loudly
_ASYM_WARN = 1e-9


class PencilError(ValueError):
    """Invalid pencil or failed eigensolve."""


class NotPositiveDefiniteError(PencilError):
    """Matrix expected to be positive definite is not.

    Carries the offending matrix's smallest eigenvalue in ``smallest_eig``,
    or the smallest pivot of its sparse factor where ``quantity`` is "pivot".
    """

    def __init__(self, name: str, smallest_eig: float, quantity: str = "eigenvalue"):
        self.name = name
        self.smallest_eig = smallest_eig
        super().__init__(
            f"{name} is not positive definite (smallest {quantity} {smallest_eig:.6e})"
        )


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
    relative triggers a warning rather than silent repair.  An indefinite b
    raises NotPositiveDefiniteError.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = _symmetrize(self.a, "a")
        self.b = _symmetrize(self.b, "b")
        if self.a.shape != self.b.shape:
            raise PencilError(
                f"pencil matrices must share a shape, got {self.a.shape} and {self.b.shape}"
            )
        try:
            np.linalg.cholesky(self.b)
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError("b", float(np.linalg.eigvalsh(self.b)[0])) from None

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
    """Residual check of the pairs of a x = theta b x, b dense or sparse, a of the same kind
    or a callback applying it, whose |a x| / |x| stands in for |a|_F (never above it).
    The allowance 1e-9 (|a| + |theta| |b|_F) |x| ignores the scale of x, and
    (x, theta) of (a, b) passes exactly when (x, 1/theta) of (b, a) does."""
    norm = spla.norm if sp.issparse(b) else np.linalg.norm
    vec_norms = np.linalg.norm(vectors, axis=0)
    if callable(a):
        a_vecs = a(vectors)
        norm_a = np.linalg.norm(a_vecs, axis=0) / vec_norms
    else:
        a_vecs, norm_a = a @ vectors, norm(a)
    resid = a_vecs - b @ vectors * theta[np.newaxis, :]
    resid_norms = np.linalg.norm(resid, axis=0)
    allowed = 1e-9 * (norm_a + np.abs(theta) * norm(b)) * vec_norms
    bad = resid_norms > allowed
    if np.any(bad):
        k = int(np.argmax(resid_norms - allowed))
        raise PencilError(
            f"eigenpair residual certification failed: index {k}, "
            f"residual {resid_norms[k]:.3e} > allowed {allowed[k]:.3e}"
        )


def _eigh(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All pairs of a x = theta b x by LAPACK's generalized driver, ascending, b-orthonormal."""
    try:
        return sla.eigh(a, b)
    except np.linalg.LinAlgError as exc:
        raise PencilError(f"dense symmetric eigensolve failed: {exc}") from exc


def solve_pencil(pencil: SymmetricPencil) -> tuple[np.ndarray, np.ndarray]:
    """Solve a x = theta b x completely with LAPACK's generalized driver.

    Returns eigenvalues ascending and b-orthonormal eigenvectors (columns),
    signs fixed so the largest-magnitude entry of each vector is positive.
    Residuals are certified against 1e-9*(|a|_F + |theta| |b|_F) |x| per vector.
    """
    theta, vectors = _eigh(pencil.a, pencil.b)
    vectors = _fix_signs(vectors)
    _certify(pencil.a, pencil.b, theta, vectors)
    return theta, vectors
