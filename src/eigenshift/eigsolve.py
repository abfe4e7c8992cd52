"""Dense symmetric generalized eigenvalue kernel with residual certification.

:func:`solve_pencil` solves, and returns, a complete dense pencil by
LAPACK's generalized driver (:func:`_eigh`), with a uniform ordering, sign
convention and residual check of every pair (:func:`_certify`).  Every dense
pencil of the package goes through it; ``hilbert._top_pairs`` solves a
pencil on a subspace with it up to scipy's default Krylov size
max(2k + 1, 20) and by Lanczos above it.  Each pair read is certified once
with :func:`_certify`, a dense pair here against the K it was solved from,
a Lanczos pair by ``_top_pairs`` through K as a callback.  Only Lanczos
gives a partial spectrum.  Interlacing with a certified spectrum of a larger
subspace certifies that none below its kept pairs was missed, where it
holds, and otherwise a Sylvester inertia count from sparse pivots inside
the gap above them does (``hilbert.solve_operator_eigs``).  The solvers note
their work in a :class:`census`, here so the kernel notes its own pencils too.
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

_CENSUSES: dict = {}  # the open census blocks by id; each gets every note


class census(dict):
    """A dict of the solver work done inside ``with census() as record:``, in
    order: ``requests``, each ``hilbert._lowest_attempt``'s n (None for all
    pairs); ``factors``, each sparse factor's (kind, dimension), kind "space"
    (a pivot proof), "solve" (an A_II) or "count" (a Sylvester shift); the
    dimension of each ``lanczos`` solve, ``interlaced`` slice and Sylvester
    count (``counts``); each nested pair's |R| ``through_union``; the operator
    ``applications`` of each Lanczos solve, parallel to ``lanczos``; the
    (dimension, columns) of each ``hilbert.Subspace._solve`` (``solves``); the
    dimension of each :func:`solve_pencil` (``pencils``); and the pairs of
    each :func:`_certify` call (``certified``)."""

    def __enter__(self):
        keys = ("requests", "lanczos", "factors", "interlaced", "counts", "through_union",
                "applications", "solves", "pencils", "certified")
        self.update((key, []) for key in keys)
        _CENSUSES[id(self)] = self
        return self

    def __exit__(self, *exc_info):
        del _CENSUSES[id(self)]


def _note(key: str, item) -> None:
    for record in _CENSUSES.values():
        record[key].append(item)


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
    """Deterministic sign convention: largest-magnitude entry (the first of a tie) positive."""
    top = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    vectors[:, top < 0] *= -1.0
    return vectors


def _certify(a, b, theta: np.ndarray, vectors: np.ndarray) -> None:
    """Residual check of the pairs of a x = theta b x, b dense or sparse, a of the same kind
    or a callback applying it, whose |a x| / |x| stands in for |a|_F (never above it).
    The allowance 1e-9 (|a| + |theta| |b|_F) |x| ignores the scale of x, and
    (x, theta) of (a, b) passes exactly when (x, 1/theta) of (b, a) does."""
    _note("certified", theta.size)
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
    _note("pencils", pencil.dim)
    theta, vectors = _eigh(pencil.a, pencil.b)
    vectors = _fix_signs(vectors)
    _certify(pencil.a, pencil.b, theta, vectors)
    return theta, vectors
