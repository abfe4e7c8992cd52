"""Eigenvalue drift pipeline.

Given eigendecompositions of the reference and the perturbed subspace, this
module localizes the perturbed eigenvalues near a chosen reference group,
assembles the small correction eigenproblem whose eigenvalues shift the
reciprocal eigenvalue to first order, and compares prediction against
measurement with explicit remainder bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .eigsolve import NotPositiveDefiniteError, SymmetricPencil, solve_pencil
from .hilbert import EigenDecomposition, EigenspaceImages, _energy_norms, compute_rho

__all__ = [
    "CorrectionProblem",
    "LocalizationResult",
    "PredictionRow",
    "ScenarioCell",
    "LocalizationError",
    "CorrectionGramError",
    "SIGMA_GATE",
    "spectral_window",
    "localize",
    "eigenvector_proximity",
    "project_onto_span",
    "assemble_correction",
    "predict_and_check",
]

# admission threshold for the asymptotic pipeline: refuse when
# sqrt(lambda_1 + ... + lambda_m) * sqrt(sigma) reaches 1/2, which keeps the
# projected-eigenspace Gram safely positive definite
SIGMA_GATE = 0.5


class LocalizationError(RuntimeError):
    """Perturbed eigenvalue count near the reference group is wrong."""


class CorrectionGramError(RuntimeError):
    """Projected eigenspace Gram lost positive definiteness."""


@dataclass
class CorrectionProblem:
    """What the rows read of the J_m x J_m correction pencil of one reference
    eigenvalue group lam_m: its eigenvalues tau ascending, the group's
    remainder magnitude rho and the projector distance sigma."""

    lam_m: float
    sigma: float
    rho: float
    tau: np.ndarray


@dataclass
class LocalizationResult:
    """Perturbed eigenvalues matched to a reference group.

    mu_inv is ascending; vectors holds the corresponding eigenvectors as
    columns.  tracked records whether the open spectral window contained
    exactly the group's multiplicity; admitted additionally requires the
    distance gate to pass.  gate_value is Lambda_m * sqrt(sigma).
    """

    mu_inv: np.ndarray
    vectors: np.ndarray
    tracked: bool
    gate_value: float
    admitted: bool


@dataclass
class PredictionRow:
    """One (group member) line of measured-versus-predicted drift."""

    k: int
    lambda_inv: float
    mu_inv: float
    tau: float
    predicted_mu_inv: float
    remainder: float
    bound: float
    ratio: float


@dataclass
class ScenarioCell:
    """Everything the harness measured for one (eps, m) cell."""

    eps: float
    m: int
    lam_m: float
    multiplicity: int
    sigma: float
    sigma_star: float
    rho: float
    rho0: float
    gate_value: float
    admitted: bool
    tracked: bool
    direction: str
    mu_inv: list = field(default_factory=list)
    tau: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    proximity: list = field(default_factory=list)
    t_norm2_range: tuple = (0.0, 0.0)
    psi_norm2_range: tuple = (0.0, 0.0)
    collar_energy_max: float = 0.0
    sym_diff_area: float = 0.0
    group_spread: float = 0.0
    error: str | None = None


def spectral_window(eigs1: EigenDecomposition, m: int) -> tuple:
    """Open window around 1/lambda_m bounded by the midpoints of the
    adjacent reciprocal gaps (the canonical concrete localization window)."""
    lam_m = float(eigs1.values[m - 1])
    hi = np.inf if m == 1 else 0.5 * (1.0 / lam_m + 1.0 / float(eigs1.values[m - 2]))
    if m < eigs1.n_groups:
        lo = 0.5 * (1.0 / lam_m + 1.0 / float(eigs1.values[m]))
    elif eigs1.complete:
        lo = 0.0
    else:
        raise LocalizationError(
            f"reference decomposition does not resolve the group after m={m}; "
            "request more eigenvalues"
        )
    return (lo, hi)


def localize(
    eigs1: EigenDecomposition,
    eigs2: EigenDecomposition,
    m: int,
    sigma: float,
) -> LocalizationResult:
    """The J_m perturbed eigenvalues nearest the m-th reference group.

    Both verdicts of a cell are decided here, once: ``tracked`` when the
    window holds exactly J_m eigenvalues, and ``admitted`` when the distance
    gate holds too, so an admitted cell is tracked.  The nearest J_m
    eigenvalues are returned whether they pass or not; a perturbed spectrum
    with fewer than J_m raises :class:`LocalizationError`.  A partial
    perturbed spectrum that stops below the window's upper eigenvalue end
    1/lo leaves the count unproven, which fails it.
    """
    lam_m, _, j_m = eigs1.group(m)
    gate_value = float(np.sqrt(eigs1.cumulative_sum(m) * max(sigma, 0.0)))
    lo, hi = spectral_window(eigs1, m)
    mu_inv_all = 1.0 / eigs2.flat_values()
    in_window = (mu_inv_all > lo) & (mu_inv_all < hi)
    count = int(np.count_nonzero(in_window))
    # eigenvalues past a partial spectrum lie below its smallest reciprocal
    proven = eigs2.complete or bool(mu_inv_all.min() <= lo)
    tracked = proven and count == j_m
    if tracked:
        chosen = np.flatnonzero(in_window)
    elif mu_inv_all.size < j_m:
        raise LocalizationError(
            f"localization failed for group m={m}: the perturbed spectrum has "
            f"{mu_inv_all.size} eigenvalue(s), fewer than the multiplicity {j_m}"
        )
    else:
        chosen = np.argsort(np.abs(mu_inv_all - 1.0 / lam_m), kind="stable")[:j_m]
    sel = chosen[np.argsort(mu_inv_all[chosen], kind="stable")]
    return LocalizationResult(
        mu_inv=mu_inv_all[sel],
        vectors=eigs2.vectors[:, sel],
        tracked=tracked,
        gate_value=gate_value,
        admitted=tracked and gate_value < SIGMA_GATE,
    )


def eigenvector_proximity(
    vectors: np.ndarray, images: EigenspaceImages, sigma: float
) -> np.ndarray:
    """||U - P_m U|| / (sqrt(sigma) ||U||) for each column U of ``vectors``,
    with P_m the energy projector onto span(S2 X_m); the correction pencil
    has proved its Gram definite, and a singular one raises LinAlgError."""
    space = images.space
    u = space.check_vector(vectors).reshape(space.dim, -1)
    a = space.energy_csr
    num = _energy_norms(a, u - project_onto_span(space, images.s, images.s_a_s, u))
    denom_u = _energy_norms(a, u)
    if sigma > 0.0:
        return num / (np.sqrt(sigma) * denom_u)
    if np.all(num <= 1e-12 * np.maximum(denom_u, 1.0)):
        return np.zeros(u.shape[1])
    raise ValueError(
        f"zero distance but nonzero projection defect {num.max():.3e}; inputs inconsistent"
    )


def project_onto_span(space, s: np.ndarray, gram: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Energy projection s c of the columns of u onto span(s): c solves
    (s' A s) c = s' A u through the Cholesky factor of ``gram`` = s' A s, and
    a Gram that is not definite raises LinAlgError."""
    return s @ sla.cho_solve(sla.cho_factor(gram), s.T @ (space.energy_csr @ u))


def assemble_correction(images: EigenspaceImages, sigma: float) -> CorrectionProblem:
    """Correction pencil of a reference eigenvalue group.

    lhs_ij = (1/lam)[(Psi_i, Psi_j) - (T phi_i, T phi_j)
                     - (Psi_i, phi_j) - (phi_i, Psi_j)],
    gram_ij = (S phi_i, S phi_j), with S the projector onto the perturbed
    subspace.  For a shrinking domain the Psi terms vanish and the pencil is
    negative semidefinite; for a growing one the T terms vanish and it is
    positive semidefinite.
    """
    px = images.psi_a_x
    lhs = (images.psi_a_psi - images.t_a_t - px - px.T) / images.lam
    try:
        pencil = SymmetricPencil(lhs, images.s_a_s)
    except NotPositiveDefiniteError as exc:
        raise CorrectionGramError(
            "projected eigenspace Gram is not positive definite "
            f"(smallest eigenvalue {exc.smallest_eig:.3e}); the subspace distance "
            "is too large for the projected eigenvectors to stay independent"
        ) from exc
    tau, _ = solve_pencil(pencil)
    rho = compute_rho(images, sigma)
    return CorrectionProblem(lam_m=images.lam, sigma=sigma, rho=rho, tau=tau)


def predict_and_check(cp: CorrectionProblem, measured_mu_inv: np.ndarray) -> list:
    """Pair predicted reciprocal shifts with measured reciprocal eigenvalues.

    Both sides are ordered ascending (eigenvalues are matched by
    multiplicity ordering, not by eigenvector tracking).
    """
    mu_inv = np.sort(np.asarray(measured_mu_inv, dtype=float))
    tau = np.sort(np.asarray(cp.tau, dtype=float))
    if mu_inv.size != tau.size:
        raise ValueError(
            f"measured list has length {mu_inv.size}, correction pencil "
            f"has {tau.size} eigenvalues"
        )
    lam_inv = 1.0 / cp.lam_m
    rows = []
    for k, (mi, tk) in enumerate(zip(mu_inv, tau), start=1):
        predicted = lam_inv + tk
        remainder = abs(mi - predicted)
        bound = cp.rho + abs(tk) * cp.sigma
        if bound > 0.0:
            ratio = remainder / bound
        else:
            ratio = 0.0 if remainder <= 1e-12 else np.inf
        rows.append(
            PredictionRow(
                k=k,
                lambda_inv=lam_inv,
                mu_inv=float(mi),
                tau=float(tk),
                predicted_mu_inv=float(predicted),
                remainder=float(remainder),
                bound=float(bound),
                ratio=float(ratio),
            )
        )
    return rows
