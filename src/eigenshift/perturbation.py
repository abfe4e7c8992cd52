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
from .hilbert import EigenDecomposition, EigenspaceImages, compute_rho
from .hilbert import _energy_norms

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
    "inclusion_bounds",
    "collar_stability_check",
]

# admission threshold for the asymptotic pipeline: refuse when
# sqrt(lambda_1 + ... + lambda_m) * sqrt(sigma) reaches 1/2, which keeps the
# projected-eigenspace Gram safely positive definite
SIGMA_GATE = 0.5


class LocalizationError(RuntimeError):
    """Perturbed eigenvalue count near the reference group is wrong."""

    def __init__(self, message, window, count, expected):
        super().__init__(message)
        self.window = window
        self.count = count
        self.expected = expected


class CorrectionGramError(RuntimeError):
    """Projected eigenspace Gram lost positive definiteness."""


@dataclass
class CorrectionProblem:
    """The J_m x J_m correction pencil for one reference eigenvalue group.

    lhs is the symmetric left form, gram the Gram of the projected
    eigenvectors; tau holds the pencil's eigenvalues ascending.  rho is the
    remainder magnitude of the group, sigma the projector distance.
    """

    lhs: np.ndarray
    gram: np.ndarray
    lam_m: float
    sigma: float
    rho: float
    tau: np.ndarray


@dataclass
class LocalizationResult:
    """Perturbed eigenvalues matched to a reference group.

    mu_inv is ascending; vectors holds the corresponding eigenvectors as
    columns.  counted records whether the open spectral window contained
    exactly the group's multiplicity; admitted additionally requires the
    distance gate to pass.  gate_value is Lambda_m * sqrt(sigma).
    """

    mu: np.ndarray
    mu_inv: np.ndarray
    window: tuple
    vectors: np.ndarray
    counted: bool
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

    def resolved_rows(self, factor: float = 10.0) -> list:
        """Rows whose drift exceeds the group's own splitting resolution.

        A grouped near-degenerate reference eigenvalue carries an O(h^2)
        internal spread; drifts below that floor measure the grouping
        artifact, not the perturbation.
        """
        floor = factor * self.group_spread
        return [
            row for row in self.rows if abs(row.mu_inv - row.lambda_inv) >= floor
        ]


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
            "request more eigenvalues",
            window=None,
            count=None,
            expected=None,
        )
    return (lo, hi)


def localize(
    eigs1: EigenDecomposition,
    eigs2: EigenDecomposition,
    m: int,
    sigma: float,
) -> LocalizationResult:
    """The J_m perturbed eigenvalues nearest the m-th reference group.

    The window count and the distance gate are recorded on the result
    (``counted``, ``admitted``), and the nearest J_m eigenvalues are returned
    whether they pass or not; a perturbed spectrum with fewer than J_m
    eigenvalues raises :class:`LocalizationError`.  A partial perturbed
    spectrum that stops below the window's upper eigenvalue end 1/lo leaves
    the count unproven, which fails it.
    """
    lam_m, _, j_m = eigs1.group(m)
    gate_value = float(np.sqrt(eigs1.cumulative_sum(m) * max(sigma, 0.0)))
    lo, hi = spectral_window(eigs1, m)
    flat_mu = eigs2.flat_values()
    mu_inv_all = 1.0 / flat_mu
    in_window = (mu_inv_all > lo) & (mu_inv_all < hi)
    count = int(np.count_nonzero(in_window))
    # eigenvalues past a partial spectrum lie below its smallest reciprocal
    proven = eigs2.complete or mu_inv_all.min() <= lo
    counted = proven and count == j_m
    if counted:
        chosen = np.flatnonzero(in_window)
    elif flat_mu.size < j_m:
        raise LocalizationError(
            f"localization failed for group m={m}: the perturbed spectrum has "
            f"{flat_mu.size} eigenvalue(s), fewer than the multiplicity {j_m}",
            window=(lo, hi),
            count=count,
            expected=j_m,
        )
    else:
        chosen = np.argsort(np.abs(mu_inv_all - 1.0 / lam_m), kind="stable")[:j_m]
    vectors_flat = np.hstack(eigs2.spaces)
    sel = chosen[np.argsort(mu_inv_all[chosen], kind="stable")]
    return LocalizationResult(
        mu=flat_mu[sel],
        mu_inv=mu_inv_all[sel],
        window=(lo, hi),
        vectors=vectors_flat[:, sel],
        counted=counted,
        gate_value=gate_value,
        admitted=counted and gate_value < SIGMA_GATE,
    )


def eigenvector_proximity(
    vectors: np.ndarray, images: EigenspaceImages, sigma: float
) -> np.ndarray:
    """||U - P_m U|| / (sqrt(sigma) ||U||) for each column U of ``vectors``,
    with P_m the energy projector onto span(S2 X_m); the correction pencil
    has proved its Gram definite, and a singular one raises LinAlgError."""
    space = images.space
    u = space.check_vector(vectors).reshape(space.dim, -1)
    num = _energy_norms(space, u - project_onto_span(space, images.s, images.s_a_s, u))
    denom_u = _energy_norms(space, u)
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
    return CorrectionProblem(
        lhs=pencil.a, gram=pencil.b, lam_m=images.lam, sigma=sigma, rho=rho, tau=tau
    )


def predict_and_check(cp: CorrectionProblem, measured_mu: np.ndarray) -> list:
    """Pair predicted reciprocal shifts with measured eigenvalues.

    Both sides are ordered ascending in the reciprocal scale (eigenvalues
    are matched by multiplicity ordering, not by eigenvector tracking).
    """
    measured_mu = np.asarray(measured_mu, dtype=float)
    tau = np.sort(np.asarray(cp.tau, dtype=float))
    if measured_mu.size != tau.size:
        raise ValueError(
            f"measured list has length {measured_mu.size}, correction pencil "
            f"has {tau.size} eigenvalues"
        )
    lam_inv = 1.0 / cp.lam_m
    mu_inv = np.sort(1.0 / measured_mu)
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


def inclusion_bounds(cells: list, direction: str) -> tuple:
    """Fitted constants sandwiching the drift by complement norms.

    For a shrinking domain the drift |mu_k^-1 - lambda_m^-1| is compared
    against min/max of ||T phi||^2 over the unit eigenspace sphere; for a
    growing one against ||Psi_phi||^2.  Returns (c, C): the largest lower
    and smallest upper constant valid across all non-degenerate rows.
    """
    if direction not in ("shrink", "expand"):
        raise ValueError(f"direction must be 'shrink' or 'expand', got {direction!r}")
    lower = np.inf
    upper = 0.0
    used = 0
    for cell in cells:
        if cell.error or not cell.tracked:
            continue
        if cell.direction not in (direction, "equal"):
            raise ValueError(
                f"cell eps={cell.eps}, m={cell.m} has direction {cell.direction!r}, "
                f"inconsistent with {direction!r}"
            )
        norms = cell.t_norm2_range if direction == "shrink" else cell.psi_norm2_range
        lo2, hi2 = norms
        for row in cell.rows:
            shift = abs(row.mu_inv - row.lambda_inv)
            if hi2 <= 1e-14:
                if shift > 1e-12:
                    raise ValueError("zero complement norm with nonzero drift")
                continue  # exact row, skipped from the fit
            upper = max(upper, shift / hi2)
            if lo2 > 1e-14:
                lower = min(lower, shift / lo2)
            used += 1
    if used == 0:
        raise ValueError("no usable rows to fit inclusion bounds")
    return (float(lower if np.isfinite(lower) else 0.0), float(upper))


def collar_stability_check(cells: list) -> list:
    """Ratio of eigenvalue drift to collar gradient energy per row.

    Each cell must carry the maximal collar gradient energy over its unit
    eigenspace sphere and the symmetric-difference area; emits one entry
    per (eps, m, k) with both stability ratios.
    """
    table = []
    for cell in cells:
        if cell.error or not cell.tracked:
            continue
        if cell.collar_energy_max < 0:
            raise ValueError("collar energy missing on a tracked cell")
        for row in cell.rows:
            shift = abs(row.mu_inv - row.lambda_inv)
            den = cell.collar_energy_max
            area = cell.sym_diff_area
            table.append(
                {
                    "eps": cell.eps,
                    "m": cell.m,
                    "k": row.k,
                    "shift": shift,
                    "collar_energy": den,
                    "ratio": (shift / den) if den > 1e-300 else 0.0,
                    "sym_diff_area": area,
                    "area_ratio": (shift / area) if area > 1e-300 else 0.0,
                }
            )
    if not table:
        raise ValueError("no tracked rows for the collar stability table")
    return table
