"""Eigenvalue drift of elliptic Dirichlet problems under domain perturbation.

The package models a background Hilbert space with energy and mass inner
products, measures subspace proximity through projector distances, and
predicts eigenvalue shifts through a small correction eigenproblem, with a
2D P1 finite element realization and a reproducible experiment harness.
"""

from .eigsolve import SymmetricPencil, solve_pencil
from .hilbert import (
    EigenDecomposition,
    EigenspaceImages,
    EnergySpace,
    Subspace,
    SubspacePair,
    apply_B,
    apply_T2,
    compute_rho,
    compute_rho0,
    corrector_block,
    eigenspace_images,
    embedding_constant,
    intersection_subspace,
    sigma_distance,
    sigma_star,
    solve_operator_eigs,
)

__version__ = "0.1.0"

__all__ = [
    "SymmetricPencil",
    "solve_pencil",
    "EnergySpace",
    "Subspace",
    "SubspacePair",
    "EigenDecomposition",
    "EigenspaceImages",
    "embedding_constant",
    "sigma_distance",
    "sigma_star",
    "solve_operator_eigs",
    "apply_T2",
    "corrector_block",
    "apply_B",
    "eigenspace_images",
    "compute_rho",
    "compute_rho0",
    "intersection_subspace",
    "__version__",
]
