"""Eigenvalue drift of elliptic Dirichlet problems under domain perturbation.

The package models a background Hilbert space with energy and mass inner
products, measures subspace proximity through projector distances, and
predicts eigenvalue shifts through a small correction eigenproblem, with a
2D P1 finite element realization and a reproducible experiment harness.
"""

__version__ = "0.1.0"
