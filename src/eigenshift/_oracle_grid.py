"""Grid-search reference for the projector distance.

Used by the verification suite to re-derive sigma along a second route:
projectors from explicit Gram inversion and an exhaustive Rayleigh-quotient
search on a spherical grid of the active subspace.  Deliberately does not
touch the Cholesky-based code paths it double-checks.  Small dimensions
only (active subspace up to 5).
"""

import numpy as np


def _projector(energy, basis):
    gram = basis.T @ energy @ basis
    return basis @ np.linalg.inv(gram) @ basis.T @ energy


def _sphere_grid(k, n_per_angle):
    if k == 1:
        return np.array([[1.0], [-1.0]])
    if k > 5:
        raise ValueError("grid search limited to active dimension 5")
    angles = [np.linspace(0.0, np.pi, n_per_angle) for _ in range(k - 2)]
    angles.append(np.linspace(0.0, 2.0 * np.pi, 2 * n_per_angle, endpoint=False))
    # one row per angle tuple, in itertools.product order; point j is
    # sin(a_0) ... sin(a_j-1) cos(a_j), multiplied left to right
    ang = np.stack(np.meshgrid(*angles, indexing="ij"), axis=-1).reshape(-1, k - 1)
    pts = np.column_stack([np.cos(ang), np.ones(len(ang))])
    pts[:, 1:] *= np.cumprod(np.sin(ang), axis=1)
    return pts


def _grid_max(num_form, den_form, n_per_angle):
    pts = _sphere_grid(num_form.shape[0], n_per_angle)
    vals = np.einsum("ij,jk,ik->i", pts, num_form, pts)
    vals /= np.einsum("ij,jk,ik->i", pts, den_form, pts)
    best = int(np.argmax(vals))
    return float(vals[best]), pts[best]


def sigma_grid(energy, mass, basis1, basis2, n_per_angle=24):
    """Best constant in |(S1 - S2) u|^2 <= sigma ||u||^2 by grid search.

    The maximizer lies in the column space of S1 - S2, so the search runs
    on the sphere of that space: a coarse hyperspherical grid followed by
    line-search sweeps, accurate to well under 1e-3 relative.
    """
    diff = _projector(energy, basis1) - _projector(energy, basis2)
    u, svals, _ = np.linalg.svd(diff)
    if svals[0] < 1e-13:
        return 0.0
    rank = int(np.count_nonzero(svals > 1e-9 * svals[0]))
    r = u[:, :rank]
    num_form = (diff @ r).T @ mass @ (diff @ r)
    den_form = r.T @ energy @ r
    best, c_best = _grid_max(num_form, den_form, n_per_angle)
    if rank == 1:
        return best
    q, _ = np.linalg.qr(np.column_stack([c_best, np.eye(rank)])[:, :rank])
    for _ in range(3):
        improved = best
        for j in range(1, rank):
            ts = np.linspace(-0.25, 0.25, 101)
            cand = c_best[:, None] + ts[None, :] * q[:, j][:, None]
            cand /= np.linalg.norm(cand, axis=0)
            vals = np.einsum("ij,ik,kj->j", cand, num_form, cand)
            vals /= np.einsum("ij,ik,kj->j", cand, den_form, cand)
            jbest = int(np.argmax(vals))
            if vals[jbest] > improved:
                improved = float(vals[jbest])
                c_best = cand[:, jbest]
        if improved <= best * (1 + 1e-13):
            break
        best = improved
    return best
