"""Independent dense reference computations for small problems.

Everything here deliberately avoids the package's own code paths: projectors
come from explicit Gram inversion of raw bases, eigenvalues from a
non-symmetric solve of inv(b) a, and sigma from an exhaustive Rayleigh
quotient search on a spherical grid of the active subspace.  Intended for
dimensions up to about 12, except the dense solves of nodal subspaces
(``nodal_sigmas``, ``nodal_lowest_eigs``), which serve small meshes.
"""

import itertools

import numpy as np
import scipy.linalg as sla


def projector_matrix(energy, basis):
    """Energy-orthogonal projector via explicit normal equations."""
    basis = np.asarray(basis, dtype=float)
    gram = basis.T @ energy @ basis
    return basis @ np.linalg.inv(gram) @ basis.T @ energy


def pencil_eigs(a, b):
    """Eigenvalues of a x = theta b x via a plain non-symmetric solve."""
    vals = np.linalg.eigvals(np.linalg.inv(b) @ a)
    return np.sort(np.real(vals))


def operator_eigs(energy, mass, basis):
    """Eigenvalues of the restricted problem (phi, v) = lambda <phi, v>."""
    basis = np.asarray(basis, dtype=float)
    a_res = basis.T @ energy @ basis
    m_res = basis.T @ mass @ basis
    return pencil_eigs(a_res, m_res)


def corrector_vector(energy, mass, basis2, phi, lam):
    """Corrector by explicit least squares on the raw second basis."""
    rhs = basis2.T @ (energy @ phi - lam * (mass @ phi))
    gram = basis2.T @ energy @ basis2
    coeff, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    return basis2 @ coeff


def bridge_apply(energy, mass, basis1, basis2, v):
    """K2 S2 v - S2 K1 v via explicit inverses."""
    s2 = projector_matrix(energy, basis2)
    g1 = basis1.T @ energy @ basis1
    g2 = basis2.T @ energy @ basis2
    k1 = basis1 @ np.linalg.inv(g1) @ basis1.T @ mass
    k2 = basis2 @ np.linalg.inv(g2) @ basis2.T @ mass
    return k2 @ (s2 @ v) - s2 @ (k1 @ v)


def _sphere_grid(k, n_per_angle):
    """Points on the unit sphere of R^k from a hyperspherical angle grid."""
    if k == 1:
        return np.array([[1.0], [-1.0]])
    if k > 5:
        raise ValueError("spherical grid oracle is limited to 5 dimensions")
    angles = [np.linspace(0.0, np.pi, n_per_angle) for _ in range(k - 2)]
    angles.append(np.linspace(0.0, 2.0 * np.pi, 2 * n_per_angle, endpoint=False))
    pts = []
    for combo in itertools.product(*angles):
        vec = np.ones(k)
        for i, ang in enumerate(combo):
            vec[i] *= np.cos(ang)
            vec[i + 1 :] *= np.sin(ang)
        pts.append(vec)
    return np.array(pts)


def _grid_max_quotient(num_form, den_form, n_per_angle):
    k = num_form.shape[0]
    pts = _sphere_grid(k, n_per_angle)
    num = np.einsum("ij,jk,ik->i", pts, num_form, pts)
    den = np.einsum("ij,jk,ik->i", pts, den_form, pts)
    vals = num / den
    best = int(np.argmax(vals))
    return float(vals[best]), pts[best]


def sigma_grid(energy, mass, basis1, basis2, n_per_angle=24):
    """Exhaustive Rayleigh-quotient maximization for the projector distance.

    Searches |(S1 - S2) u|^2 / ||u||^2 on a two-stage spherical grid of the
    column space of S1 - S2, which contains the maximizer.  Accurate to well
    under 1e-3 relative for active dimensions up to about 5.
    """
    s1 = projector_matrix(energy, basis1)
    s2 = projector_matrix(energy, basis2)
    diff = s1 - s2
    u, svals, _ = np.linalg.svd(diff)
    if svals[0] < 1e-13:
        return 0.0
    rank = int(np.count_nonzero(svals > 1e-9 * svals[0]))
    r = u[:, :rank]
    num_form = (diff @ r).T @ mass @ (diff @ r)
    den_form = r.T @ energy @ r
    best, c_best = _grid_max_quotient(num_form, den_form, n_per_angle)
    # refine around the best point with a local orthogonal reparametrization
    if rank > 1:
        q, _ = np.linalg.qr(np.column_stack([c_best, np.eye(rank)])[:, :rank])
        num2 = q.T @ num_form @ q
        den2 = q.T @ den_form @ q
        local, _ = _grid_max_quotient(num2, den2, n_per_angle)
        best = max(best, local)
        # second stage: fine sweep of 2D sections through the current best
        for _ in range(2):
            improved = best
            for j in range(1, rank):
                ts = np.linspace(-0.2, 0.2, 81)
                cand = c_best[:, None] + ts[None, :] * q[:, j][:, None]
                cand = cand / np.linalg.norm(cand, axis=0)
                num = np.einsum("ij,ik,kj->j", cand, num_form, cand)
                den = np.einsum("ij,ik,kj->j", cand, den_form, cand)
                vals = num / den
                jbest = int(np.argmax(vals))
                if vals[jbest] > improved:
                    improved = float(vals[jbest])
                    c_best = cand[:, jbest]
            if improved <= best * (1 + 1e-12):
                break
            best = improved
    return best


def sigma_star_direct(energy, mass, basis1, basis2, cos_threshold=1.0 - 1e-10):
    """Complement constant by explicit dense linear algebra.

    Builds the sum and the intersection from raw bases with plain numpy
    (Gram inversion, SVD rank decisions), then maximizes the mass/energy
    Rayleigh quotient on the energy-orthogonal complement by a direct
    non-symmetric eigensolve.
    """
    chol = np.linalg.cholesky(energy)

    def orth(cols):
        y = chol.T @ cols
        u, s, _ = np.linalg.svd(y, full_matrices=False)
        rank = int(np.count_nonzero(s > 1e-10 * s[0])) if s.size else 0
        return u[:, :rank]

    q1, q2 = orth(basis1), orth(basis2)
    u, cosines, _ = np.linalg.svd(q1.T @ q2)
    k_int = int(np.count_nonzero(cosines >= cos_threshold))
    q_sum = orth(np.hstack([np.linalg.solve(chol.T, q1), np.linalg.solve(chol.T, q2)]))
    if q_sum.shape[1] == k_int:
        return 0.0
    if k_int:
        q_int = q1 @ u[:, :k_int]
        resid = q_sum - q_int @ (q_int.T @ q_sum)
        uu, _, _ = np.linalg.svd(resid, full_matrices=False)
        comp = uu[:, : q_sum.shape[1] - k_int]
    else:
        comp = q_sum
    vecs = np.linalg.solve(chol.T, comp)
    num = vecs.T @ mass @ vecs
    den = vecs.T @ energy @ vecs
    return float(np.max(np.real(np.linalg.eigvals(np.linalg.inv(den) @ num))))


def rho_grid(energy, mass, t_block, psi_block, sigma, n_per_angle=None):
    """Max of sigma ||Psi||^2 + |T phi|^2 + |Psi|^2 over the coefficient sphere."""
    form = (
        sigma * (psi_block.T @ energy @ psi_block)
        + t_block.T @ mass @ t_block
        + psi_block.T @ mass @ psi_block
    )
    k = form.shape[0]
    if n_per_angle is None:
        n_per_angle = {1: 2, 2: 4000, 3: 160, 4: 48}.get(k, 24)
    pts = _sphere_grid(k, n_per_angle)
    vals = np.einsum("ij,jk,ik->i", pts, form, pts)
    return float(vals.max())


def nodal_sigmas(energy, mass, idx1, idx2):
    """Dense (sigma, sigma*) of two nodal subspaces.

    Both are the largest eigenvalue of a pencil of size |I1 xor I2| on the
    coordinate vectors outside I1 cap I2, energy-projected off the
    intersection: (C' D' M D C, C' A C) with D = S1 - S2 for sigma, and
    (C' M C, C' A C) for sigma*.  Projectors come from explicit Gram
    inversion.  Returns (0.0, 0.0) for equal index sets.
    """
    n = energy.shape[0]
    eye = np.eye(n)
    diff = np.setxor1d(idx1, idx2)
    if diff.size == 0:
        return 0.0, 0.0
    cols = eye[:, diff]
    inter = np.intersect1d(idx1, idx2)
    if inter.size:
        cols = cols - projector_matrix(energy, eye[:, inter]) @ cols
    proj_diff = projector_matrix(energy, eye[:, idx1]) - projector_matrix(energy, eye[:, idx2])
    den = cols.T @ energy @ cols
    moved = proj_diff @ cols
    sigma = pencil_eigs(moved.T @ mass @ moved, den)[-1]
    star = pencil_eigs(cols.T @ mass @ cols, den)[-1]
    return float(sigma), float(star)


def nodal_lowest_eigs(energy, mass, idx, count, group_tol):
    """Dense partial eigensolve of a nodal subspace.

    The lowest ``count`` eigenpairs of the blocks (A_II, M_II) by LAPACK's
    generalized symmetric solver, grouped wherever the relative gap exceeds
    ``group_tol``, with the trailing (possibly split) group dropped.  Returns
    the kept group means and one ambient N x J basis per group.
    """
    block = np.ix_(idx, idx)
    lam, vecs = sla.eigh(
        energy[block], mass[block], subset_by_index=(0, count - 1), driver="gvx"
    )
    cuts = [i for i in range(1, count) if lam[i] - lam[i - 1] > group_tol * lam[i]]
    means, bases = [], []
    for start, stop in zip([0] + cuts[:-1], cuts):
        ambient = np.zeros((energy.shape[0], stop - start))
        ambient[idx] = vecs[:, start:stop]
        means.append(lam[start:stop].mean())
        bases.append(ambient)
    return np.array(means), bases
