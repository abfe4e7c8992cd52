import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenshift.eigsolve import (
    NotPositiveDefiniteError,
    PencilError,
    SymmetricPencil,
    _certify,
    _eigh,
    _fix_signs,
    solve_pencil,
)

from oracles import pencil_eigs


def random_spd(rng, n, shift=0.5):
    factor = rng.normal(size=(n, n))
    return factor @ factor.T + shift * np.eye(n)


def test_diagonal_pencil():
    theta, vecs = solve_pencil(SymmetricPencil(np.diag([3.0, 1.0]), np.eye(2)))
    assert np.allclose(theta, [1.0, 3.0])
    assert np.allclose(np.abs(vecs), np.eye(2)[:, ::-1])


def test_identity_pencil():
    a = random_spd(np.random.default_rng(3), 5)
    theta, _ = solve_pencil(SymmetricPencil(a, a))
    assert np.allclose(theta, 1.0)


def test_offdiagonal_closed_form():
    theta, _ = solve_pencil(SymmetricPencil(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)))
    assert np.allclose(theta, [-1.0, 1.0])


def test_b_orthonormality_and_signs():
    rng = np.random.default_rng(7)
    a = random_spd(rng, 6)
    b = random_spd(rng, 6)
    theta, vecs = solve_pencil(SymmetricPencil(a, b))
    assert np.allclose(vecs.T @ b @ vecs, np.eye(6), atol=1e-10)
    for j in range(6):
        k = int(np.argmax(np.abs(vecs[:, j])))
        assert vecs[k, j] > 0


def _fix_signs_by_column(vectors):
    """The column loop that _fix_signs replaces, kept as its reference."""
    vectors = vectors.copy()
    for j in range(vectors.shape[1]):
        k = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[k, j] < 0:
            vectors[:, j] = -vectors[:, j]
    return vectors


def test_fix_signs_lets_the_first_of_a_tie_decide():
    # the two largest entries of the first two columns tie in magnitude with
    # opposite signs, and the first one decides; a zero column keeps its -0.0
    tied = np.array([[-2.0, 2.0, 0.5, -0.0], [2.0, -2.0, -1.0, 0.0], [1.0, 1.0, 0.25, 0.0]])
    got = _fix_signs(tied.copy())
    assert got[:, 0].tolist() == [2.0, -2.0, -1.0] and got[:, 1].tolist() == [2.0, -2.0, 1.0]
    assert got[:, 2].tolist() == [-0.5, 1.0, -0.25]
    for vectors in (tied, np.random.default_rng(8).standard_normal((40, 9))):
        assert _fix_signs(vectors.copy()).tobytes() == _fix_signs_by_column(vectors).tobytes()


def test_residuals_certified():
    rng = np.random.default_rng(11)
    a = random_spd(rng, 8)
    b = random_spd(rng, 8)
    theta, vecs = solve_pencil(SymmetricPencil(a, b))
    resid = a @ vecs - b @ vecs * theta
    allowed = 1e-9 * (np.linalg.norm(a) + np.abs(theta) * np.linalg.norm(b))
    assert np.all(np.linalg.norm(resid, axis=0) <= allowed * np.linalg.norm(vecs, axis=0))


@pytest.mark.parametrize("form", ["matrix", "callback"])
def test_certificate_allowance_is_relative_to_the_vector(form):
    # |x| ~ 1e-3 and a residual of 1e-10: above 1e-9 (|a| + |theta| |b|) |x|,
    # below the same allowance times max(1, |x|)
    a, b, theta = np.diag([2.0, 1.0]), np.eye(2), np.array([2.0])
    x = np.array([[1e-3], [1e-10]])
    k = (lambda v: a @ v) if form == "callback" else a
    scale = 1e-9 * (np.linalg.norm(a) + 2.0 * np.linalg.norm(b))
    resid = np.linalg.norm(a @ x - b @ x * theta)
    assert scale * np.linalg.norm(x) < resid < scale
    with pytest.raises(PencilError, match="certification failed"):
        _certify(k, b, theta, x)
    _certify(k, b, theta, np.array([[1e-3], [0.0]]))


def test_certificate_ignores_scale_and_reads_both_forms_alike():
    # (x, theta) of (a, b) passes exactly when (c x, 1 / theta) of (b, a) does
    rng = np.random.default_rng(23)
    a, b = random_spd(rng, 6), random_spd(rng, 6)
    theta, vecs = solve_pencil(SymmetricPencil(a, b))

    def passes(*args):
        try:
            _certify(*args)
        except PencilError:
            return False
        return True

    verdicts = set()
    for size in np.logspace(-14, -8, 13):
        bent = vecs + size * rng.normal(size=vecs.shape)
        verdict = passes(a, b, theta, bent)
        for scale in (1e-3, 1.0, 1e3):
            assert passes(a, b, theta, scale * bent) == verdict
            assert passes(b, a, 1.0 / theta, scale * bent) == verdict
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_not_positive_definite_carries_smallest_eig():
    b = np.diag([1.0, -2.0])
    with pytest.raises(NotPositiveDefiniteError) as err:
        SymmetricPencil(np.eye(2), b)
    assert err.value.smallest_eig == pytest.approx(-2.0)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: SymmetricPencil(np.ones((2, 3)), np.eye(2)), "must be square"),
        (lambda: SymmetricPencil(np.eye(2), np.eye(3)), "must share a shape"),
        (lambda: _eigh(np.eye(2), -np.eye(2)), "dense symmetric eigensolve failed"),
    ],
    ids=["non_square", "mismatched_shapes", "lapack_raises"],
)
def test_malformed_pencils_are_pencil_errors(call, match):
    with pytest.raises(PencilError, match=match):
        call()


def test_asymmetry_warns():
    a = np.array([[1.0, 2.0], [2.0 + 1e-6, 1.0]])
    with pytest.warns(UserWarning):
        SymmetricPencil(a, np.eye(2))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_spectrum_invariant_under_congruence(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    a = random_spd(rng, n)
    b = random_spd(rng, n)
    theta, _ = solve_pencil(SymmetricPencil(a, b))
    q = rng.normal(size=(n, n)) + n * np.eye(n)
    theta_t, _ = solve_pencil(SymmetricPencil(q.T @ a @ q, q.T @ b @ q))
    assert np.allclose(theta, theta_t, rtol=1e-9, atol=1e-9)


def test_trace_identity_on_random_pencils():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 21))
        a = random_spd(rng, n)
        b = random_spd(rng, n)
        theta, _ = solve_pencil(SymmetricPencil(a, b))
        trace = np.trace(np.linalg.inv(b) @ a)
        assert theta.sum() == pytest.approx(trace, rel=1e-8)


def test_matches_independent_oracle():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        a = random_spd(rng, n)
        b = random_spd(rng, n)
        theta, _ = solve_pencil(SymmetricPencil(a, b))
        assert np.allclose(theta, pencil_eigs(a, b), rtol=1e-8, atol=1e-10)
