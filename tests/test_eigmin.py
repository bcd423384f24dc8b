import numpy as np
import pytest

from spheretrs import DenseOp, DiagonalOp, EigenSolverError, min_eigpair


def test_multiplicity_two_basis():
    a = DiagonalOp(np.array([1.0, 1.0, 5.0]))
    res = min_eigpair(a)
    assert res.lambda_min == pytest.approx(1.0, abs=1e-10)
    assert len(res.basis) == 2
    # The basis must span the e1/e2 plane: no component along e3.
    for v in res.basis:
        assert abs(v[2]) <= 1e-6
    basis = np.column_stack(res.basis)
    assert np.allclose(basis.T @ basis, np.eye(2), atol=1e-9)


def test_identity_matrix():
    res = min_eigpair(DiagonalOp(np.ones(5)))
    assert res.lambda_min == pytest.approx(1.0, abs=1e-10)
    for v in res.basis:
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)


def test_matches_dense_eigensolver():
    rng = np.random.default_rng(0)
    for seed in range(5):
        m = np.random.default_rng(seed).standard_normal((30, 30))
        a = (m + m.T) / 2
        res = min_eigpair(DenseOp(a))
        w, v = np.linalg.eigh(a)
        assert res.lambda_min == pytest.approx(w[0], abs=1e-9)
        u = res.basis[0]
        assert np.linalg.norm(a @ u - res.lambda_min * u) <= 1e-8


def test_residual_bound_respected():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((40, 40))
    a = (m + m.T) / 2
    res = min_eigpair(DenseOp(a), tol=1e-10)
    for v in res.basis:
        r = np.linalg.norm(a @ v - res.lambda_min * v)
        assert r <= 10 * res.tol_eig * max(1.0, abs(res.lambda_min))


def test_nonconvergence_carries_best_pair():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((60, 60))
    a = (m + m.T) / 2
    with pytest.raises(EigenSolverError) as exc:
        min_eigpair(DenseOp(a), tol=1e-10, max_iter=2)
    assert np.isfinite(exc.value.lambda_min)
    assert exc.value.vector.shape == (60,)
