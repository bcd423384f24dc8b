import numpy as np
import pytest

from spheretrs import CallbackOp, DenseOp, DiagonalOp, GenSpec, generate, min_eigpair


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


@pytest.mark.parametrize(
    "d",
    [
        np.ones(5),
        np.array([1.0, 1.0, 2.0, 3.0]),
        np.array([2.0]),
        np.array([2.0, -1.0]),
        np.array([2.0, 2.0]),
    ],
)
@pytest.mark.parametrize("opaque", [False, True])
@pytest.mark.parametrize("tol", [1e-10, 1e-30])
def test_returns_within_n_iterations(d, opaque, tol):
    # tol=1e-30 sits below roundoff, so the residual tests fail until the
    # Krylov space is exhausted, and the identity breaks down and redraws.
    a = CallbackOp(lambda v: d * v, d.size) if opaque else DiagonalOp(d)
    for seed in range(3):
        res = min_eigpair(a, tol=tol, seed=seed)
        assert res.iterations <= d.size
        assert res.lambda_min == pytest.approx(d.min(), abs=1e-12)
        assert 1 <= len(res.basis) <= np.count_nonzero(d == d.min())


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_rejects_bad_tol(tol):
    a = generate(GenSpec(n=20, gap=1.0, seed=1))[0].a
    with pytest.raises(ValueError, match="^tol "):
        min_eigpair(a, tol=tol)
