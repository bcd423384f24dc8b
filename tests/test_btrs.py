import numpy as np
import pytest

from spheretrs import (
    BtrsProblem,
    CallbackOp,
    DenseOp,
    DiagonalOp,
    GenSpec,
    affine_rayleigh,
    augment,
    classify,
    generate,
    in_SE,
    min_eigpair,
    objective,
    residual,
)


def diag_problem(d, b):
    return BtrsProblem(a=DiagonalOp(np.asarray(d, dtype=float)), b=np.asarray(b, dtype=float))


def test_objective_values():
    p0 = diag_problem([1.0, 3.0], [0.0, 0.0])
    assert objective(p0, np.array([1.0, 0.0])) == pytest.approx(0.5)
    p1 = diag_problem([1.0, 3.0], [1.0, 1.0])
    assert objective(p1, np.array([1.0, 0.0])) == pytest.approx(1.5)
    s = 1.0 / np.sqrt(2.0)
    assert objective(p1, np.array([-s, -s])) == pytest.approx(1.0 - np.sqrt(2.0))


def test_affine_rayleigh_values():
    p = diag_problem([1.0, 3.0], [1.0, 1.0])
    assert affine_rayleigh(p, np.array([1.0, 0.0])) == pytest.approx(2.0)
    s = 1.0 / np.sqrt(2.0)
    assert affine_rayleigh(p, np.array([s, s])) == pytest.approx(2.0 + np.sqrt(2.0))
    # b = 0 reduces to the Rayleigh quotient at eigenvectors.
    p0 = diag_problem([1.0, 3.0], [0.0, 0.0])
    assert affine_rayleigh(p0, np.array([0.0, 1.0])) == pytest.approx(3.0)


def test_rayleigh_minimizes_residual_norm():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((5, 5))
    p = BtrsProblem(a=DenseOp((m + m.T) / 2), b=rng.standard_normal(5))
    x = rng.standard_normal(5)
    x /= np.linalg.norm(x)
    mu_x = affine_rayleigh(p, x)
    best = np.linalg.norm(residual(p, x, mu_x))
    for mu in np.linspace(mu_x - 3, mu_x + 3, 41):
        assert best <= np.linalg.norm(residual(p, x, mu)) + 1e-12


def test_residual_hand_value():
    p = diag_problem([1.0, 3.0], [1.0, 1.0])
    r = residual(p, np.array([1.0, 0.0]), 2.0)
    assert np.allclose(r, [0.0, -1.0])


def test_objective_rayleigh_identity():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((7, 7))
    p = BtrsProblem(a=DenseOp((m + m.T) / 2), b=rng.standard_normal(7))
    for _ in range(20):
        x = rng.standard_normal(7)
        x /= np.linalg.norm(x)
        lhs = 2.0 * objective(p, x)
        rhs = affine_rayleigh(p, x) + float(p.b @ x)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_in_SE():
    p = diag_problem([1.0, 3.0], [1.0, 1.0])
    v = np.array([1.0, 0.0])
    s = 1.0 / np.sqrt(2.0)
    assert in_SE(p, np.array([-s, -s]), [v])
    assert not in_SE(p, np.array([s, s]), [v])
    # Hard case: b orthogonal to every minimal eigenvector.
    ph = diag_problem([1.0, 3.0], [0.0, 1.0])
    assert in_SE(ph, np.array([s, s]), [v])
    with pytest.raises(ValueError):
        in_SE(p, np.array([s, s]), [])


def test_classify_easy_and_hard():
    p = diag_problem([1.0, 3.0], [1.0, 1.0])
    eig = min_eigpair(p.a)
    case = classify(p, eig)
    assert case.is_easy
    assert abs(abs(case.u[0]) - 1.0) < 1e-9
    assert case.alpha == pytest.approx(1.0)

    ph = diag_problem([1.0, 3.0], [0.0, 1.0])
    case_h = classify(ph, min_eigpair(ph.a))
    assert case_h.kind == "hard"


def test_classify_augmented_pd_is_hard():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((6, 6))
    a = g @ g.T / 6 + 0.5 * np.eye(6)
    p = BtrsProblem(a=DenseOp(a), b=rng.standard_normal(6))
    p_hat = augment(p)
    case = classify(p_hat, min_eigpair(p_hat.a))
    assert case.kind == "hard"


def test_classify_rejects_nan_residual():
    p0, _ = generate(GenSpec(n=20, gap=1e-2, seed=1))
    p = BtrsProblem(a=CallbackOp(lambda v: np.full(20, np.nan), 20), b=p0.b)
    with pytest.raises(ValueError, match="eigenspace residual"):
        classify(p, min_eigpair(p0.a))
