import numpy as np
import pytest

from spheretrs import (
    BtrsProblem,
    DenseOp,
    DiagonalOp,
    EigSeedPrecond,
    PhiFilter,
    SeededMetric,
    StandardMetric,
    build_eig_seed,
    hess_apply_stationary,
    make_phi,
    metric_inner,
    objective,
    project_tangent,
    retract,
    rgrad,
    tangent_basis,
    transport,
)


def random_problem(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return BtrsProblem(a=DenseOp((m + m.T) / 2), b=rng.standard_normal(n)), rng


def seeded_metric(p):
    pre = build_eig_seed(p.a, rank=2, oversample=0)
    return SeededMetric(pre, make_phi(pre, p))


def test_metric_inner_standard_is_dot():
    p, rng = random_problem(4, 0)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    eta = np.array([0.0, 1.0, 2.0, 0.0])
    xi = np.array([0.0, 3.0, -1.0, 0.0])
    val = metric_inner(StandardMetric(), p, x, eta, xi)
    assert val == pytest.approx(1.0)


def test_metric_inner_positive():
    p, rng = random_problem(6, 1)
    m = seeded_metric(p)
    for _ in range(10):
        x = rng.standard_normal(6)
        x /= np.linalg.norm(x)
        eta = project_tangent(m, p, x, rng.standard_normal(6))
        if np.linalg.norm(eta) > 1e-12:
            assert metric_inner(m, p, x, eta, eta) > 0


def test_project_tangent_standard():
    p, _ = random_problem(2, 2)
    x = np.array([1.0, 0.0])
    out = project_tangent(StandardMetric(), p, x, np.array([1.0, 1.0]))
    assert np.allclose(out, [0.0, 1.0])


def test_project_tangent_idempotent():
    p, rng = random_problem(8, 3)
    for m in (StandardMetric(), seeded_metric(p)):
        for _ in range(5):
            x = rng.standard_normal(8)
            x /= np.linalg.norm(x)
            v = rng.standard_normal(8)
            once = project_tangent(m, p, x, v)
            twice = project_tangent(m, p, x, once)
            assert np.linalg.norm(once - twice) <= 1e-11
            assert abs(once @ x) <= 1e-10 * max(1.0, np.linalg.norm(once))


def test_project_tangent_seeded_hand_value():
    # M_x = diag(1, 4) at x = e1: M^{-1}x = e1, x'M^{-1}x = 1, so the
    # projector acts as v - (x'v) e1.
    p = BtrsProblem(a=DiagonalOp(np.array([0.0, 0.0])), b=np.zeros(2))
    pre = EigSeedPrecond(np.eye(2), np.array([0.0, 3.0]))
    phi = PhiFilter(floor=1.0, smoothing=1e-12)
    m = SeededMetric(pre, phi)
    x = np.array([1.0, 0.0])
    out = m.at(p, x).mapply(np.array([1.0, 1.0]))
    assert np.allclose(out, [1.0, 4.0])
    proj = project_tangent(m, p, x, np.array([1.0, 1.0]))
    assert np.allclose(proj, [0.0, 1.0], atol=1e-9)


def test_retract():
    p, _ = random_problem(2, 4)
    x = np.array([1.0, 0.0])
    assert np.allclose(retract(x, np.zeros(2)), x)
    y = retract(x, np.array([0.0, 1.0]))
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(y, [s, s])


def test_rgrad_hand_value_and_eigvec_zero():
    p = BtrsProblem(a=DiagonalOp(np.array([1.0, 3.0])), b=np.array([1.0, 1.0]))
    g = rgrad(StandardMetric(), p, np.array([1.0, 0.0]))
    assert np.allclose(g, [0.0, 1.0])
    p0 = BtrsProblem(a=DiagonalOp(np.array([1.0, 3.0])), b=np.zeros(2))
    g0 = rgrad(StandardMetric(), p0, np.array([0.0, 1.0]))
    assert np.linalg.norm(g0) <= 1e-14


def test_rgrad_matches_closed_form():
    p, rng = random_problem(9, 5)
    a = p.a.to_dense()
    for _ in range(10):
        x = rng.standard_normal(9)
        x /= np.linalg.norm(x)
        g = rgrad(StandardMetric(), p, x)
        closed = a @ x + p.b - (x @ a @ x) * x - (x @ p.b) * x
        assert np.linalg.norm(g - closed) <= 1e-13 * max(1.0, np.linalg.norm(closed))


def test_transport_hand_value_and_tangency():
    p, rng = random_problem(2, 6)
    x = np.array([1.0, 0.0])
    eta = np.array([0.0, 1.0])
    xi = np.array([0.0, 1.0])
    out = transport(StandardMetric(), p, x, eta, xi)
    assert np.allclose(out, [-0.5, 0.5])
    y = retract(x, eta)
    assert abs(out @ y) <= 1e-12


def test_transport_zero_step_is_projection():
    p, rng = random_problem(5, 7)
    m = StandardMetric()
    x = rng.standard_normal(5)
    x /= np.linalg.norm(x)
    xi = project_tangent(m, p, x, rng.standard_normal(5))
    out = transport(m, p, x, np.zeros(5), xi)
    assert np.allclose(out, xi, atol=1e-12)


def test_hess_hand_value_and_self_adjoint():
    p = BtrsProblem(a=DiagonalOp(np.array([1.0, 3.0])), b=np.zeros(2))
    x = np.array([1.0, 0.0])
    h = hess_apply_stationary(StandardMetric(), p, x, 1.0, np.array([0.0, 1.0]))
    assert np.allclose(h, [0.0, 2.0])

    p2, rng = random_problem(8, 8)
    # Use an eigenvector of A as an exact stationary point of the b=0 problem.
    w, v = np.linalg.eigh(p2.a.to_dense())
    p0 = BtrsProblem(a=p2.a, b=np.zeros(8))
    xbar = v[:, 2]
    mu = w[2]
    for m in (StandardMetric(), seeded_metric(p0)):
        for _ in range(5):
            e1 = project_tangent(m, p0, xbar, rng.standard_normal(8))
            e2 = project_tangent(m, p0, xbar, rng.standard_normal(8))
            h1 = hess_apply_stationary(m, p0, xbar, mu, e1)
            h2 = hess_apply_stationary(m, p0, xbar, mu, e2)
            lhs = metric_inner(m, p0, xbar, e1, h2)
            rhs = metric_inner(m, p0, xbar, e2, h1)
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_gradient_finite_difference():
    p, rng = random_problem(10, 9)
    for m in (StandardMetric(), seeded_metric(p)):
        for _ in range(5):
            x = rng.standard_normal(10)
            x /= np.linalg.norm(x)
            eta = project_tangent(m, p, x, rng.standard_normal(10))
            t = 1e-6
            qp = objective(p, retract(x, t * eta))
            qm = objective(p, retract(x, -t * eta))
            fd = (qp - qm) / (2 * t)
            anal = metric_inner(m, p, x, rgrad(m, p, x), eta)
            assert fd == pytest.approx(anal, rel=1e-5, abs=1e-10)


def test_tangent_basis():
    rng = np.random.default_rng(10)
    for n in (2, 5, 17):
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        basis = tangent_basis(x)
        assert basis.shape == (n, n - 1)
        assert np.allclose(basis.T @ basis, np.eye(n - 1), atol=1e-12)
        assert np.allclose(basis.T @ x, 0.0, atol=1e-12)
