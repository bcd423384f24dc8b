import numpy as np
import pytest

from spheretrs import (
    BtrsProblem,
    CallbackOp,
    DenseOp,
    DiagonalOp,
    EigSeedPrecond,
    ExactSeedPrecond,
    IdentityPrecond,
    PhiFilter,
    build_eig_seed,
    enumerate_affine_eigenvalues,
    kappa_bound,
    make_phi,
)
from spheretrs.precond import metric_matrix


def test_phi_regimes():
    f = PhiFilter(floor=2.0, smoothing=0.5)
    c, s = 2.0, 0.5
    assert f(c - 40 * s) == pytest.approx(c, abs=1e-12)
    assert f(c) == pytest.approx(c + s * np.log(2.0))
    assert f(c + 40 * s) == pytest.approx(c + 40 * s, rel=1e-12)
    # Monotone and never below the floor (saturation may hit it exactly).
    grid = np.linspace(-50, 50, 201)
    vals = [f(a) for a in grid]
    assert all(v >= c for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_identity_solve():
    pre = IdentityPrecond()
    v = np.array([2.0, 4.0])
    assert np.allclose(pre.solve(1.0, v), v / 2.0)


def test_eigseed_blockwise_solve():
    u = np.array([[1.0], [0.0]])
    pre = EigSeedPrecond(u, np.array([3.0]), lambda_c=1.0)
    out = pre.solve(1.0, np.array([4.0, 4.0]))
    assert np.allclose(out, [1.0, 2.0])


def test_eigseed_solve_roundtrip():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((8, 3))
    u, _ = np.linalg.qr(g)
    pre = EigSeedPrecond(u, np.array([2.0, -0.5, 1.0]), lambda_c=0.25)
    shift = 2.0
    v = rng.standard_normal(8)
    y = pre.solve(shift, v)
    back = pre.apply(y) + shift * y
    assert np.linalg.norm(back - v) <= 1e-11


def test_solve_rejects_non_spd_shift():
    pre = EigSeedPrecond(np.eye(2), np.array([1.0, -2.0]), lambda_c=0.0)
    assert pre.lambda_min_m == pytest.approx(-2.0)
    with pytest.raises(ValueError):
        pre.solve(2.0, np.ones(2))


def test_metric_matrix_eigenvalues():
    p = BtrsProblem(a=DiagonalOp(np.array([1.0, 3.0])), b=np.zeros(2))
    pre = EigSeedPrecond(np.eye(2), np.array([1.0, 3.0]), lambda_c=0.0)
    f = PhiFilter(floor=0.5, smoothing=1e-9)
    x = np.array([1.0, 0.0])
    shift = f(-1.0)  # phi(-mu_x) with mu_x = 1
    m = metric_matrix(pre, f, p, x)
    w = np.linalg.eigvalsh(m)
    assert np.allclose(np.sort(w), np.sort([1.0 + shift, 3.0 + shift]), atol=1e-9)


def test_build_eig_seed_exact_on_low_rank_psd():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((40, 5))
    a = g @ g.T
    pre = build_eig_seed(DenseOp(a), rank=5, oversample=10, seed=0)
    m = pre.to_dense(40)
    assert np.linalg.norm(m - a) / np.linalg.norm(a) <= 1e-8


def test_build_eig_seed_deterministic_and_validated():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((20, 20))
    a = DenseOp((m + m.T) / 2)
    p1 = build_eig_seed(a, rank=4, seed=7)
    p2 = build_eig_seed(a, rank=4, seed=7)
    assert np.allclose(p1.to_dense(20), p2.to_dense(20))
    with pytest.raises(ValueError):
        build_eig_seed(a, rank=0)
    with pytest.raises(ValueError):
        build_eig_seed(a, rank=15, oversample=10)


def test_kappa_bound_trivial_cases():
    p = BtrsProblem(a=DiagonalOp(np.array([1.0, 3.0])), b=np.array([0.1, 0.1]))
    f = PhiFilter(floor=-0.999, smoothing=1e-12)

    # M_x = I (identity seed with phi ~ 0): kappa of A - mu*I itself.
    pre = IdentityPrecond()
    xbar = np.array([1.0, 0.0])
    k = kappa_bound(pre, f, p, xbar, 0.0)
    assert k == pytest.approx(3.0, rel=1e-9)

    # Exact seed: whitening A - mu*I by itself gives kappa 1.
    mu = -1.0
    exact = ExactSeedPrecond(np.diag([1.0, 3.0]) - mu * np.eye(2) - 0.0 * np.eye(2))
    k1 = kappa_bound(exact, PhiFilter(floor=1e-12, smoothing=1e-13), p, xbar, mu)
    # metric = (A - mu I) + phi(-mu_x) I with phi tiny but positive; the
    # whitened matrix is then close to the identity.
    assert k1 == pytest.approx(1.0, rel=1e-3)


def test_kappa_bound_requires_easy_case():
    p = BtrsProblem(a=DiagonalOp(np.array([1.0, 3.0])), b=np.array([0.1, 0.1]))
    f = PhiFilter(floor=0.5, smoothing=1e-6)
    with pytest.raises(ValueError, match="hard-case"):
        kappa_bound(IdentityPrecond(), f, p, np.array([1.0, 0.0]), 2.0)


def test_kappa_bound_blows_up_near_hard_case():
    # Fixed spectrum, shrinking gap: conditioning with M = I must explode.
    lam = np.array([0.0, 1.0, 2.0, 5.0])
    kappas = []
    for gap in (1.0, 1e-2, 1e-4, 1e-6):
        mu = lam[0] - gap
        # Plant b so that the optimum is exact for this mu.
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        b = -(lam * x - mu * x)
        p = BtrsProblem(a=DiagonalOp(lam), b=b)
        rep = enumerate_affine_eigenvalues(p)
        pre = IdentityPrecond()
        f = PhiFilter(floor=-0.999999, smoothing=1e-12)
        k = kappa_bound(pre, f, p, rep.global_.x, rep.global_.mu)
        kappas.append(k)
    for small, large in zip(kappas, kappas[1:]):
        assert large >= 10.0 * small


def test_build_eig_seed_rank_deficient_raises_after_one_sketch():
    # rank(A) = 3 < 5: a redraw cannot help, so the sketch is drawn once.
    calls = [0]
    d = np.concatenate(([3.0, -2.0, 1.0], np.zeros(27)))

    def fn(v):
        calls[0] += 1
        return d * v

    with pytest.raises(ValueError, match="rank deficient"):
        build_eig_seed(CallbackOp(fn, 30), rank=5, oversample=5)
    # The Gaussian draw and two rounds of subspace iteration, 10 columns each.
    assert calls[0] == 3 * 10
