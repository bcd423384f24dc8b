import numpy as np
import pytest

from spheretrs import (
    BtrsProblem,
    CallbackOp,
    DenseOp,
    DiagonalOp,
    EigSeedPrecond,
    GenSpec,
    PhiFilter,
    Preconditioner,
    SeededMetric,
    StandardMetric,
    affine_rayleigh,
    build_eig_seed,
    enumerate_affine_eigenvalues,
    generate,
    kappa_bound,
    make_phi,
    metric_matrix,
)


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


def test_eigseed_blockwise_solve():
    # M + I = diag(4, 1): range(U) scales by 1/4, the complement by 1/1.
    u = np.array([[1.0], [0.0]])
    pre = EigSeedPrecond(u, np.array([3.0]))
    out = pre.solve(1.0, np.array([4.0, 4.0]))
    assert np.allclose(out, [1.0, 4.0])


def test_eigseed_solve_roundtrip():
    # U = [c, e3] with c = (0.6, 0.8, 0, 0); the complement is spanned by
    # s = (0.8, -0.6, 0, 0) and e4.  With d = (2, -0.5) and shift 1.5,
    # M + 1.5 I scales c by 3.5, e3 by 1 and the complement by 1.5, so
    # v = 7c + 2e3 + 3s + 1.5e4 solves to y = 2c + 2e3 + 2s + e4.
    u = np.array([[0.6, 0.0], [0.8, 0.0], [0.0, 1.0], [0.0, 0.0]])
    pre = EigSeedPrecond(u, np.array([2.0, -0.5]))
    assert pre.lambda_min_m == -0.5
    assert np.allclose(
        pre.to_dense(),
        [[0.72, 0.96, 0, 0], [0.96, 1.28, 0, 0], [0, 0, -0.5, 0], [0, 0, 0, 0]],
    )
    v = np.array([6.6, 3.8, 2.0, 1.5])
    y = pre.solve(1.5, v)
    assert np.allclose(y, [2.8, 0.4, 2.0, 1.0])
    assert np.allclose(pre.apply(y) + 1.5 * y, v)


def test_solve_rejects_non_spd_shift():
    pre = EigSeedPrecond(np.eye(2), np.array([1.0, -2.0]))
    assert pre.lambda_min_m == pytest.approx(-2.0)
    with pytest.raises(ValueError):
        pre.solve(2.0, np.ones(2))


def test_metric_matrix_eigenvalues():
    p = BtrsProblem(a=DiagonalOp(np.array([1.0, 3.0])), b=np.zeros(2))
    pre = EigSeedPrecond(np.eye(2), np.array([1.0, 3.0]))
    f = PhiFilter(floor=0.5, smoothing=1e-9)
    x = np.array([1.0, 0.0])
    shift = f(-1.0)  # phi(-mu_x) with mu_x = 1
    m = metric_matrix(SeededMetric(pre, f), p, x)
    w = np.linalg.eigvalsh(m)
    assert np.allclose(np.sort(w), np.sort([1.0 + shift, 3.0 + shift]), atol=1e-9)


def test_metric_matrix_needs_only_apply():
    class DiagSeed(Preconditioner):
        def apply(self, v):
            return np.array([1.0, 2.0, 3.0]) * v

        def solve(self, shift, v):
            return v / (np.array([1.0, 2.0, 3.0]) + shift)

    p = BtrsProblem(a=DiagonalOp(np.array([1.0, 2.0, 3.0])), b=np.zeros(3))
    f = PhiFilter(floor=0.5, smoothing=1e-9)
    shift = f(-1.0)  # mu_x = 1 at x = e1
    m = metric_matrix(SeededMetric(DiagSeed(), f), p, np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(m, np.diag([1.0, 2.0, 3.0]) + shift * np.eye(3))


@pytest.mark.parametrize("seed_kind", ["identity", "sketch"])
def test_metric_matrix_equals_mapply_columns(seed_kind):
    p, _ = generate(GenSpec(n=30, gap=0.1, seed=3))
    x = np.random.default_rng(0).standard_normal(30)
    x /= np.linalg.norm(x)
    if seed_kind == "identity":
        m, want = StandardMetric(), np.eye(30)
    else:
        pre = build_eig_seed(p.a, rank=5)
        f = make_phi(pre, p)
        m = SeededMetric(pre, f)
        want = pre.to_dense() + f(-affine_rayleigh(p, x)) * np.eye(30)
    lm = m.at(p, x)
    cols = np.column_stack([lm.mapply(e) for e in np.eye(30)])
    dense = metric_matrix(m, p, x)
    assert np.array_equal(dense, cols)
    assert np.abs(dense - want).max() <= 1e-13


def test_build_eig_seed_exact_on_low_rank_psd():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((40, 5))
    a = g @ g.T
    pre = build_eig_seed(DenseOp(a), rank=5, oversample=10, seed=0)
    m = pre.to_dense()
    assert np.linalg.norm(m - a) / np.linalg.norm(a) <= 1e-8


def test_build_eig_seed_deterministic_and_validated():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((20, 20))
    a = DenseOp((m + m.T) / 2)
    p1 = build_eig_seed(a, rank=4, seed=7)
    p2 = build_eig_seed(a, rank=4, seed=7)
    assert np.allclose(p1.to_dense(), p2.to_dense())
    with pytest.raises(ValueError):
        build_eig_seed(a, rank=0)
    with pytest.raises(ValueError):
        build_eig_seed(a, rank=15, oversample=10)
    with pytest.raises(ValueError, match="oversample"):
        build_eig_seed(a, rank=4, oversample=-3)


def test_kappa_bound_trivial_cases():
    p = BtrsProblem(a=DiagonalOp(np.array([1.0, 3.0])), b=np.array([0.1, 0.1]))

    # M_x = I: kappa of A - mu*I itself.
    xbar = np.array([1.0, 0.0])
    k = kappa_bound(StandardMetric(), p, xbar, 0.0)
    assert k == pytest.approx(3.0, rel=1e-9)

    # Exact seed: whitening A - mu*I by itself gives kappa 1.
    mu = -1.0
    exact = EigSeedPrecond(np.eye(2), np.array([1.0, 3.0]) - mu)
    k1 = kappa_bound(SeededMetric(exact, PhiFilter(floor=1e-12, smoothing=1e-13)), p, xbar, mu)
    # metric = (A - mu I) + phi(-mu_x) I with phi tiny but positive; the
    # whitened matrix is then close to the identity.
    assert k1 == pytest.approx(1.0, rel=1e-3)


def test_kappa_bound_requires_easy_case():
    p = BtrsProblem(a=DiagonalOp(np.array([1.0, 3.0])), b=np.array([0.1, 0.1]))
    with pytest.raises(ValueError, match="hard-case"):
        kappa_bound(StandardMetric(), p, np.array([1.0, 0.0]), 2.0)


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
        k = kappa_bound(StandardMetric(), p, rep.global_.x, rep.global_.mu)
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
