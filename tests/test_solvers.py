import math

import numpy as np
import pytest

from spheretrs import (
    BtrsProblem,
    CallbackOp,
    DenseOp,
    DiagonalOp,
    Preconditioner,
    SeededMetric,
    SolverConfig,
    StandardMetric,
    build_eig_seed,
    classify,
    double_start,
    enumerate_affine_eigenvalues,
    generate,
    GenSpec,
    haar_unit,
    in_SE,
    lpr_solve,
    lpr_transform,
    make_phi,
    metric_inner,
    min_eigpair,
    naive_rgd,
    objective,
    rcg,
    residual,
    rgd,
    rgrad,
)
import spheretrs.solvers as solvers_mod
from spheretrs.solvers import K


def diag_problem(d, b):
    return BtrsProblem(a=DiagonalOp(np.asarray(d, dtype=float)), b=np.asarray(b, dtype=float))


def test_config_validation():
    for field, bad in [
        ("max_iter", 0),
        ("max_iter", -3),
        ("max_iter", 2.5),
        ("tol_grad", -1e-8),
        ("tol_grad", float("nan")),
        ("tol_res", -1.0),
        ("tol_res", float("inf")),
    ]:
        with pytest.raises(ValueError, match=f"^{field} "):
            SolverConfig(**{field: bad})
    # Zero tolerances stay legal; the Armijo constants are fixed.
    SolverConfig(tol_grad=0.0, tol_res=0.0, max_iter=1)
    assert (SolverConfig().armijo_tau, SolverConfig.armijo_c) == (0.5, 1e-4)


def test_naive_rgd_rayleigh_case():
    p = diag_problem([1.0, 3.0], [0.0, 0.0])
    s = 1.0 / np.sqrt(2.0)
    res = naive_rgd(p, np.array([s, s]))
    assert res.converged
    assert res.q == pytest.approx(0.5, abs=1e-10)
    assert abs(abs(res.x[0]) - 1.0) < 1e-6


def test_naive_rgd_matches_oracle():
    p = diag_problem([1.0, 3.0], [1.0, 1.0])
    rep = enumerate_affine_eigenvalues(p)
    res = naive_rgd(p, -p.b / p.b_norm)
    assert res.converged
    assert np.linalg.norm(res.x - rep.global_.x) <= 1e-7


def test_stationary_start_returns_immediately():
    p = diag_problem([1.0, 3.0], [0.0, 0.0])
    res = naive_rgd(p, np.array([1.0, 0.0]))
    assert res.converged
    assert len(res.trace.iters) == 1
    # No descent step was taken.
    assert res.trace.step == [0.0]


def test_trace_monotone_and_csv(tmp_path):
    p = diag_problem([1.0, 3.0, -2.0], [0.5, 1.0, 0.2])
    res = naive_rgd(p, -p.b / p.b_norm)
    qs = res.trace.q
    assert all(b <= a + 1e-12 for a, b in zip(qs, qs[1:]))
    out = tmp_path / "trace.csv"
    res.trace.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iter,q,grad_norm,res_norm,step,elapsed_s,marker"
    assert len(lines) == len(qs) + 1


def test_double_start_b_zero_returns_min_eigvec():
    p = diag_problem([1.0, 3.0, 5.0], [0.0, 0.0, 0.0])
    res = double_start(p)
    assert res.q == pytest.approx(0.5, abs=1e-9)
    assert abs(abs(res.x[0]) - 1.0) < 1e-5


def test_double_start_hard_case_structure():
    # b orthogonal to the minimal eigenspace: the -b/||b|| run stalls at a
    # non-global stationary point, the random run reaches the optimum.
    p = diag_problem([0.0, 2.0, 3.0], [0.0, 1.0, 0.5])
    rep = enumerate_affine_eigenvalues(p)
    assert rep.case == "hard"
    q_star = objective(p, rep.global_.x)
    first = naive_rgd(p, -p.b / p.b_norm)
    mus = np.array([pair.mu for pair in rep.affine_eigs])
    assert np.min(np.abs(mus - first.mu)) <= 1e-6
    assert first.mu > rep.global_.mu + 1e-6
    res = double_start(p)
    assert res.q == pytest.approx(q_star, abs=1e-8)


def test_rcg_competitive_with_rgd():
    wins = 0
    for seed in range(10):
        p, _ = generate(GenSpec(n=60, gap=0.5, seed=seed))
        x0 = -p.b / p.b_norm
        cfg = SolverConfig(max_iter=50000, rng_seed=seed)
        r_gd = naive_rgd(p, x0, cfg)
        r_cg = rcg(StandardMetric(), p, x0, cfg)
        assert r_cg.converged
        assert r_cg.q == pytest.approx(r_gd.q, abs=1e-7)
        wins += len(r_cg.trace.iters) <= len(r_gd.trace.iters)
    assert wins >= 8


def test_se_closure_under_capped_steps():
    for seed in range(5):
        p, _ = generate(GenSpec(n=15, gap=1.0, seed=seed))
        rep = enumerate_affine_eigenvalues(p)
        vs = rep.min_eigvecs
        cfg = SolverConfig(record_iterates=True)
        res = naive_rgd(p, -p.b / p.b_norm, cfg)
        for x in res.trace.iterates:
            assert in_SE(p, x, vs, tol=1e-9)


def test_lpr_transform_identities():
    x = np.array([0.6, 0.8])
    u = np.array([1.0, 0.0])
    assert np.allclose(lpr_transform(x, u), [-0.6, 0.8])
    v = np.array([0.0, 1.0])
    assert np.allclose(lpr_transform(np.array([1.0, 0.0]), v), [1.0, 0.0])
    rng = np.random.default_rng(0)
    m = rng.standard_normal((6, 6))
    p = BtrsProblem(a=DenseOp((m + m.T) / 2), b=rng.standard_normal(6))
    w, vv = np.linalg.eigh(p.a.to_dense())
    u = vv[:, 0]
    for _ in range(10):
        x = rng.standard_normal(6)
        x /= np.linalg.norm(x)
        y = lpr_transform(x, u)
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
        drop = objective(p, x) - objective(p, y)
        assert drop == pytest.approx(2.0 * (u @ p.b) * (u @ x), abs=1e-10)


def test_lpr_solve_easy_postcondition():
    for seed in range(8):
        p, _ = generate(GenSpec(n=15, gap=0.5, seed=seed))
        eig = min_eigpair(p.a)
        res = lpr_solve(p, eig=eig, cfg=SolverConfig(rng_seed=seed))
        assert res.converged
        assert res.mu < eig.lambda_min - 1e-12
        assert res.restarts <= 2


def test_lpr_solve_restart_from_local_minimizer():
    # Start near a local non-global minimizer; the reflection must fire and
    # the final objective must be globally optimal.
    for seed in range(40):
        r = np.random.default_rng(seed)
        m = r.standard_normal((6, 6))
        p = BtrsProblem(a=DenseOp((m + m.T) / 2), b=0.1 * r.standard_normal(6))
        rep = enumerate_affine_eigenvalues(p)
        if rep.local_nonglobal is None:
            continue
        res = lpr_solve(p, x0=rep.local_nonglobal.x, cfg=SolverConfig(rng_seed=seed))
        q_star = objective(p, rep.global_.x)
        assert res.q == pytest.approx(q_star, abs=1e-7 * (1 + abs(q_star)))
        assert res.restarts >= 1
        return
    pytest.skip("no instance with a local non-global minimizer found")


def test_lpr_solve_hard_case():
    p = diag_problem([0.0, 2.0, 3.0], [0.0, 1.0, 0.5])
    rep = enumerate_affine_eigenvalues(p)
    eig = min_eigpair(p.a)
    assert not classify(p, eig).is_easy
    res = lpr_solve(p, eig=eig, cfg=SolverConfig(rng_seed=3))
    q_star = objective(p, rep.global_.x)
    assert res.q == pytest.approx(q_star, abs=1e-8)


def test_lpr_solve_carries_its_classification(monkeypatch):
    easy, _ = generate(GenSpec(n=15, gap=0.5, seed=0))
    eig = min_eigpair(easy.a)
    res = lpr_solve(easy, eig=eig)
    assert res.converged and res.case.kind == "easy"
    assert np.array_equal(res.case.u, classify(easy, eig).u)
    hard = diag_problem([0.0, 2.0, 3.0], [0.0, 1.0, 0.5])
    assert lpr_solve(hard, cfg=SolverConfig(rng_seed=3)).case.kind == "hard"
    # A local non-global start with no restarts allowed: the pathological return.
    for seed in range(40):
        r = np.random.default_rng(seed)
        m = r.standard_normal((6, 6))
        p = BtrsProblem(a=DenseOp((m + m.T) / 2), b=0.1 * r.standard_normal(6))
        rep = enumerate_affine_eigenvalues(p)
        if rep.local_nonglobal is not None:
            break
    monkeypatch.setattr(solvers_mod, "MAX_RESTARTS", 0)
    res = lpr_solve(p, x0=rep.local_nonglobal.x)
    assert res.reason == "pathological" and res.case.kind == "easy"
    # The other solvers make no classification.
    x0 = -easy.b / easy.b_norm
    for other in (rgd(StandardMetric(), easy, x0), rcg(StandardMetric(), easy, x0),
                  double_start(easy)):
        assert other.case is None


def test_invalid_inner_selector():
    p = diag_problem([1.0, 3.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        lpr_solve(p, inner="newton")


class CountingOp(DenseOp):
    """DenseOp that counts its operator applications."""

    def __init__(self, matrix):
        super().__init__(matrix)
        self.applies = 0

    def _matvec(self, v):
        self.applies += 1
        return super()._matvec(v)


class CountingSeed(Preconditioner):
    """Seed preconditioner that counts its shifted solves."""

    def __init__(self, inner):
        self.inner = inner
        self.lambda_min_m = inner.lambda_min_m
        self.solves = 0

    def apply(self, v):
        return self.inner.apply(v)

    def solve(self, shift, v):
        self.solves += 1
        return self.inner.solve(shift, v)


def _counted_run(kind, cfg, gap=1.0):
    p0, _ = generate(GenSpec(n=30, gap=gap, seed=3))
    p = BtrsProblem(a=CountingOp(p0.a.to_dense()), b=p0.b)
    x0 = -p.b / p.b_norm
    pre = None
    if kind == "naive_rgd":
        run = lambda: naive_rgd(p, x0, cfg)
    elif kind == "rcg":
        run = lambda: rcg(StandardMetric(), p, x0, cfg)
    else:
        pre = CountingSeed(build_eig_seed(p.a, rank=5, seed=0))
        m = SeededMetric(pre, make_phi(pre, p))  # the norm estimate applies A
        run = lambda: rcg(m, p, x0, cfg)
    p.a.applies = 0
    res = run()
    return p, res, p.a.applies, pre


def _assert_fresh(p, res):
    ax = p.a.to_dense() @ res.x
    mu = float(res.x @ ax) + float(p.b @ res.x)
    q = 0.5 * float(res.x @ ax) + float(p.b @ res.x)
    rn = float(np.linalg.norm(residual(p, res.x, res.mu)))
    assert abs(res.mu - mu) <= 1e-12 * max(1.0, abs(mu))
    assert abs(res.q - q) <= 1e-12 * max(1.0, abs(q))
    assert res.trace.q[-1] == res.q
    assert abs(res.trace.res_norm[-1] - rn) <= 1e-12 * rn


@pytest.mark.parametrize("kind", ["naive_rgd", "rcg", "seeded_rcg"])
def test_one_apply_per_step_and_fresh_results(kind):
    _, conv, _, _ = _counted_run(kind, SolverConfig())
    assert conv.converged
    cfgs = {
        "converged": SolverConfig(),
        "max_iter": SolverConfig(max_iter=len(conv.trace.iters) - 3),
        "failed": SolverConfig(tol_grad=0.0, tol_res=0.0, max_iter=100000),
    }
    for status, cfg in cfgs.items():
        p, res, applies, _ = _counted_run(kind, cfg)
        assert res.status == status
        steps = len(res.trace.iters) - 1
        assert applies <= steps + math.ceil(steps / K) + 2
        _assert_fresh(p, res)


def test_b_zero_run_estimates_the_norm_once():
    p0, _ = generate(GenSpec(n=30, gap=1.0, seed=3))
    p = BtrsProblem(a=CountingOp(p0.a.to_dense()), b=np.zeros(30))
    res = naive_rgd(p, haar_unit(30, np.random.default_rng(0)), SolverConfig(max_iter=200))
    steps = len(res.trace.iters) - 1
    assert steps > 5
    # b = 0: the first trial step scales by ||A||, a 20-apply power iteration.
    assert p.a.applies <= steps + math.ceil(steps / K) + 2 + 20


def test_seeded_rcg_two_shifted_solves_per_step():
    _, res, _, pre = _counted_run("seeded_rcg", SolverConfig(), gap=1e-2)
    assert res.converged
    steps = len(res.trace.iters) - 1
    assert steps > 5
    # Gradient: M_x^{-1}(Ax + b) and M_x^{-1} x; the CG transport reuses the latter.
    assert pre.solves <= 2 * (steps + math.ceil(steps / K) + 2)


@pytest.mark.parametrize("seeded", [False, True])
def test_loop_gradient_matches_geometry(seeded):
    p, _ = generate(GenSpec(n=30, gap=1.0, seed=3))
    m = StandardMetric()
    if seeded:
        pre = build_eig_seed(p.a, rank=5, seed=0)
        m = SeededMetric(pre, make_phi(pre, p))
    res = rcg(m, p, -p.b / p.b_norm, SolverConfig(max_iter=1, record_iterates=True))
    x = res.trace.iterates[0]  # the start as the loop normalized it
    g = rgrad(m, p, x)
    want = math.sqrt(metric_inner(m, p, x, g, g))
    assert res.trace.grad_norm[0] == pytest.approx(want, rel=1e-12)


def _nan_after(p0, k):
    """``p0`` behind a callback that returns NaN from its (k+1)-th call on."""
    a = p0.a.to_dense()
    calls = [0]

    def fn(v):
        calls[0] += 1
        return a @ v if calls[0] <= k else np.full(p0.dim, np.nan)

    return BtrsProblem(a=CallbackOp(fn, p0.dim), b=p0.b)


@pytest.mark.parametrize("k", [0, 1, 7])
def test_double_start_reports_non_finite_operator(k):
    p0, _ = generate(GenSpec(n=20, gap=1e-2, seed=1))
    res = double_start(_nan_after(p0, k))
    assert res.status == "failed"
    assert res.reason == "non-finite"


def test_lpr_solve_rejects_non_finite_operator():
    p0, _ = generate(GenSpec(n=20, gap=1e-2, seed=1))
    with pytest.raises(ValueError, match="non-finite"):
        lpr_solve(_nan_after(p0, 3))
