import hashlib
import inspect
import math
import sys
from dataclasses import replace

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
    SolveTrace,
    StandardMetric,
    build_eig_seed,
    classify,
    double_start,
    enumerate_affine_eigenvalues,
    generate,
    GenSpec,
    MinEigResult,
    global_solve,
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
from spheretrs.geometry import PointState
from spheretrs.oracle import GLOBAL_SOLVE_LIMIT
from spheretrs.solvers import K, _armijo


def diag_problem(d, b):
    return BtrsProblem(a=DiagonalOp(np.asarray(d, dtype=float)), b=np.asarray(b, dtype=float))


def test_config_validation():
    for field, bad in [
        ("max_iter", 0),
        ("max_iter", -3),
        ("max_iter", 2.5),
        ("max_iter", True),
        ("tol_grad", -1e-8),
        ("tol_grad", float("nan")),
        ("tol_res", -1.0),
        ("tol_res", float("inf")),
        ("rng_seed", -1),
        ("rng_seed", 1.5),
        ("rng_seed", False),
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
    m, pre = StandardMetric(), None
    if kind == "seeded_rcg":
        pre = CountingSeed(build_eig_seed(p.a, rank=5, seed=0))
        m = SeededMetric(pre, make_phi(pre, p))  # the sketch applies A
    p.a.applies = 0
    res = naive_rgd(p, x0, cfg) if kind == "naive_rgd" else rcg(m, p, x0, cfg)
    return p, m, res, p.a.applies, pre


def _assert_fresh(p, m, res):
    ax = p.a.to_dense() @ res.x
    mu = float(res.x @ ax) + float(p.b @ res.x)
    q = 0.5 * float(res.x @ ax) + float(p.b @ res.x)
    rn = float(np.linalg.norm(residual(p, res.x, res.mu)))
    g = rgrad(m, p, res.x)
    gn = math.sqrt(metric_inner(m, p, res.x, g, g))
    assert abs(res.mu - mu) <= 1e-12 * max(1.0, abs(mu))
    assert abs(res.q - q) <= 1e-12 * max(1.0, abs(q))
    assert res.trace.q[-1] == res.q
    assert abs(res.trace.res_norm[-1] - rn) <= 1e-12 * rn
    assert abs(res.trace.grad_norm[-1] - gn) <= 1e-12 * gn


@pytest.mark.parametrize("kind", ["naive_rgd", "rcg", "seeded_rcg"])
def test_one_apply_per_step_and_fresh_results(kind):
    _, _, conv, _, _ = _counted_run(kind, SolverConfig())
    assert conv.converged
    rows = len(conv.trace.iters)
    # A budget below the converged run's row count ends at max_iter; the
    # budgets K - 1, K and K + 1 end just before, at and just after the
    # K-step refresh of A x.
    budget = lambda k: ("max_iter" if k < rows else "converged", SolverConfig(max_iter=k))
    cases = [budget(k) for k in (rows - 3, K - 1, K, K + 1)] + [
        ("converged", SolverConfig()),
        ("failed", SolverConfig(tol_grad=0.0, tol_res=0.0, max_iter=100000)),
    ]
    for status, cfg in cases:
        p, m, res, applies, _ = _counted_run(kind, cfg)
        assert res.status == status
        steps = len(res.trace.iters) - 1
        assert applies <= steps + math.ceil(steps / K) + 2
        _assert_fresh(p, m, res)


def _lines_run(fn, *args):
    """The line numbers of ``_descent_loop`` that ``fn(*args)`` executes."""
    code = solvers_mod._descent_loop.__code__
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add(frame.f_lineno)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        out = fn(*args)
    finally:
        sys.settrace(previous)
    return out, hits


def test_failed_fresh_verdict_restarts_from_steepest_descent():
    # Every odd application adds 1e-6 (e_0'v) e_0, so the recurrence and the
    # fresh product disagree: a stopping test passed on the recurrence fails
    # on the fresh A x, and the loop restarts from -grad.
    p0, _ = generate(GenSpec(n=30, gap=1.0, seed=3))
    a = p0.a.to_dense()
    u = np.eye(30)[0]
    calls = [0]

    def perturbed(v, k):
        return a @ v + 1e-6 * (k % 2) * (u @ v) * u

    def fn(v):
        calls[0] += 1
        return perturbed(v, calls[0])

    p = BtrsProblem(a=CallbackOp(fn, 30), b=p0.b)
    res, hits = _lines_run(rcg, StandardMetric(), p, -p.b / p.b_norm)
    lines, first = inspect.getsourcelines(solvers_mod._descent_loop)
    (reset,) = [first + i + 1 for i, line in enumerate(lines) if line.strip() == "if not done:"]
    assert reset in hits
    assert res.converged
    # The result rests on the operator's last product.
    k = calls[0]
    last = BtrsProblem(a=CallbackOp(lambda v: perturbed(v, k), 30), b=p.b)
    _assert_fresh(last, StandardMetric(), res)


def test_non_finite_final_refresh_fails_the_run():
    # A max_iter run ends on a recurrence state; the operator's NaN arrives
    # on exactly the post-loop refresh: the start, 10 line searches, then it.
    p0, _ = generate(GenSpec(n=30, gap=1.0, seed=3))
    a = p0.a.to_dense()
    calls = [0]

    def fn(v):
        calls[0] += 1
        return np.full(30, np.nan) if calls[0] == 12 else a @ v

    p = BtrsProblem(a=CallbackOp(fn, 30), b=p0.b)
    res = rcg(StandardMetric(), p, -p.b / p.b_norm, SolverConfig(max_iter=10))
    assert calls[0] == 12
    assert (res.status, res.reason) == ("failed", "non-finite")
    assert len(res.trace.iters) == 10 and math.isnan(res.mu)


def test_b_zero_lpr_solve_applies_a_only_to_classify_and_start():
    p0, _ = generate(GenSpec(n=60, gap=1e-2, seed=1))
    eig = min_eigpair(p0.a)
    p = BtrsProblem(a=CountingOp(p0.a.to_dense()), b=np.zeros(60))
    res = lpr_solve(p, eig=eig)
    assert res.converged
    # classify checks each basis vector; the start u is then one fresh A x.
    assert p.a.applies == len(eig.basis) + 1
    assert res.mu == pytest.approx(eig.lambda_min, abs=1e-10)


def test_b_zero_naive_rgd_makes_no_norm_probe():
    p0, _ = generate(GenSpec(n=30, gap=1.0, seed=3))
    dense = p0.a.to_dense()
    p = BtrsProblem(a=CountingOp(dense), b=np.zeros(30))
    res = naive_rgd(p, haar_unit(30, np.random.default_rng(0)), SolverConfig(max_iter=200))
    steps = len(res.trace.iters) - 1
    assert steps > 5
    assert p.a.applies <= steps + math.ceil(steps / K) + 2
    assert res.mu == pytest.approx(np.linalg.eigvalsh(dense)[0], abs=1e-10)


def test_seeded_rcg_two_shifted_solves_per_step():
    _, _, res, _, pre = _counted_run("seeded_rcg", SolverConfig(), gap=1e-2)
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


@pytest.fixture(scope="module")
def near_hard_500():
    """gen seed 1, n=500, gap 1e-8: random starts at rng_seed 55 and 318
    land within about 1.5e-3 of orthogonal to the minimal eigenvector."""
    p, planted = generate(GenSpec(n=500, gap=1e-8, seed=1))
    return p, objective(p, planted.x)


@pytest.mark.parametrize("seed", [55, 318])
def test_double_start_escapes_a_saddle(near_hard_500, seed):
    p, q_star = near_hard_500
    res = double_start(p, SolverConfig(rng_seed=seed))
    assert [k for _, k in res.trace.markers].count("escape") == 1
    assert abs(res.q - q_star) <= 1e-8 * abs(q_star)


def test_lpr_solve_start_holds_no_random_draw(near_hard_500):
    p, q_star = near_hard_500
    res = lpr_solve(p, cfg=SolverConfig(rng_seed=55))
    assert abs(res.q - q_star) <= 1e-8 * abs(q_star)


def test_converged_double_start_makes_no_extra_apply():
    p0, _ = generate(GenSpec(n=60, gap=0.5, seed=1))
    p = BtrsProblem(a=CountingOp(p0.a.to_dense()), b=p0.b)
    res = double_start(p)
    applies, p.a.applies = p.a.applies, 0
    starts = (-p.b / p.b_norm, haar_unit(60, np.random.default_rng(0)))
    r1, r2 = [naive_rgd(p, x0) for x0 in starts]
    assert r1.converged and r2.converged
    assert applies == p.a.applies
    # One trace for the solve: the second run's rows follow the first's.
    rows = len(r1.trace.iters)
    assert res.trace.markers == [(0, "cold_start"), (rows, "cold_start")]
    assert len(res.trace.iters) == rows + len(r2.trace.iters)


def test_elapsed_s_runs_on_across_markers():
    # elapsed_s is the time since the solve began, so it does not restart
    # at the second run's cold_start marker.
    p, _ = generate(GenSpec(n=60, gap=0.5, seed=1))
    trace = double_start(p).trace
    assert len(trace.markers) == 2
    assert np.all(np.diff(trace.elapsed_s) >= 0.0)
    assert trace.elapsed_s[0] > 0.0
    # The start is the trace's own, set when it is made.
    with pytest.raises(TypeError):
        SolveTrace(t_start=0.0)


@pytest.mark.parametrize(
    "x0",
    [np.zeros(3), np.full(3, np.nan), np.full(3, np.inf), np.ones(4), np.ones((3, 1))],
    ids=["0.0", "nan", "inf", "long", "column"],
)
@pytest.mark.parametrize("solver", ["rcg", "lpr_solve"])
def test_rejects_a_zero_or_non_finite_start(x0, solver):
    p = diag_problem([-1.0, 2.0, 3.0], [0.5, 1.0, 0.2])
    with pytest.raises(ValueError, match="x0"):
        if solver == "rcg":
            rcg(StandardMetric(), p, x0)
        else:
            lpr_solve(p, x0=x0)


def test_lpr_solve_opens_at_the_model_minimizer():
    # Opened at 1/||b||, this solve takes about 4,000 rows; the restart, not
    # a capped step, is what makes lpr_solve global.  The eigensolve runs
    # without b, so the descent opens at s u - b, not at a projected optimum.
    p, planted = generate(GenSpec(n=500, gap=1e-2, seed=1))
    q_star = objective(p, planted.x)
    res = lpr_solve(p, eig=min_eigpair(p.a))
    assert res.converged
    assert len(res.trace.iters) <= 1000
    assert abs(res.q - q_star) <= 1e-8 * abs(q_star)


def _capped_steps(p, res):
    """Whether every positive step of ``res`` is (1/||b||) 0.5^k, k >= 0."""
    t_cap = 1.0 / p.b_norm
    for t in res.trace.step:
        k = round(math.log2(t_cap / t)) if t > 0 else 0
        if t > 0 and (k < 0 or t != t_cap * 0.5**k):
            return False
    return True


def test_paper_solvers_keep_the_capped_step():
    p, _ = generate(GenSpec(n=60, gap=1e-2, seed=1))
    x0 = -p.b / p.b_norm
    cfg = SolverConfig(max_iter=300)
    for res in (naive_rgd(p, x0, cfg), double_start(p, cfg), rcg(StandardMetric(), p, x0, cfg)):
        assert max(res.trace.step) > 0
        assert _capped_steps(p, res)
    assert not _capped_steps(p, lpr_solve(p, cfg=cfg, eig=min_eigpair(p.a)))


def test_seeded_lpr_solve_runs_the_public_rcg():
    # Hard case: one run with the default stationarity test, so lpr_solve's
    # trace is the public seeded rcg's from the same start.
    p, _ = generate(GenSpec(n=100, gap=0.0, seed=1))
    eig = min_eigpair(p.a)
    case = classify(p, eig)
    assert case.kind == "hard"
    pre = build_eig_seed(p.a, rank=10, seed=0)
    m = SeededMetric(pre, make_phi(pre, p))
    res = lpr_solve(p, m, eig=eig)
    x0 = (-1.0 if float(case.u @ p.b) > 0 else 1.0) * case.u - p.b
    ref = rcg(m, p, x0)
    assert res.converged
    assert res.trace.step == ref.trace.step and res.trace.q == ref.trace.q
    assert res.x.tobytes() == ref.x.tobytes()


def test_descent_finishes_from_the_projected_start():
    # Shifting A by -1e7 I changes neither the Krylov spaces nor the
    # minimizer, but the eigensolve's residual test scales with
    # |lambda_min| ~ 1e7 while the sphere's does not: the eigenpair
    # converges first, and the projected optimum is only a start.
    p0, planted = generate(GenSpec(n=200, gap=1e-2, seed=1))
    shift = 1e7
    p = BtrsProblem(a=DenseOp(p0.a.to_dense() - shift * np.eye(200)), b=p0.b)
    eig = min_eigpair(p.a, b=p.b)
    res = lpr_solve(p, eig=eig)
    assert res.trace.res_norm[0] > 10 * SolverConfig().tol_res * max(1.0, p.b_norm)
    assert res.converged and len(res.trace.iters) > 1
    q_star = objective(p0, planted.x)
    assert abs(objective(p0, res.x) - q_star) <= 1e-10 * abs(q_star)
    assert abs(res.q - objective(p, global_solve(p).x)) <= 1e-14 * shift


def test_lpr_solve_honours_an_explicit_x0():
    p, _ = generate(GenSpec(n=60, gap=1e-2, seed=1))
    x0 = -p.b / p.b_norm
    projected = lpr_solve(p, eig=min_eigpair(p.a, b=p.b), x0=x0)
    plain = lpr_solve(p, eig=min_eigpair(p.a), x0=x0)
    assert projected.trace.q[0] == objective(p, x0)
    assert projected.trace.q == plain.trace.q
    assert projected.x.tobytes() == plain.x.tobytes()


@pytest.mark.parametrize(
    "x0, match",
    [
        (np.ones((60, 1)), "vector of length 60"),
        (np.r_[np.nan, np.ones(59)], "finite and nonzero"),
        (np.zeros(60), "finite and nonzero"),
        (None, "eig basis vectors must have length 60"),
    ],
)
def test_lpr_solve_checks_x0_before_the_eigensolve(x0, match):
    p0, _ = generate(GenSpec(n=60, gap=1e-2, seed=1))
    a = p0.a.to_dense()
    calls = [0]

    def fn(v):
        calls[0] += 1
        return a @ v

    # With no x0 to reject, a given eig of the wrong length is rejected.
    eig = MinEigResult(-1.0, [np.eye(61)[0]], 1e-10, 1) if x0 is None else None
    with pytest.raises(ValueError, match=match):
        lpr_solve(BtrsProblem(a=CallbackOp(fn, 60), b=p0.b), eig=eig, x0=x0)
    assert calls[0] == 0


def test_krylov_state_beyond_the_global_solve_limit():
    # k = 2001 columns: the projected problem is too large for global_solve,
    # so the solve opens at s u - b, as with no Krylov state.
    n = GLOBAL_SOLVE_LIMIT + 1
    d = np.r_[-1.0, np.linspace(0.0, 1.0, n - 1)]
    p = diag_problem(d, np.r_[0.5, np.full(n - 1, 1.0 / n)])
    e1 = np.eye(n)[0]
    stateless = MinEigResult(-1.0, [e1], 1e-10, 1)
    eig = replace(stateless, krylov=(np.eye(n), np.diag(d)))
    res = lpr_solve(p, eig=eig)
    assert res.converged
    assert res.trace.q == lpr_solve(p, eig=stateless).trace.q


def test_armijo_dd_shortcut_is_exact():
    # On the steepest-descent direction the standard metric's line search
    # takes d'd from the state's g'g, the same dot, so nothing changes.
    p, _ = generate(GenSpec(n=60, gap=1e-2, seed=1))
    x = haar_unit(60, np.random.default_rng(0))
    s = PointState(StandardMetric(), p, x, p.a.apply(x))
    for capped in (True, False):
        short = _armijo(p, s, s.d, s.gg, SolverConfig(), capped)
        full = _armijo(p, s, s.d.copy(), s.gg, SolverConfig(), capped)
        assert short[0] is not None
        assert (short[0], short[3]) == (full[0], full[3])
        assert short[1].tobytes() == full[1].tobytes()
        assert short[2].tobytes() == full[2].tobytes()


def _sha256(*values):
    h = hashlib.sha256()
    for v in values:
        h.update(np.asarray(v, dtype=float).tobytes())
    return h.hexdigest()


# A seeded rcg run's trace and result, recorded before the standard metric's
# descent step took its gradient from the residual: the seeded path keeps
# its formulas, so its arithmetic is byte-identical.  Bits depend on the
# BLAS kernels, so the digest applies only where the problem, the sketch and
# one product of each kind hash as they did where it was recorded (NumPy
# 2.4.6 with scipy-openblas 0.3.31, x86-64 with AVX-512, one thread).
_SEEDED_PRIMITIVES = "716e6b376db4506a9d53bb22a5ac4b20c316f661d2c26935bffb90fc0270ea17"
_SEEDED_TRACE = "196758633eb48f2613e947630130564a25c3ee05eb4cbdf261fdd0082c4dc5d0"


def test_seeded_rcg_trace_is_unchanged():
    p, _ = generate(GenSpec(n=60, gap=1e-2, seed=1))
    pre = build_eig_seed(p.a, rank=5, seed=0)
    primitives = _sha256(
        p.a.to_dense(), p.b, pre.u, pre.d, p.a.apply(p.b), pre.solve(1.0, p.b), p.b @ p.b
    )
    if primitives != _SEEDED_PRIMITIVES:
        pytest.skip("this BLAS rounds differently from the one the digest was recorded on")
    res = rcg(SeededMetric(pre, make_phi(pre, p)), p, -p.b / p.b_norm)
    t = res.trace
    assert res.converged
    assert _sha256(t.q, t.grad_norm, t.res_norm, t.step, res.x, [res.mu, res.q]) == _SEEDED_TRACE
