import numpy as np
import pytest

import spheretrs.eigmin as eigmin_mod
import spheretrs.solvers as solvers_mod
import spheretrs.trs as trs_mod
from spheretrs import (
    BtrsProblem,
    CallbackOp,
    DenseOp,
    DiagonalOp,
    GenSpec,
    SolverConfig,
    augment,
    classify,
    enumerate_affine_eigenvalues,
    generate,
    lpr_solve,
    min_eigpair,
    objective,
    solve_trs,
)


def diag_problem(d, b):
    return BtrsProblem(a=DiagonalOp(np.asarray(d, dtype=float)), b=np.asarray(b, dtype=float))


def trs_optimum(p):
    """Ground truth for the ball problem from the sphere oracle."""
    rep = enumerate_affine_eigenvalues(p)
    best_x = rep.global_.x
    best_q = objective(p, best_x)
    lam, v = np.linalg.eigh(p.a.to_dense())
    if lam[0] > 0:
        y = np.linalg.solve(p.a.to_dense(), -p.b)
        if np.linalg.norm(y) <= 1.0 and objective(p, y) < best_q:
            return y, objective(p, y)
    return best_x, best_q


def test_augment_structure():
    p = diag_problem([1.0, 3.0], [1.0, 1.0])
    p_hat = augment(p)
    assert p_hat.dim == 3
    assert np.allclose(p_hat.b, [0.0, 1.0, 1.0])
    assert np.allclose(p_hat.a.to_dense(), np.diag([0.0, 1.0, 3.0]))
    # Objective ignores the slack coordinate value (zero block).
    x = np.array([0.6, 0.8])
    for s in (-0.3, 0.0, 0.5):
        z = np.concatenate(([s], x))
        assert objective(p_hat, z / np.linalg.norm(z)) != None  # shape check
        assert 0.5 * z @ p_hat.a.apply(z) + p_hat.b @ z == pytest.approx(
            0.5 * x @ p.a.apply(x) + p.b @ x
        )


def test_interior_route():
    p = diag_problem([2.0, 2.0], [0.5, 0.0])
    res = solve_trs(p, strategy="decide")
    assert res.route == "interior"
    assert np.allclose(res.x, [-0.25, 0.0], atol=1e-9)
    assert res.boundary is None and res.case_kind is None


def test_boundary_route():
    p = diag_problem([2.0, 2.0], [4.0, 0.0])
    for strategy in ("decide", "always_augment"):
        res = solve_trs(p, strategy=strategy)
        assert np.allclose(res.x, [-1.0, 0.0], atol=1e-6)
        assert np.linalg.norm(res.x) <= 1.0 + 1e-10


def test_routes_agree_with_oracle():
    rng = np.random.default_rng(1)
    for trial in range(8):
        n = 10
        m = rng.standard_normal((n, n))
        a = (m + m.T) / 2
        if trial % 2 == 0:
            a = a @ a.T / n + 0.3 * np.eye(n)
        b = rng.standard_normal(n) * rng.uniform(0.1, 2.0)
        p = BtrsProblem(a=DenseOp(a), b=b)
        _, q_true = trs_optimum(p)
        tol = 1e-7 * (1.0 + abs(q_true))
        ra = solve_trs(p, strategy="always_augment")
        rd = solve_trs(p, strategy="decide")
        assert abs(ra.q - q_true) <= tol
        assert abs(rd.q - q_true) <= tol
        assert np.linalg.norm(ra.x) <= 1.0 + 1e-10
        assert np.linalg.norm(rd.x) <= 1.0 + 1e-10


def test_pd_augmented_is_hard():
    rng = np.random.default_rng(2)
    n = 8
    g = rng.standard_normal((n, n))
    a = g @ g.T / n + 0.2 * np.eye(n)
    p = BtrsProblem(a=DenseOp(a), b=rng.standard_normal(n))
    p_hat = augment(p)
    assert classify(p_hat, min_eigpair(p_hat.a)).kind == "hard"


def test_invalid_strategy():
    p = diag_problem([1.0, 2.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        solve_trs(p, strategy="guess")


def _counting(p0):
    """``p0`` behind a callback that counts its applications in ``.calls``."""
    a = p0.a.to_dense()
    calls = [0]

    def fn(v):
        calls[0] += 1
        return a @ v

    op = CallbackOp(fn, p0.dim)
    op.calls = calls
    return BtrsProblem(a=op, b=p0.b)


def test_lift_reuses_eigpair(monkeypatch):
    p, _ = generate(GenSpec(n=30, gap=1e-2, seed=3))
    counts = {"eigensolve": 0, "double_start": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # Every eigensolve, min_eigpair's or solve_trs's own, starts one
    # block Lanczos iteration.
    lanczos = counted("eigensolve", eigmin_mod._lanczos)
    monkeypatch.setattr(trs_mod, "_lanczos", lanczos)
    monkeypatch.setattr(eigmin_mod, "_lanczos", lanczos)
    starts = counted("double_start", solvers_mod.double_start)
    monkeypatch.setattr(trs_mod, "double_start", starts, raising=False)
    monkeypatch.setattr(solvers_mod, "double_start", starts)
    res = solve_trs(p, "always_augment")
    assert res.route == "augmented" and res.boundary.converged
    assert counts == {"eigensolve": 1, "double_start": 0}
    _, q_true = trs_optimum(p)
    assert res.q == pytest.approx(q_true, rel=1e-9)


@pytest.mark.parametrize(
    "lam, has_e1", [(-5e-10, True), (-1.0, False), (5e-10, True), (1.0, True)]
)
def test_lift_eigpair_basis(lam, has_e1):
    p = diag_problem([lam, 1.0, 2.0], [0.3, 1.0, 0.5])
    eig = min_eigpair(p.a, tol=1e-10, b=p.b)
    lifted = trs_mod.lift_eigpair(eig)
    e1 = np.eye(4)[0]
    assert any(np.array_equal(v, e1) for v in lifted.basis) == has_e1
    if lam == 1.0:
        # A positive definite: e_1 alone spans the lift's minimal eigenspace.
        assert lifted.lambda_min == 0.0
        assert len(lifted.basis) == 1
        assert classify(augment(p), lifted).kind == "hard"
        return
    assert lifted.lambda_min == eig.lambda_min
    assert len(lifted.basis) == len(eig.basis) + has_e1
    for v, w in zip(eig.basis, lifted.basis):
        assert np.array_equal(w, np.concatenate(([0.0], v)))
    # classify recomputes every basis residual under diag(0, A).
    assert classify(augment(p), lifted).kind == "easy"


def test_singular_psd_lift_is_easy():
    # lambda_min(A) = 0 with b along its eigenvector: the lift's minimal
    # eigenspace holds e_1 and (0, e_1), and b_hat is not orthogonal to it.
    p = diag_problem([0.0, 1.0, 2.0], [0.3, 1.0, 0.5])
    res = solve_trs(p, "always_augment")
    assert res.case_kind == "easy"
    assert res.boundary.converged
    _, q_true = trs_optimum(p)
    assert res.q == pytest.approx(q_true, rel=1e-9)


def test_always_augment_matvecs_close_to_decide():
    p0, _ = generate(GenSpec(n=200, gap=1e-2, seed=1))
    calls = {}
    for strategy in ("decide", "always_augment"):
        p = _counting(p0)
        res = solve_trs(p, strategy)
        assert res.boundary.converged
        calls[strategy] = p.a.calls[0]
    assert calls["always_augment"] <= 1.2 * calls["decide"]


def test_solve_trs_rejects_non_finite_operator():
    p0, _ = generate(GenSpec(n=20, gap=1e-2, seed=1))
    p = BtrsProblem(a=CallbackOp(lambda v: np.full(20, np.nan), 20), b=p0.b)
    for strategy in ("decide", "always_augment"):
        with pytest.raises(ValueError, match="non-finite"):
            solve_trs(p, strategy)


def test_boundary_solve_classifies_once():
    p0, _ = generate(GenSpec(n=20, gap=1e-2, seed=1))
    p = _counting(p0)
    eig = min_eigpair(p.a, seed=0, b=p.b)
    lpr_solve(p, eig=eig)
    lpr_calls = p.a.calls[0]
    p = _counting(p0)
    res = solve_trs(p, "decide")
    assert res.route == "direct"
    # The eigensolve and lpr_solve's classification are the only
    # applications: solve_trs adds none.
    assert p.a.calls[0] == lpr_calls
    assert res.case_kind == classify(p0, eig).kind == "easy"

    lifted = solve_trs(p0, "always_augment")
    assert lifted.case_kind == classify(augment(p0), trs_mod.lift_eigpair(eig)).kind
    assert lifted.boundary.case.kind == lifted.case_kind


@pytest.mark.parametrize("gap", [1e-2, 0.0])
def test_answers_do_not_depend_on_rng_seed(gap):
    p, _ = generate(GenSpec(n=40, gap=gap, seed=2))
    eig = min_eigpair(p.a)
    assert classify(p, eig).kind == ("easy" if gap else "hard")
    xs = {}
    for seed in (0, 55):
        cfg = SolverConfig(rng_seed=seed)
        xs[seed] = lpr_solve(p, cfg=cfg, eig=eig).x
    assert xs[0].tobytes() == xs[55].tobytes()


def _pd_problem(gap):
    """Positive definite gen n=40 problem: -A^{-1}b lies inside the ball for
    gap 0.5 and outside it for gap 2."""
    p, _ = generate(GenSpec(n=40, gap=gap, seed=1, noise_frac=0.0, signal_range=(1.0, 10.0)))
    return p


def test_interior_route_costs_one_application_after_the_eigensolve():
    p0 = _pd_problem(0.5)
    p = _counting(p0)
    eig = min_eigpair(p.a, b=p.b)
    eig_calls = p.a.calls[0]
    assert eig.lambda_min > 0
    p = _counting(p0)
    res = solve_trs(p, "decide")
    assert res.route == "interior"
    assert p.a.calls[0] == eig_calls + 1
    y = np.linalg.solve(p0.a.to_dense(), -p0.b)
    assert np.linalg.norm(res.x - y) <= 1e-10 * np.linalg.norm(y)
    assert res.q == pytest.approx(objective(p0, y), rel=1e-14)


def test_projected_direct_route_costs_one_application_before_lpr_solve():
    p0 = _pd_problem(2.0)
    p = _counting(p0)
    eig = min_eigpair(p.a, seed=0, b=p.b)
    assert eig.lambda_min > 0
    direct = lpr_solve(p, eig=eig)
    lpr_calls = p.a.calls[0]
    p = _counting(p0)
    res = solve_trs(p, "decide")
    assert res.route == "direct"
    assert p.a.calls[0] == lpr_calls + 1
    assert res.x.tobytes() == direct.x.tobytes()
    _, q_true = trs_optimum(p0)
    assert res.q == pytest.approx(q_true, rel=1e-12)


def test_failed_galerkin_check_takes_the_lift():
    # tol_res = 0 leaves the Galerkin check nothing to pass, so "decide"
    # falls back to the lift, which still reaches -A^{-1}b.
    p = _pd_problem(0.5)
    res = solve_trs(p, "decide", SolverConfig(tol_res=0.0, max_iter=5))
    assert res.route == "augmented"
    y = np.linalg.solve(p.a.to_dense(), -p.b)
    assert res.q == pytest.approx(objective(p, y), rel=1e-12)


@pytest.mark.parametrize("gap", [0.5, 1e-2])
def test_lift_eigpair_lifts_the_krylov_state(gap):
    p, _ = generate(GenSpec(n=30, gap=gap, seed=1))
    eig = min_eigpair(p.a, b=p.b)
    q, h = trs_mod.lift_eigpair(eig).krylov
    k = eig.krylov[0].shape[1]
    assert q.shape == (31, k + 1) and h.shape == (k + 1, k + 1)
    assert np.allclose(q.T @ q, np.eye(k + 1), atol=1e-12)
    assert np.allclose(h, q.T @ augment(p).a.to_dense() @ q, atol=1e-12)
    assert np.array_equal(q[:, 0], np.eye(31)[0])


def test_zero_b_positive_definite_takes_the_lift():
    # With b = 0 the eigensolve keeps its Krylov state: "decide" finds the
    # interior x = 0, and the lift returns x = 0 too.  The certificate holds
    # after the start block's two applications, so the eigensolve stops
    # there (it would take a third), and one fresh A y follows.
    p0 = diag_problem([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    p = _counting(p0)
    min_eigpair(p.a, b=p.b)
    assert p.a.calls[0] == 3
    p = _counting(p0)
    res = solve_trs(p, "decide")
    assert res.route == "interior" and p.a.calls[0] == 2 + 1
    assert np.array_equal(res.x, np.zeros(3)) and res.q == 0.0
    assert not np.signbit(res.x).any()  # array_equal takes -0.0 for 0.0
    res = solve_trs(p0, "always_augment")
    assert res.route == "augmented" and res.boundary.converged
    assert np.array_equal(res.x, np.zeros(3)) and res.q == 0.0
    assert not np.signbit(res.x).any()


def test_certified_stop_on_the_pd_interior_instance():
    # The ball benchmark's interior instance.  The full eigensolve from b,
    # a lower bound on either strategy's cost before the certified stop,
    # runs over 200 applications; the certificate holds after under 110.
    spec = GenSpec(n=500, gap=0.5, seed=1, noise_frac=0.0, signal_range=(1.0, 10.0))
    p0, _ = generate(spec)
    p = _counting(p0)
    min_eigpair(p.a, b=p.b)
    eig_calls = p.a.calls[0]
    y = np.linalg.solve(p0.a.to_dense(), -p0.b)
    for strategy, route in (("decide", "interior"), ("always_augment", "augmented")):
        p = _counting(p0)
        res = solve_trs(p, strategy)
        assert res.route == route
        assert p.a.calls[0] <= 0.6 * eig_calls
        assert np.linalg.norm(res.x - y) <= 1e-10 * np.linalg.norm(y)


def _trap_problem(n=100, weight=1e-6):
    """An indefinite A, eigenvalue -0.5 and the rest in [1, 10], whose
    eigenvector u of -0.5 has weight about ``weight`` in b and in the second
    start column of the eigensolve at seed 0; -A^{-1}b would lie inside the
    ball if A were positive definite."""
    rng = np.random.default_rng(7)
    b = rng.standard_normal(n)
    b *= 0.3 / np.linalg.norm(b)
    s2 = np.random.default_rng(0).standard_normal((n, 2))[:, 1]
    basis, _ = np.linalg.qr(np.column_stack([b, s2]))
    w = rng.standard_normal(n)
    w -= basis @ (basis.T @ w)
    u = w / np.linalg.norm(w) + weight * (basis[:, 0] + s2 / np.linalg.norm(s2))
    u /= np.linalg.norm(u)
    v, _ = np.linalg.qr(np.column_stack([u, rng.standard_normal((n, n - 1))]))
    a = (v * np.concatenate(([-0.5], np.linspace(1.0, 10.0, n - 1)))) @ v.T
    return BtrsProblem(a=DenseOp((a + a.T) / 2), b=b)


def test_early_ritz_values_above_a_missed_eigenvalue_certify_nothing():
    # While the eigenvector of -0.5 is still hidden, the Kato-Temple bound
    # reads lambda_min > 0; the Galerkin residual, which must resolve b's
    # component along it, withholds the certificate until the Ritz values
    # turn negative.
    p = _trap_problem()
    bounds = []
    for step in eigmin_mod._lanczos(p.a, 1e-10, 0, p.b):
        bounds.append(step.lower_bound())
        if step.done:
            break
    assert max(bounds) > 1e-10 and step.theta[0] < 0
    _, q_true = trs_optimum(p)
    for strategy, route in (("decide", "direct"), ("always_augment", "augmented")):
        res = solve_trs(p, strategy)
        assert res.route == route
        assert res.q == pytest.approx(q_true, rel=1e-12)


@pytest.mark.parametrize("scale", [0.2, 5.0])
def test_double_lambda_min_positive_definite(scale):
    # lambda_min = 0.5 twice; scale 0.2 puts -A^{-1}b inside the ball, 5 outside.
    rng = np.random.default_rng(4)
    n = 60
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.concatenate(([0.5, 0.5], np.linspace(1.0, 10.0, n - 2)))
    a = (v * lam) @ v.T
    b = rng.standard_normal(n)
    p = BtrsProblem(a=DenseOp((a + a.T) / 2), b=scale * b / np.linalg.norm(b))
    _, q_true = trs_optimum(p)
    for strategy in ("decide", "always_augment"):
        res = solve_trs(p, strategy)
        assert (res.route == "interior") == (strategy == "decide" and scale < 1.0)
        assert res.q == pytest.approx(q_true, rel=1e-10)
        assert np.linalg.norm(res.x) <= 1.0 + 1e-10


def test_band_solve_never_reads_the_band_corner():
    # The corner hb[d, j], j + d >= k, lies outside H; the eigensolve leaves
    # it unwritten (np.empty), so it may hold NaN.
    rng = np.random.default_rng(0)
    k = 7
    m = rng.standard_normal((k, k))
    h = np.triu(np.tril(m @ m.T + k * np.eye(k), 2), -2)
    hb = np.full((3, k), np.nan, order="F")
    for d in range(3):
        hb[d, : k - d] = np.diagonal(h, -d)
    g = rng.standard_normal(k)
    z = trs_mod._band_solve(hb, g)
    assert np.allclose(z, np.linalg.solve(h, g), rtol=1e-12, atol=0)
    hb[0, 0] = -1.0  # not positive definite
    assert trs_mod._band_solve(hb, g) is None
