import numpy as np
import pytest

import spheretrs.solvers as solvers_mod
import spheretrs.trs as trs_mod
from spheretrs import (
    BtrsProblem,
    CallbackOp,
    DenseOp,
    DiagonalOp,
    GenSpec,
    augment,
    classify,
    enumerate_affine_eigenvalues,
    generate,
    lpr_solve,
    min_eigpair,
    objective,
    psd_init,
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


def test_psd_init_values():
    p = diag_problem([1.0, 3.0], [1.0, 1.0])
    x0 = psd_init(augment(p))
    r3 = 1.0 / np.sqrt(3.0)
    assert np.allclose(x0, [r3, -r3, -r3])
    p0 = diag_problem([1.0, 3.0], [0.0, 0.0])
    assert np.allclose(psd_init(augment(p0)), [1.0, 0.0, 0.0])
    rng = np.random.default_rng(0)
    pb = diag_problem([1.0, 2.0, 3.0], rng.standard_normal(3))
    assert np.linalg.norm(psd_init(augment(pb))) == pytest.approx(1.0)


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


def test_pd_augmented_is_hard_and_init_in_both_sets():
    rng = np.random.default_rng(2)
    n = 8
    g = rng.standard_normal((n, n))
    a = g @ g.T / n + 0.2 * np.eye(n)
    p = BtrsProblem(a=DenseOp(a), b=rng.standard_normal(n))
    p_hat = augment(p)
    case = classify(p_hat, min_eigpair(p_hat.a))
    assert case.kind == "hard"
    x0 = psd_init(p_hat)
    rep = enumerate_affine_eigenvalues(p_hat)
    for v in rep.min_eigvecs:
        assert (v @ p_hat.b) * (v @ x0) <= 1e-12
    assert abs(x0[0]) > 0  # nonzero along the added coordinate: inside S_H


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
    counts = {"min_eigpair": 0, "double_start": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    lanczos = counted("min_eigpair", min_eigpair)
    monkeypatch.setattr(trs_mod, "min_eigpair", lanczos)
    monkeypatch.setattr(solvers_mod, "min_eigpair", lanczos)
    starts = counted("double_start", solvers_mod.double_start)
    monkeypatch.setattr(trs_mod, "double_start", starts, raising=False)
    monkeypatch.setattr(solvers_mod, "double_start", starts)
    res = solve_trs(p, "always_augment")
    assert res.route == "augmented" and res.boundary.converged
    assert counts == {"min_eigpair": 1, "double_start": 0}
    _, q_true = trs_optimum(p)
    assert res.q == pytest.approx(q_true, rel=1e-9)


@pytest.mark.parametrize(
    "lam, has_e1", [(-5e-10, True), (-1.0, False), (5e-10, True), (1.0, True)]
)
def test_lift_eigpair_basis(lam, has_e1):
    p = diag_problem([lam, 1.0, 2.0], [0.3, 1.0, 0.5])
    eig = min_eigpair(p.a, tol=1e-10)
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
    eig = min_eigpair(p0.a, tol=1e-10)
    p = _counting(p0)
    lpr_solve(p, eig=eig)
    lpr_calls = p.a.calls[0]
    p = _counting(p0)
    res = solve_trs(p, "decide", eig=eig)
    assert res.route == "direct"
    # lpr_solve's classification is the only one: no further A applications.
    assert p.a.calls[0] == lpr_calls
    assert res.case_kind == classify(p0, eig).kind == "easy"

    lifted = solve_trs(p0, "always_augment", eig=eig)
    assert lifted.case_kind == classify(augment(p0), trs_mod.lift_eigpair(eig)).kind
    assert lifted.boundary.case.kind == lifted.case_kind
