"""End-to-end acceptance suite.

Each test checks one shipped guarantee at its stated tolerance and prints a
single pass/fail line (visible even under pytest's output capture).
"""

import time

import numpy as np
import pytest

from spheretrs import (
    BtrsProblem,
    DenseOp,
    GenSpec,
    SeededMetric,
    SolverConfig,
    StandardMetric,
    augment,
    build_eig_seed,
    classify,
    double_start,
    enumerate_affine_eigenvalues,
    generate,
    haar_unit,
    hess_apply_stationary,
    kappa_bound,
    lpr_solve,
    make_phi,
    metric_matrix,
    min_eigpair,
    naive_rgd,
    objective,
    project_tangent,
    rcg,
    residual,
    retract,
    rgrad,
    solve_trs,
    tangent_basis,
    transport,
)
from spheretrs.trs import lift_eigpair


@pytest.fixture
def report(capfd):
    def _report(num, name, ok, detail=""):
        line = f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        with capfd.disabled():
            print(line)
        assert ok, line

    return _report


def random_symmetric(rng, n, pd=False):
    m = rng.standard_normal((n, n))
    a = (m + m.T) / 2.0
    if pd:
        a = a @ a.T / n + 0.3 * np.eye(n)
    return a


def test_01_oracle_agreement(report):
    t0 = time.perf_counter()
    gaps = [2.0, 1e-2, 0.0]
    worst_q, worst_r = 0.0, 0.0
    for i in range(100):
        n = 2 + (i * 7) % 49
        spec = GenSpec(n=n, gap=gaps[i % 3], seed=i)
        p, _ = generate(spec)
        rep = enumerate_affine_eigenvalues(p)
        q_star = objective(p, rep.global_.x)
        res = double_start(p, SolverConfig(rng_seed=i))
        q_err = abs(res.q - q_star) / (1.0 + abs(q_star))
        r_err = np.linalg.norm(residual(p, res.x, res.mu)) / (1.0 + p.b_norm)
        worst_q = max(worst_q, q_err)
        worst_r = max(worst_r, r_err)
    elapsed = time.perf_counter() - t0
    ok = worst_q <= 1e-8 and worst_r <= 1e-8 and elapsed <= 60.0
    report(
        1,
        "oracle agreement over 100 instances",
        ok,
        f"max q err {worst_q:.2e}, max res {worst_r:.2e}, {elapsed:.1f}s",
    )


def test_02_se_closure(report):
    worst = -np.inf
    for seed in range(20):
        n = 10 + (seed * 3) % 40
        p, _ = generate(GenSpec(n=n, gap=1.0 + 0.1 * seed, seed=seed))
        rep = enumerate_affine_eigenvalues(p)
        cfg = SolverConfig(rng_seed=seed, record_iterates=True)
        res = naive_rgd(p, -p.b / p.b_norm, cfg)
        for x in res.trace.iterates:
            for v in rep.min_eigvecs:
                worst = max(worst, float(v @ p.b) * float(v @ x))
    ok = worst <= 1e-9
    report(2, "S_E closure of the deterministic start", ok, f"max (v'b)(v'x) {worst:.2e}")


def test_03_lpr_descent_bound(report):
    rng = np.random.default_rng(0)
    fired = 0
    checked = 0
    margin = np.inf
    trials = 0
    while fired < 10 and trials < 400:
        trials += 1
        n = rng.integers(4, 20)
        lam = np.sort(rng.standard_normal(n) * 2.0)
        b = rng.standard_normal(n) * 0.1
        p = BtrsProblem(a=DenseOp(np.diag(lam)), b=b)
        rep = enumerate_affine_eigenvalues(p)
        if rep.case != "easy" or rep.local_nonglobal is None:
            continue
        u = rep.min_eigvecs[0]
        alpha = abs(float(u @ p.b))
        if alpha < 1e-6:
            continue
        bound = alpha**2 / (rep.mu_max - rep.lambda_[0])
        res = lpr_solve(p, x0=rep.local_nonglobal.x, cfg=SolverConfig(rng_seed=trials))
        tr = res.trace
        for idx, kind in tr.markers:
            if kind != "lpr":
                continue
            fired += 1
            drop = tr.q[idx - 1] - tr.q[idx]
            checked += 1
            margin = min(margin, drop - bound)
    ok = fired >= 10 and margin >= -1e-9
    report(
        3,
        "reflection descent bound",
        ok,
        f"{fired} restarts over {trials} trials, min(drop - bound) {margin:.2e}",
    )


def test_04_easy_case_postcondition(report):
    gaps = [2.0, 0.5, 1e-2]
    low_restart = 0
    all_below = True
    for seed in range(50):
        n = 5 + (seed * 3) % 46
        p, _ = generate(GenSpec(n=n, gap=gaps[seed % 3], seed=seed))
        rep = enumerate_affine_eigenvalues(p)
        assert rep.case == "easy"
        res = lpr_solve(p, cfg=SolverConfig(rng_seed=seed))
        if not (res.converged and res.mu < rep.lambda_[0] - 1e-12):
            all_below = False
        if res.restarts <= 2:
            low_restart += 1
    ok = all_below and low_restart >= 48
    report(
        4,
        "easy-case postcondition mu < lambda_1",
        ok,
        f"{low_restart}/50 runs with <= 2 restarts",
    )


def _tangent_hessian_eigs(m, p, x, mu):
    basis = tangent_basis(x)
    cols = []
    for j in range(basis.shape[1]):
        cols.append(hess_apply_stationary(m, p, x, mu, basis[:, j]))
    hmat = basis.T @ np.column_stack(cols)
    return np.sort(np.linalg.eigvals(hmat).real)


def test_05_hessian_spectrum_interval(report):
    rng = np.random.default_rng(5)
    worst_slack = -np.inf
    worst_kappa = 0.0
    for seed in range(30):
        n = int(rng.integers(5, 51))
        p, planted = generate(GenSpec(n=n, gap=0.5 + 0.05 * seed, seed=seed))
        x, mu = planted.x, planted.mu
        rank = max(1, min(8, n // 3))
        pre_seed = build_eig_seed(
            p.a, rank=rank, oversample=min(10, n - rank), seed=seed
        )
        for metric in (StandardMetric(), SeededMetric(pre_seed, make_phi(pre_seed, p))):
            eigs = _tangent_hessian_eigs(metric, p, x, mu)
            w, v = np.linalg.eigh(metric_matrix(metric, p, x))
            inv_sqrt = (v / np.sqrt(w)) @ v.T
            shifted = p.a.to_dense() - mu * np.eye(n)
            s = np.linalg.eigvalsh(inv_sqrt @ shifted @ inv_sqrt)
            worst_slack = max(worst_slack, s[0] - eigs[0], eigs[-1] - s[-1])
            kb = kappa_bound(metric, p, x, mu)
            worst_kappa = max(worst_kappa, (eigs[-1] / eigs[0]) / kb)
    ok = worst_slack <= 1e-8 and worst_kappa <= 1.0 + 1e-6
    report(
        5,
        "Hessian spectrum inside the whitened interval",
        ok,
        f"max interval violation {worst_slack:.2e}, max kappa ratio {worst_kappa:.6f}",
    )


def test_06_conditioning_blow_up(report):
    gaps = [1.0, 1e-2, 1e-4, 1e-6]
    kappas = []
    for g in gaps:
        p, planted = generate(GenSpec(n=40, gap=g, seed=0))
        kappas.append(kappa_bound(StandardMetric(), p, planted.x, planted.mu))
    ratios = [kappas[i + 1] / kappas[i] for i in range(len(kappas) - 1)]
    ok = all(r >= 10.0 for r in ratios)
    report(
        6,
        "condition number blows up toward the hard case",
        ok,
        "kappas " + ", ".join(f"{k:.3g}" for k in kappas),
    )


def _iters_to_rel_err(trace, q_star, tol=1e-6):
    scale = max(1.0, abs(q_star))
    for i, qv in enumerate(trace.q):
        if abs(qv - q_star) / scale <= tol:
            return i
    return np.inf


def test_07_preconditioning_benefit(report):
    t0 = time.perf_counter()
    wins = 0
    n, rank = 500, 50
    for seed in range(20):
        p, planted = generate(GenSpec(n=n, gap=1e-8, seed=seed))
        q_star = objective(p, planted.x)
        x0 = -p.b / p.b_norm
        cfg = SolverConfig(rng_seed=seed, max_iter=3000)
        plain = rcg(StandardMetric(), p, x0, cfg)
        pre = build_eig_seed(p.a, rank=rank, seed=seed)
        prc = rcg(SeededMetric(pre, make_phi(pre, p)), p, x0, cfg)
        it_plain = _iters_to_rel_err(plain.trace, q_star)
        it_prc = _iters_to_rel_err(prc.trace, q_star)
        if it_prc < it_plain:
            wins += 1
    elapsed = time.perf_counter() - t0
    ok = wins >= 16 and elapsed <= 600.0
    report(
        7,
        "preconditioned solver wins on tiny-gap instances",
        ok,
        f"{wins}/20 seeds, {elapsed:.1f}s",
    )


def test_08_trs_augmentation(report):
    rng = np.random.default_rng(8)
    worst = 0.0
    pd_checks = True
    for trial in range(50):
        n = int(rng.integers(2, 51))
        pd = trial % 2 == 0
        a = random_symmetric(rng, n, pd=pd)
        b = rng.standard_normal(n) * rng.uniform(0.05, 3.0)
        p = BtrsProblem(a=DenseOp(a), b=b)

        rep = enumerate_affine_eigenvalues(p)
        q_star = objective(p, rep.global_.x)
        lam = np.linalg.eigvalsh(a)
        if lam[0] > 0:
            y = np.linalg.solve(a, -b)
            if np.linalg.norm(y) <= 1.0:
                q_star = min(q_star, objective(p, y))

        ra = solve_trs(p, strategy="always_augment")
        rd = solve_trs(p, strategy="decide")
        scale = 1e-7 * (1.0 + abs(q_star))
        worst = max(
            worst,
            abs(ra.q - q_star) / scale,
            abs(rd.q - q_star) / scale,
            abs(ra.q - rd.q) / scale,
        )
        if pd:
            p_hat = augment(p)
            case = classify(p_hat, min_eigpair(p_hat.a, seed=trial))
            # The lift's eigenpair as solve_trs derives it from A's: (0, [e_1]),
            # orthogonal to b_hat, so the lifted problem is hard.
            lifted = lift_eigpair(min_eigpair(p.a, seed=0, b=p.b))
            lift_ok = (
                lifted.lambda_min == 0.0
                and len(lifted.basis) == 1
                and np.array_equal(lifted.basis[0], np.eye(n + 1)[0])
                and classify(p_hat, lifted).kind == "hard"
            )
            if not (case.kind == "hard" and lift_ok):
                pd_checks = False
    ok = worst <= 1.0 and pd_checks
    report(
        8,
        "ball solver routes agree with ground truth",
        ok,
        f"max scaled error {worst:.3f} (of allowed 1.0)",
    )


def test_09_geometry_suite(report):
    rng = np.random.default_rng(9)
    m = StandardMetric()
    worst_fd, worst_proj, worst_norm, worst_tan = 0.0, 0.0, 0.0, 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        a = random_symmetric(rng, n)
        p = BtrsProblem(a=DenseOp(a), b=rng.standard_normal(n))
        x = haar_unit(n, rng)
        v = rng.standard_normal(n)

        pv = project_tangent(m, p, x, v)
        ppv = project_tangent(m, p, x, pv)
        worst_proj = max(worst_proj, np.linalg.norm(ppv - pv) / max(1.0, np.linalg.norm(v)))

        eta = project_tangent(m, p, x, rng.standard_normal(n))
        y = retract(x, eta)
        worst_norm = max(worst_norm, abs(np.linalg.norm(y) - 1.0))

        xi = project_tangent(m, p, x, rng.standard_normal(n))
        tau = transport(m, p, x, eta, xi)
        worst_tan = max(worst_tan, abs(float(y @ tau)))

        g = rgrad(m, p, x)
        basis = tangent_basis(x)
        h = 1e-5
        fd = np.empty(basis.shape[1])
        for j in range(basis.shape[1]):
            qp = objective(p, retract(x, h * basis[:, j]))
            qm = objective(p, retract(x, -h * basis[:, j]))
            fd[j] = (qp - qm) / (2.0 * h)
        exact = basis.T @ g
        worst_fd = max(worst_fd, np.linalg.norm(fd - exact) / np.linalg.norm(exact))
    ok = worst_fd <= 1e-5 and worst_proj <= 1e-12 and worst_norm <= 1e-12 and worst_tan <= 1e-10
    report(
        9,
        "geometry primitives over 1000 draws",
        ok,
        f"fd {worst_fd:.1e}, proj {worst_proj:.1e}, norm {worst_norm:.1e}, tangency {worst_tan:.1e}",
    )


def test_10_hard_case_first_start(report):
    # Each gen instance is rotated into A's eigenbasis with u'b = 0 set
    # exactly (u = e_0), so the invariant set {x : x_0 = 0} that traps the
    # -b start holds in floating point rather than up to roundoff.
    stuck = escaped = hits = 0
    for seed in range(20):
        n = 10 + (seed * 3) % 31
        p, _ = generate(GenSpec(n=n, gap=0.0, seed=seed))
        lam, v = np.linalg.eigh(p.a.to_dense())
        b = v.T @ p.b
        b[0] = 0.0
        p = BtrsProblem(a=DenseOp(np.diag(lam)), b=b)
        rep = enumerate_affine_eigenvalues(p)
        q_star = objective(p, rep.global_.x)
        others = np.array([pair.mu for pair in rep.affine_eigs if pair is not rep.global_])
        cfg = SolverConfig(rng_seed=seed)

        def trapped(res):
            near_listed = np.min(np.abs(others - res.mu)) <= 1e-6 * (1.0 + abs(res.mu))
            return res.x[0] == 0.0 and res.mu > lam[0] + 1e-10 and near_listed

        x0 = -p.b / p.b_norm
        stuck += trapped(naive_rgd(p, x0, cfg))
        # The same start moved off the set by 1e-8 e_0 must escape it.
        x0[0] += 1e-8
        escaped += not trapped(naive_rgd(p, x0 / np.linalg.norm(x0), cfg))

        rng = np.random.default_rng(seed + 1000)
        res2 = naive_rgd(p, haar_unit(n, rng), cfg)
        if abs(res2.q - q_star) <= 1e-8 * (1.0 + abs(q_star)):
            hits += 1
    ok = stuck == 20 and escaped == 20 and hits >= 19
    report(
        10,
        "hard case defeats the deterministic start, random start recovers",
        ok,
        f"-b start stuck in {stuck}/20, moved off the set escapes in {escaped}/20, "
        f"random start global in {hits}/20 runs",
    )
