import numpy as np
import pytest

from spheretrs import (
    BtrsProblem,
    DenseOp,
    DiagonalOp,
    affine_rayleigh,
    enumerate_affine_eigenvalues,
    global_solve,
    objective,
)


def diag_problem(d, b):
    return BtrsProblem(a=DiagonalOp(np.asarray(d, dtype=float)), b=np.asarray(b, dtype=float))


def test_b_zero_reduces_to_eigendecomposition():
    p = diag_problem([1.0, 3.0], [0.0, 0.0])
    rep = enumerate_affine_eigenvalues(p)
    mus = sorted(pair.mu for pair in rep.affine_eigs)
    assert mus[0] == pytest.approx(1.0, abs=1e-10)
    assert mus[-1] == pytest.approx(3.0, abs=1e-10)
    pair = global_solve(p)
    assert pair.mu == pytest.approx(1.0, abs=1e-10)
    assert abs(abs(pair.x[0]) - 1.0) < 1e-9
    assert objective(p, pair.x) == pytest.approx(0.5)


def test_two_by_two_easy_roots():
    p = diag_problem([1.0, 3.0], [1.0, 1.0])
    rep = enumerate_affine_eigenvalues(p)
    # Exactly one root below lambda_1 and one above lambda_n.
    mus = [pair.mu for pair in rep.affine_eigs]
    assert sum(mu < 1.0 for mu in mus) == 1
    assert sum(mu > 3.0 for mu in mus) == 1
    mu_star = rep.global_.mu
    s = 1.0 / (1.0 - mu_star) ** 2 + 1.0 / (3.0 - mu_star) ** 2
    assert s == pytest.approx(1.0, abs=1e-9)
    assert rep.case == "easy"
    # Residual contract for every listed pair.
    for pair in rep.affine_eigs:
        a_x = p.a.apply(pair.x)
        r = np.linalg.norm(a_x - pair.mu * pair.x + p.b)
        assert r <= 1e-9 * (1.0 + np.linalg.norm(p.b))
        assert np.linalg.norm(pair.x) == pytest.approx(1.0, abs=1e-10)


def test_hard_case_completion():
    p = diag_problem([0.0, 2.0], [0.0, 1.0])
    rep = enumerate_affine_eigenvalues(p)
    assert rep.case == "hard"
    assert rep.global_.mu == pytest.approx(0.0, abs=1e-10)
    x = rep.global_.x
    assert x[1] == pytest.approx(-0.5, abs=1e-9)
    assert abs(x[0]) == pytest.approx(np.sqrt(0.75), abs=1e-9)


def test_root_on_an_inactive_eigenvalue():
    # The root of s at mu = 0.5 meets lambda_1, where b has no component.
    p = diag_problem([0.5, 1.5], [0.0, 1.0])
    rep = enumerate_affine_eigenvalues(p)
    assert [pair.mu for pair in rep.affine_eigs] == pytest.approx([0.5, 0.5, 2.5])
    for pair in rep.affine_eigs[:2]:
        assert np.allclose(pair.x, [0.0, -1.0]) and pair.residual_norm < 1e-12
    assert objective(p, rep.global_.x) == pytest.approx(-0.25)


def test_global_beats_random_sampling():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((8, 8))
    p = BtrsProblem(a=DenseOp((m + m.T) / 2), b=rng.standard_normal(8))
    pair = global_solve(p)
    q_star = objective(p, pair.x)
    for _ in range(2000):
        x = rng.standard_normal(8)
        x /= np.linalg.norm(x)
        assert q_star <= objective(p, x) + 1e-10


def test_mu_is_rayleigh_and_global_is_smallest():
    rng = np.random.default_rng(1)
    for seed in range(5):
        r = np.random.default_rng(seed)
        m = r.standard_normal((10, 10))
        p = BtrsProblem(a=DenseOp((m + m.T) / 2), b=r.standard_normal(10))
        rep = enumerate_affine_eigenvalues(p)
        mus = [pair.mu for pair in rep.affine_eigs]
        assert rep.global_.mu == pytest.approx(min(mus))
        lam1 = rep.lambda_[0]
        assert rep.global_.mu <= lam1 + 1e-10
        assert rep.mu_max == pytest.approx(max(mus))
        for pair in rep.affine_eigs:
            assert affine_rayleigh(p, pair.x) == pytest.approx(pair.mu, abs=1e-7)
        # Objective ordering matches eigenvalue ordering (distinct mu
        # implies distinct q, equal mu implies equal q).
        qs = [objective(p, pair.x) for pair in rep.affine_eigs]
        order = np.argsort(mus)
        assert all(
            qs[order[i]] <= qs[order[i + 1]] + 1e-9 for i in range(len(order) - 1)
        )


def test_local_nonglobal_between_first_eigenvalues():
    found = 0
    for seed in range(30):
        r = np.random.default_rng(seed)
        m = r.standard_normal((6, 6))
        p = BtrsProblem(a=DenseOp((m + m.T) / 2), b=0.1 * r.standard_normal(6))
        rep = enumerate_affine_eigenvalues(p)
        if rep.local_nonglobal is not None:
            found += 1
            lam = rep.lambda_
            assert lam[0] < rep.local_nonglobal.mu
            assert rep.local_nonglobal.mu < lam[-1]
    assert found > 0


def test_secular_interval_structure():
    # At most two affine eigenvalues strictly between consecutive distinct
    # eigenvalues, exactly one above the largest.
    for seed in range(10):
        r = np.random.default_rng(seed)
        lam = np.sort(r.uniform(-3, 3, size=5))
        p = BtrsProblem(a=DiagonalOp(lam), b=r.standard_normal(5))
        rep = enumerate_affine_eigenvalues(p)
        mus = np.array([pair.mu for pair in rep.affine_eigs])
        assert np.sum(mus > lam[-1]) == 1
        assert np.sum(mus < lam[0]) <= 1
        for lo, hi in zip(lam[:-1], lam[1:]):
            assert np.sum((mus > lo) & (mus < hi)) <= 2


def test_lists_every_affine_eigenvalue():
    # For diagonal A the affine eigenvalues are exactly the real eigenvalues
    # of W = [[Lambda, -I], [-b b', Lambda]] (Gander, Golub & von Matt 1989).
    for seed in range(200):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 9))
        lam = r.standard_normal(n)
        b = r.standard_normal(n) * 10.0 ** r.uniform(-2.0, 0.5)
        rep = enumerate_affine_eigenvalues(BtrsProblem(a=DiagonalOp(lam), b=b))
        mus = np.array([pair.mu for pair in rep.affine_eigs])
        w = np.block([[np.diag(lam), -np.eye(n)], [-np.outer(b, b), np.diag(lam)]])
        ev = np.linalg.eigvals(w)
        real = np.sort(ev.real[np.abs(ev.imag) <= 1e-7 * (1.0 + np.abs(ev.real))])
        assert mus.shape == real.shape, seed
        np.testing.assert_allclose(mus, real, rtol=0, atol=1e-8, err_msg=f"seed {seed}")


@pytest.mark.parametrize("second", [1.0, 1.0 + 1e-12])
def test_repeated_minimal_eigenvalue_is_one_cluster(second):
    d = [1.0, second, 3.0, 4.0]
    mus = []
    # b and its rotation inside the minimal eigenspace: the same global mu.
    for b in ([0.3, 0.4, 1.0, 0.0], [0.5, 0.0, 1.0, 0.0]):
        rep = enumerate_affine_eigenvalues(diag_problem(d, b))
        assert rep.case == "easy"
        assert len(rep.min_eigvecs) == 2
        mus.append(rep.global_.mu)
    assert mus[1] == pytest.approx(mus[0], abs=1e-12)
    assert mus[0] == pytest.approx(0.4562197097377715, abs=1e-12)

    rep = enumerate_affine_eigenvalues(diag_problem(d, [0.0, 0.0, 1.0, 0.5]))
    assert rep.case == "hard"
    assert rep.global_.mu == 1.0
    assert len(rep.min_eigvecs) == 2
