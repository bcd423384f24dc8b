import json

import numpy as np
import pytest

from spheretrs import (
    DenseOp,
    GenSpec,
    classify,
    enumerate_affine_eigenvalues,
    generate,
    min_eigpair,
    problem_to_dict,
    residual,
)


def test_planted_pair_is_affine_eigenpair():
    for gap in (2.0, 1e-2, 1e-6):
        for seed in range(3):
            p, planted = generate(GenSpec(n=30, gap=gap, seed=seed))
            assert np.linalg.norm(planted.x) == pytest.approx(1.0, abs=1e-12)
            r = residual(p, planted.x, planted.mu)
            assert np.linalg.norm(r) <= 1e-10 * (1.0 + np.linalg.norm(p.b))


def test_easy_case_matches_oracle():
    p, planted = generate(GenSpec(n=20, gap=1.0, seed=3))
    rep = enumerate_affine_eigenvalues(p)
    assert rep.global_.mu == pytest.approx(planted.mu, abs=1e-8)
    case = classify(p, min_eigpair(p.a))
    assert case.kind == "easy"


def test_hard_case_matches_oracle():
    p, planted = generate(GenSpec(n=20, gap=0.0, seed=4))
    case = classify(p, min_eigpair(p.a))
    assert case.kind == "hard"
    rep = enumerate_affine_eigenvalues(p)
    assert rep.global_.mu == pytest.approx(planted.mu, abs=1e-8)
    # Planted solution has a fixed-size component along the bottom eigenvector.
    lam, q = np.linalg.eigh(p.a.to_dense())
    assert abs(q[:, 0] @ planted.x) == pytest.approx(np.sqrt(1 - 0.49), abs=1e-8)


def test_determinism():
    spec = GenSpec(n=15, gap=0.5, seed=7)
    p1, pl1 = generate(spec)
    p2, pl2 = generate(spec)
    s1 = json.dumps(problem_to_dict(p1), sort_keys=True)
    s2 = json.dumps(problem_to_dict(p2), sort_keys=True)
    assert s1 == s2
    assert np.array_equal(pl1.x, pl2.x)
    assert pl1.mu == pl2.mu


def test_signal_only_spectrum():
    p, _ = generate(GenSpec(n=2, gap=1.0, noise_frac=0.0, seed=0))
    lam = np.linalg.eigvalsh(p.a.to_dense())
    assert np.allclose(lam, [-5.0, 10.0])


def test_large_n_is_dense():
    p, planted = generate(GenSpec(n=700, gap=1.0, seed=0))
    assert isinstance(p.a, DenseOp)
    r = residual(p, planted.x, planted.mu)
    assert np.linalg.norm(r) <= 1e-10 * (1.0 + np.linalg.norm(p.b))


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(n=0, gap=1.0)
    with pytest.raises(ValueError):
        GenSpec(n=5, gap=-1.0)
    with pytest.raises(ValueError):
        GenSpec(n=5, gap=float("nan"))
    with pytest.raises(ValueError):
        GenSpec(n=5, gap=1.0, noise_frac=1.5)
    with pytest.raises(ValueError):
        GenSpec(n=5, gap=1.0, signal_range=(10.0, -5.0))
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise_std"):
            GenSpec(n=5, gap=1.0, noise_std=bad)
    for bad in (-1, 1.5, False, True):
        with pytest.raises(ValueError, match="seed"):
            GenSpec(n=5, gap=1.0, seed=bad)
    for bad in (1, 2.5, "5"):
        with pytest.raises(ValueError, match="^n "):
            GenSpec(n=bad, gap=1.0)
    for bad in ((-5.0, float("inf")), (-float("inf"), 10.0), (float("nan"), 10.0)):
        with pytest.raises(ValueError, match="signal_range"):
            GenSpec(n=5, gap=1.0, signal_range=bad)
