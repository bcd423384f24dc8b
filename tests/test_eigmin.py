from dataclasses import replace

import numpy as np
import pytest

from spheretrs import (
    CallbackOp,
    DenseOp,
    DiagonalOp,
    GenSpec,
    classify,
    generate,
    min_eigpair,
)
from spheretrs import eigmin
from spheretrs.eigmin import (
    MinEigResult,
    _band_ritz,
    _cluster_tol,
    _from_band,
    _groups,
)


def test_multiplicity_two_basis():
    a = DiagonalOp(np.array([1.0, 1.0, 5.0]))
    res = min_eigpair(a)
    assert res.lambda_min == pytest.approx(1.0, abs=1e-10)
    assert len(res.basis) == 2
    # The basis must span the e1/e2 plane: no component along e3.
    for v in res.basis:
        assert abs(v[2]) <= 1e-6
    basis = np.column_stack(res.basis)
    assert np.allclose(basis.T @ basis, np.eye(2), atol=1e-9)


def test_identity_matrix():
    res = min_eigpair(DiagonalOp(np.ones(5)))
    assert res.lambda_min == pytest.approx(1.0, abs=1e-10)
    for v in res.basis:
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)


def test_matches_dense_eigensolver():
    rng = np.random.default_rng(0)
    for seed in range(5):
        m = np.random.default_rng(seed).standard_normal((30, 30))
        a = (m + m.T) / 2
        res = min_eigpair(DenseOp(a))
        w, v = np.linalg.eigh(a)
        assert res.lambda_min == pytest.approx(w[0], abs=1e-9)
        u = res.basis[0]
        assert np.linalg.norm(a @ u - res.lambda_min * u) <= 1e-8


def test_residual_bound_respected():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((40, 40))
    a = (m + m.T) / 2
    res = min_eigpair(DenseOp(a), tol=1e-10)
    for v in res.basis:
        r = np.linalg.norm(a @ v - res.lambda_min * v)
        assert r <= 10 * res.tol_eig * max(1.0, abs(res.lambda_min))


@pytest.mark.parametrize(
    "d",
    [
        np.ones(5),
        np.array([1.0, 1.0, 2.0, 3.0]),
        np.array([2.0]),
        np.array([2.0, -1.0]),
        np.array([2.0, 2.0]),
        np.repeat(np.arange(1.0, 41.0), 4),
    ],
)
@pytest.mark.parametrize("opaque", [False, True])
@pytest.mark.parametrize("tol", [1e-10, 1e-30])
def test_returns_within_n_iterations(d, opaque, tol):
    # tol=1e-30 sits below roundoff, so the residual tests fail until the
    # next block is empty and every residual reads 0; the identity's start
    # block is already invariant.  Four copies of 40 eigenvalues hold a block
    # Krylov space of 80 of the 160 columns in exact arithmetic; at
    # tol=1e-30 roundoff carries the basis on to n, so it outgrows its first
    # allocations.
    a = CallbackOp(lambda v: d * v, d.size) if opaque else DiagonalOp(d)
    for seed in range(3):
        res = min_eigpair(a, tol=tol, seed=seed)
        assert res.iterations <= d.size
        assert res.lambda_min == pytest.approx(d.min(), abs=1e-12)
        assert 1 <= len(res.basis) <= np.count_nonzero(d == d.min())


@pytest.mark.parametrize("seed", range(3))
def test_invariant_start_block_returns_at_once(seed):
    # The start block spans an invariant space of the identity, so the next
    # block is empty: the solve returns with no fresh draw in the complement.
    res = min_eigpair(DiagonalOp(np.ones(5)), tol=1e-30, seed=seed)
    assert res.iterations == 1
    assert res.lambda_min == pytest.approx(1.0, abs=1e-15)
    assert len(res.basis) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_huge_norm_stays_within_n_columns(n):
    # At ||A|| = 1e20 the rank rule keeps a roundoff column once the basis
    # fills R^n; the next block is capped at n - k columns, so the solve
    # returns rather than outgrowing the basis.
    res = min_eigpair(DiagonalOp(np.r_[1.0, 1e20 * np.arange(1.0, n)]), seed=0)
    assert res.iterations <= n and len(res.basis) >= 1


def test_matrix_free_grid_laplacian():
    # The 5-point Dirichlet Laplacian on a 50x50 grid, beyond the dense
    # oracle's reach; its bottom eigenvalue 8 sin^2(pi/102) is simple.
    m = 50

    def laplacian(v):
        u = v.reshape(m, m)
        out = 4.0 * u
        out[1:] -= u[:-1]
        out[:-1] -= u[1:]
        out[:, 1:] -= u[:, :-1]
        out[:, :-1] -= u[:, 1:]
        return out.ravel()

    a = CallbackOp(laplacian, m * m)
    b = np.random.default_rng(0).standard_normal(m * m)
    res = min_eigpair(a, b=b)
    lam = 8.0 * np.sin(np.pi / (2 * (m + 1))) ** 2
    assert abs(res.lambda_min - lam) <= 1e-12 * lam
    assert len(res.basis) == 1
    q, h = res.krylov
    k = q.shape[1]
    assert np.abs(q.T @ q - np.eye(k)).max() <= 1e-12
    aq = np.column_stack([laplacian(c) for c in q.T])
    assert np.abs(h - q.T @ aq).max() <= 1e-12


def test_rejects_an_empty_basis():
    with pytest.raises(ValueError, match="^basis "):
        MinEigResult(1.0, [], 1e-10, 1)
    res = min_eigpair(DiagonalOp(np.arange(1.0, 5.0)))
    with pytest.raises(ValueError, match="^basis "):
        replace(res, basis=[])


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_rejects_bad_tol(tol):
    a = generate(GenSpec(n=20, gap=1.0, seed=1))[0].a
    with pytest.raises(ValueError, match="^tol "):
        min_eigpair(a, tol=tol)


@pytest.mark.parametrize("seed", [None, -1, 1.5, "0"])
def test_rejects_bad_seed(seed):
    a = DiagonalOp(np.arange(1.0, 6.0))
    with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
        min_eigpair(a, seed=seed)


_PD = dict(noise_frac=0.0, signal_range=(1.0, 10.0))


@pytest.mark.parametrize(
    "gap, kw, kind",
    [
        (2.0, {}, "easy"),
        (1e-2, {}, "easy"),
        (1e-8, {}, "hard"),
        (0.0, {}, "hard"),
        (0.5, _PD, "easy"),
        (2.0, _PD, "easy"),
    ],
)
def test_bench_grid_parity(gap, kw, kind):
    p, _ = generate(GenSpec(n=500, gap=gap, seed=1, **kw))
    res = min_eigpair(p.a)
    dense = p.a.to_dense()
    lam = np.linalg.eigvalsh(dense)[0]
    assert abs(res.lambda_min - lam) <= 1e-12 * max(1.0, abs(lam))
    u = res.basis[0]
    assert np.linalg.norm(dense @ u - res.lambda_min * u) <= res.cluster_tol
    assert classify(p, res).kind == kind


def _band(h, width):
    """The lower band (``hb[d, j] = h[j + d, j]``) of ``h``, ``width`` wide,
    with zeros in the corner outside ``h``."""
    return np.array([np.r_[np.diagonal(h, -d), np.zeros(d)] for d in range(width + 1)])


def _krylov_band(spectrum, width, seed=0):
    """Lower band (``hb[d, j] = h[j + d, j]``) of ``h = Q' diag(spectrum) Q``
    for the orthonormal block Krylov basis Q of a random start ``width``
    wide, run to the whole space: h is block tridiagonal, so its band holds
    it to roundoff, and it keeps the spectrum."""
    n = len(spectrum)
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, width)))[0]
    while q.shape[1] < n:
        w = spectrum[:, None] * q[:, -width:]
        for _ in range(2):
            w -= q @ (q.T @ w)
        q = np.column_stack([q, np.linalg.qr(w)[0]])
    return _band(q.T @ (spectrum[:, None] * q), width)


_TOL = 1e-10
_SPLIT = 2 * _cluster_tol(1.0, _TOL)  # just too far apart to share a cluster


@pytest.mark.parametrize(
    "spectrum, width, m, count",
    [
        # count: the cluster and the group of the first value above it,
        # which the residual test reads, or every pair.
        (np.arange(1.0, 41.0), 2, 4, 2),
        (np.arange(1.0, 41.0), 1, 4, 2),  # a block that shrank to one column
        (np.r_[1.0, 1.0, np.arange(2.0, 40.0)], 2, 4, 3),  # 2-fold bottom cluster
        (np.r_[1.0, 1.0 + _SPLIT, np.arange(2.0, 40.0)], 2, 4, 2),
        (np.r_[1.0, 2.0, 2.0 + 2 * _SPLIT, np.arange(3.0, 40.0)], 2, 4, 2),
        (np.arange(1.0, 5.0), 2, 4, 4),  # m >= k: every pair
        (np.arange(1.0, 4.0), 1, 4, 3),
        (np.r_[1.0, 2.0, 2.0, np.arange(3.0, 40.0)], 2, 4, 3),  # 2-fold group above
        (np.r_[1.0, 2.0, 2.0, 2.0, np.arange(3.0, 38.0)], 3, 4, 39),  # group reaches m
    ],
)
def test_band_ritz_matches_dense_eigh(spectrum, width, m, count):
    hb = _krylov_band(spectrum, width)
    h = _from_band(hb)
    scale = np.abs(h).max()
    theta, s = _band_ritz(hb, m, _TOL)
    assert s.shape == (len(h), count)
    assert np.abs(theta - np.linalg.eigvalsh(h)[: len(theta)]).max() <= 1e-12 * scale
    assert np.abs(h @ s - s * theta[:count]).max() <= 1e-12 * scale
    assert np.abs(s.T @ s - np.eye(count)).max() <= 1e-12


def test_band_ritz_of_a_diagonal_band():
    # Each shift is a diagonal entry exactly, so its factor has an exact
    # zero pivot, which inverse iteration must step over.
    d = np.arange(1.0, 9.0)
    theta, s = _band_ritz(np.vstack([d, np.zeros((2, 8))]), 4, _TOL)
    assert np.array_equal(theta, d[:4])
    assert np.allclose(np.abs(s), np.eye(8, 2), rtol=0.0, atol=1e-12)


def test_band_ritz_takes_every_pair_inside_a_cluster():
    # Two copies of a 2-fold bottom cluster, side by side, make a 4-fold
    # cluster in a band of width 2, so the m = 4 lowest values all lie in it.
    # _krylov_band pads each band with zeros, so nothing couples the two.
    spectrum = np.r_[1.0, 1.0, np.arange(2.0, 12.0)]
    hb = np.hstack([_krylov_band(spectrum, 2), _krylov_band(spectrum, 2, seed=1)])
    h = _from_band(hb)
    theta, s = _band_ritz(hb, 4, _TOL)
    assert len(theta) == s.shape[1] == len(h) and _groups(theta, _TOL)[0] == 4
    assert np.abs(h @ s - s * theta).max() <= 1e-12 * np.abs(h).max()


@pytest.mark.parametrize(
    "spectrum, m",
    [
        (np.arange(1.0, 4.0), 4),  # m >= k
        (np.r_[np.ones(4), np.arange(2.0, 10.0)], 4),  # the cluster fills all m
        (np.arange(1.0, 13.0), 4),
    ],
)
def test_band_ritz_ignores_the_corner_outside_h(spectrum, m):
    # min_eigpair widens its band with np.empty, so the slots past h's last
    # row hold whatever the heap held: a NaN there must change nothing,
    # neither in the Ritz pairs nor in the dense H that _from_band returns.
    hb = _krylov_band(spectrum, 2)
    h = _from_band(hb)
    k = hb.shape[1]
    theta, s = _band_ritz(hb, m, _TOL)
    dirty = np.asfortranarray(hb)
    dirty[1, k - 1] = dirty[2, k - 2] = dirty[2, k - 1] = np.nan
    theta_d, s_d = _band_ritz(dirty, m, _TOL)
    assert np.isnan(dirty[2, k - 1])  # the caller's band is left as it was
    assert np.array_equal(theta, theta_d) and np.array_equal(s, s_d)
    assert np.array_equal(_from_band(dirty), h)
    assert np.abs(h @ s - s * theta[: s.shape[1]]).max() <= 1e-12 * np.abs(h).max()


def test_returned_pairs_are_the_bands():
    # The pairs the stopping test certified are the ones returned: the band
    # Ritz step of the final H, which is exactly symmetric and zero beyond
    # its band.
    p, _ = generate(GenSpec(n=60, gap=1e-2, seed=1))
    res = min_eigpair(p.a, b=p.b)
    q, h = res.krylov
    assert np.array_equal(h, h.T)
    assert not np.triu(h, 3).any()
    theta, s = _band_ritz(_band(h, 2), 4, res.tol_eig)
    assert res.lambda_min == theta[0]
    assert res.basis[0].tobytes() == (q @ s[:, 0] / np.linalg.norm(q @ s[:, 0])).tobytes()


@pytest.mark.parametrize(
    "gap, kw", [(2.0, {}), (1e-2, {}), (1e-8, {}), (0.0, {}), (0.5, _PD), (2.0, _PD)]
)
def test_band_stops_where_the_dense_rule_stops(gap, kw):
    # The dense stopping test at every prefix of the Krylov space: theta and
    # s from a dense eigh of H's leading j-by-j block, B = H's subdiagonal
    # block below it.  A tighter tol runs the same iterations further, so
    # its H holds the B of the returned k too.
    p, _ = generate(GenSpec(n=500, gap=gap, seed=1, **kw))
    hk = min_eigpair(p.a, b=p.b).krylov[1]
    h = min_eigpair(p.a, b=p.b, tol=1e-12).krylov[1]
    k = len(hk)
    assert len(h) > k and np.array_equal(h[:k, :k], hk)

    def passes(j):
        theta, s = np.linalg.eigh(h[:j, :j])
        edge, top = _groups(theta, _TOL)
        bs = h[j : j + 2, j - 2 : j] @ s[j - 2 : j, :top]
        res = np.r_[np.linalg.norm(bs[:, :edge], axis=0), np.linalg.norm(bs[:, edge:], 2)]
        return np.all(res <= _TOL * np.maximum(1.0, np.abs(theta[: edge + 1])))

    assert next(j for j in range(2, len(h), 2) if passes(j)) == k


def test_stop_reads_the_group_above_the_cluster_as_a_subspace(monkeypatch):
    # A pair just above the minimum makes one group, which the stopping test
    # reads through the spectral norm of B S: the solve stops at the same
    # iteration whichever orthonormal basis of the pair the Ritz step
    # returns.  Reading one vector of the pair, the stop moves with the basis.
    a = DiagonalOp(np.r_[-1.0, 0.0, 0.0, np.linspace(0.01, 10.0, 197)])
    rotated = [0]

    def ritz(angle):
        def run(hb, m, tol):
            theta, s = _band_ritz(hb, m, tol)
            edge, top = _groups(theta, tol)
            if top - edge == 2:
                rotated[0] += 1
                c, sn = np.cos(angle), np.sin(angle)
                s = s.copy()
                s[:, edge:top] = s[:, edge:top] @ np.array([[c, -sn], [sn, c]])
            return theta, s

        return run

    iterations = set()
    for angle in np.linspace(0.0, np.pi, 9):
        monkeypatch.setattr(eigmin, "_band_ritz", ritz(angle))
        iterations.add(min_eigpair(a).iterations)
    assert rotated[0] > 0 and len(iterations) == 1


@pytest.mark.parametrize("b", [None, np.zeros(40)])
def test_b_zero_leaves_the_plain_solve(b):
    p, _ = generate(GenSpec(n=40, gap=1e-2, seed=2))
    plain = min_eigpair(p.a, seed=3)
    res = min_eigpair(p.a, seed=3, b=b)
    assert plain.krylov is None
    if b is None:
        assert res.krylov is None
    else:
        # b = 0 keeps the Krylov state of the b-less start.
        q, h = res.krylov
        k = q.shape[1]
        assert np.allclose(q.T @ q, np.eye(k), atol=1e-12)
        assert np.allclose(h, q.T @ p.a.to_dense() @ q, atol=1e-12)
    assert (res.lambda_min, res.tol_eig, res.iterations) == (
        plain.lambda_min,
        plain.tol_eig,
        plain.iterations,
    )
    assert [v.tobytes() for v in res.basis] == [v.tobytes() for v in plain.basis]


def test_b_start_keeps_the_krylov_state():
    p, _ = generate(GenSpec(n=60, gap=1e-2, seed=1))
    res = min_eigpair(p.a, b=p.b)
    q, h = res.krylov
    k = q.shape[1]
    assert q.shape == (60, k) and h.shape == (k, k)
    assert np.allclose(q.T @ q, np.eye(k), atol=1e-12)
    assert np.allclose(h, q.T @ p.a.to_dense() @ q, atol=1e-12)
    # b spans the first column of the start block.
    assert abs(q[:, 0] @ p.b) == pytest.approx(p.b_norm, rel=1e-14)


@pytest.mark.parametrize(
    "gap, kw", [(0.5, _PD), (2.0, _PD), (1e-2, {}), (0.0, {})]
)
def test_b_start_leaves_the_bench_grid_eigenpair(gap, kw):
    # The ball benchmark's grid; its indefinite instances are also the
    # sphere benchmark's gap 1e-2 and gap 0 instances.
    p, _ = generate(GenSpec(n=500, gap=gap, seed=1, **kw))
    plain = min_eigpair(p.a)
    res = min_eigpair(p.a, b=p.b)
    lam = plain.lambda_min
    assert abs(res.lambda_min - lam) <= 1e-12 * max(1.0, abs(lam))
    assert len(res.basis) == len(plain.basis)
    assert classify(p, res).kind == classify(p, plain).kind


@pytest.mark.parametrize(
    "b, match",
    [(np.ones(3), "length 4"), (np.ones((4, 1)), "length 4"), (np.r_[1.0, np.nan, 0, 0], "b has")],
)
def test_rejects_bad_b(b, match):
    with pytest.raises(ValueError, match=match):
        min_eigpair(DiagonalOp(np.arange(1.0, 5.0)), b=b)
