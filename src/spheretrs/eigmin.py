"""Matrix-free minimal eigenpair computation.

Block Lanczos with full reorthogonalization.  The state is one orthonormal
n-by-k basis Q and the band of H = Q'AQ.  The next block V orthonormalizes
the last block's image against Q, and A Q = Q H + V B E' with
B = V'A(last block): a Ritz pair (theta, Q s) has residual ||B s_last||
(Parlett 1998, ch. 13).  H is block tridiagonal, so it is kept as a band as
wide as the start block.  The Ritz step reads the band: the lowest Ritz
values from LAPACK ``dsbevx`` (through ``scipy.linalg.eig_banded``), and
only the vectors the stopping test needs, by banded inverse iteration
(``dgbtrf``, ``dgbtrs``).  The pairs that pass the test are the ones
returned.  An iteration costs O(n*k*w) for block width w, O(n*w^2) for B
and O(w*k^2) for the band's values, against O(k^3) for a dense eigensolve
of H.
B misses what ``_orthonormalize`` dropped, at most 1e-12*max(1, |R|max) per
direction, so the test under-reads only where 1e-12*||A|| nears
tol*max(1, |theta|); ``classify`` still raises there.  The band leaves out
H's entries beyond it, roundoff of no more than that size.

A solve given a vector b returns its Krylov state: the same space
approximates the solution of the sphere problem with that b (Gould, Lucidi,
Roma & Toint 1999), which ``lpr_solve`` and ``solve_trs`` read.  The
iteration itself is a generator (``_lanczos``) that yields its state after
each step; ``min_eigpair`` stops it by the residual test, and
``solve_trs`` may stop it earlier, once its own answer is certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .linop import SymOp, require_finite, require_int


def _cluster_tol(lam: float, tol: float) -> float:
    """:attr:`MinEigResult.cluster_tol` of a smallest Ritz value ``lam``."""
    return 10.0 * tol * max(1.0, abs(lam))


def _groups(theta: np.ndarray, tol: float) -> tuple[int, int]:
    """``(edge, top)`` for ascending ``theta``: ``theta[:edge]`` is the cluster of
    ``theta[0]``, ``theta[edge:top]`` that of the next value (none: top == edge)."""
    edge = int(np.count_nonzero(theta - theta[0] <= _cluster_tol(theta[0], tol)))
    t = theta[min(edge, len(theta) - 1)]  # theta[-1] when theta is all one cluster
    return edge, int(np.count_nonzero(theta - t <= _cluster_tol(t, tol)))


@dataclass(frozen=True)
class MinEigResult:
    lambda_min: float
    basis: List[np.ndarray]  # orthonormal, residual <= tol_eig*max(1,|lambda|)
    tol_eig: float
    iterations: int
    #: The Krylov state ``(Q, H)`` of a solve given b: the orthonormal
    #: n-by-k basis Q and the projection H = Q'AQ, block tridiagonal and
    #: exactly zero beyond its band; None without b.
    krylov: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __post_init__(self):
        if len(self.basis) == 0:
            raise ValueError("basis must hold at least one vector")

    @property
    def cluster_tol(self) -> float:
        """Distance above ``lambda_min`` within which an eigenvalue counts as
        ``lambda_min`` itself: the one rule for the minimal eigenspace."""
        return _cluster_tol(self.lambda_min, self.tol_eig)


def _orthonormalize(block: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the columns of ``block``, by QR.  A column
    whose diagonal entry of R is at most 1e-12*max(1, |R|max) is dropped."""
    q, r = np.linalg.qr(block)
    keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max())
    return q[:, keep]


def _band_ritz(hb: np.ndarray, m: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Ritz pairs ``(theta, s)`` of the symmetric band matrix h whose lower
    band is ``hb`` (``hb[d, j] = h[j + d, j]``): the ``m`` lowest values,
    from ``dsbevx`` without vectors, and the vectors of the two groups of
    :func:`_groups`, which the residual test reads.  When those ``m`` do
    not reach past both groups, or ``m >= k``, every pair: the test needs
    the whole group above the cluster.
    The corner ``hb[d, j]`` with ``j + d >= k`` lies outside h; it may hold
    anything, NaN included."""
    kd, k = hb.shape[0] - 1, hb.shape[1]
    if m < k:
        theta = scipy.linalg.eig_banded(
            hb,
            lower=True,
            eigvals_only=True,
            select="i",
            select_range=(0, m - 1),
            check_finite=False,
        )
        if (top := _groups(theta, tol)[1]) < m:
            return theta, _band_vectors(hb, theta[:top])
    # Asked for vectors, eig_banded scans its input for NaNs whatever
    # check_finite says, so the corner is cleared in a copy first.
    hb = hb.copy(order="F")
    for d in range(1, kd + 1):
        hb[d, max(k - d, 0) :] = 0.0
    return scipy.linalg.eig_banded(hb, lower=True, overwrite_a_band=True, check_finite=False)


def _band_vectors(hb: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of the band matrix ``hb`` of :func:`_band_ritz`, one
    column per value of ``theta`` (ascending eigenvalues), by two steps of
    inverse iteration from fixed random starts.  After each step a vector is
    orthogonalized against those before it, which keeps a cluster's vectors
    apart.  Each shift is an eigenvalue, so its factor is near singular by
    design: with the band scaled to max|h| = 1, a pivot below eps is raised
    to eps, as ``dstein`` does."""
    kd, k = hb.shape[0] - 1, hb.shape[1]
    # h in the general band layout of dgbtrf: h[i, j] at gb[2 kd + i - j, j],
    # below kd rows of room for the fill-in of its row pivoting.
    gb = np.zeros((3 * kd + 1, k))
    for d in range(kd + 1):
        gb[2 * kd + d, : k - d] = gb[2 * kd - d, d:] = hb[d, : k - d]
    scale = np.abs(gb).max()  # > 0, since theta holds distinct values
    gb /= scale
    eps = np.finfo(float).eps
    s = np.random.default_rng(0).standard_normal((k, len(theta)))
    for j, t in enumerate(theta):
        g = gb.copy()
        g[2 * kd] -= t / scale
        lu, piv, _ = lapack.dgbtrf(g, kd, kd, overwrite_ab=1)
        u = lu[2 * kd]  # the diagonal of U
        small = np.abs(u) < eps
        u[small] = np.copysign(eps, u[small])
        x = s[:, j : j + 1]
        for _ in range(2):
            x = lapack.dgbtrs(lu, kd, kd, x, piv)[0]
            x -= s[:, :j] @ (s[:, :j].T @ x)
            x /= np.linalg.norm(x)
        s[:, j] = x[:, 0]
    return s


def _from_band(hb: np.ndarray) -> np.ndarray:
    """The symmetric h of :func:`_band_ritz`'s band ``hb`` as a dense
    array, exactly zero beyond the band; the corner is not read."""
    k = hb.shape[1]
    h = np.zeros((k, k))
    for d in range(hb.shape[0]):
        j = np.arange(k - d)
        h[j + d, j] = h[j, j + d] = hb[d, : k - d]
    return h


def _widen(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """``x`` copied into the leading corner of a Fortran-order rows-by-cols
    array."""
    out = np.empty((rows, cols), order="F")
    out[: x.shape[0], : x.shape[1]] = x
    return out


@dataclass(frozen=True)
class _Step:
    """The state of :func:`_lanczos` after one iteration: the basis Q
    (n-by-k), the lower band ``hb`` of H = Q'AQ (its corner unwritten, as in
    :func:`_band_ritz`), B = V'A(last block), and the Ritz step: ascending
    values ``theta``, band vectors ``s``, the groups ``(edge, top)`` of
    :func:`_groups` and the residual norms ``res`` of ``theta[:edge + 1]``,
    the last that of the whole group above the cluster.  ``done`` is
    :func:`min_eigpair`'s stopping test."""

    iterations: int
    q: np.ndarray
    hb: np.ndarray
    bmat: np.ndarray
    theta: np.ndarray
    s: np.ndarray
    edge: int
    top: int
    res: np.ndarray
    done: bool

    def lower_bound(self) -> float:
        """A Kato-Temple lower bound on lambda_min (Parlett 1998, ch. 10):
        theta_1 - res_1^2 / (theta_above - res_above - theta_1), from the
        group above a one-vector cluster; -inf when the cluster has more
        vectors, no group lies above it, or the group's interval reaches
        theta_1.  It holds under the eigensolve's standing assumption that
        no eigenvalue below theta_1 was missed, so that none but lambda_min
        lies below theta_above - res_above."""
        if self.edge != 1 or self.top == 1:
            return -np.inf
        gap = self.theta[1] - self.res[1] - self.theta[0]
        return float(self.theta[0] - self.res[0] ** 2 / gap) if gap > 0 else -np.inf

    def krylov(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(Q, H)`` with H dense, as :attr:`MinEigResult.krylov` holds it."""
        return self.q, _from_band(self.hb)

    def result(self, tol: float, keep_krylov: bool) -> MinEigResult:
        """The :class:`MinEigResult` of a solve stopped at this step."""
        q, s = self.q, self.s
        basis = [y / np.linalg.norm(y) for y in (q @ s[:, j] for j in range(self.edge))]
        krylov = self.krylov() if keep_krylov else None
        return MinEigResult(float(self.theta[0]), basis, tol, self.iterations, krylov)


def _lanczos(a: SymOp, tol: float, seed: int, b: Optional[np.ndarray]):
    """The block Lanczos iteration of :func:`min_eigpair`, which checks the
    arguments: a generator of its :class:`_Step` after each iteration.  It
    runs on while its consumer asks; every residual reads 0 once the space
    is invariant."""
    n = a.dim
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    require_int("seed", seed, 0)
    block = min(2, n)

    if b is not None:
        b = np.asarray(b, dtype=float)
        if b.shape != (n,):
            raise ValueError(f"b must be a vector of length {n}, got shape {b.shape}")
        require_finite("b", b)

    rng = np.random.default_rng(seed)
    start = rng.standard_normal((n, block))
    if b is not None and b.any():
        start[:, 0] = b / np.linalg.norm(b)
    v = _orthonormalize(start)
    # q holds the k basis columns in use, and hb the lower band of
    # h = q' A q (hb[d, j] = h[j + d, j]).  With full reorthogonalization h
    # is block tridiagonal, so its band is ``block`` wide: the block width
    # only shrinks.  hb[d, j] with j + d >= k is not written yet (np.empty),
    # and _band_ritz and _from_band ignore it.
    q = np.empty((n, 0))
    hb = np.empty((block + 1, 0))
    k = iterations = 0
    while True:
        iterations += 1
        av = a.apply_block(v)
        if not np.isfinite(av).all():
            # One O(n*block) test per iteration instead of one per matvec.
            raise ValueError("operator output is non-finite (NaN or infinity)")
        w = v.shape[1]
        if k + w > q.shape[1]:
            cap = min(n, max(2 * q.shape[1], k + w))
            q, hb = _widen(q, n, cap), _widen(hb, block + 1, cap)
        q[:, k : k + w] = v
        # Only the new block's column of h is computed, and its band entries
        # are copied from it; the new diagonal block is symmetrized to wash
        # out roundoff.
        c = q[:, : k + w].T @ av
        col = np.vstack([c[:k], 0.5 * (c[k:] + c[k:].T)])  # h[:k+w, k:k+w]
        for d in range(block + 1):
            diag = col.diagonal(d - k)  # h[j, j + d] = h[j + d, j]
            hb[d, max(k - d, 0) :][: diag.size] = diag
        k += w

        theta, s = _band_ritz(hb[:, :k], min(k, 2 * block), tol)
        # Two rounds of classical Gram-Schmidt against q, the first reusing
        # c = q' av.  At most n - k columns are orthogonal to q; past that
        # the rank rule keeps only roundoff (seen at ||A|| >= 1e20).
        r = av - q[:, :k] @ c
        r = r - q[:, :k] @ (q[:, :k].T @ r)
        v = _orthonormalize(r)[:, : n - k]
        edge, top = _groups(theta, tol)
        # Every cluster vector must be converged, and so must the cluster above it
        # (as a subspace): otherwise a copy of lambda_min could hide there.
        bmat = v.T @ av
        bs = bmat @ s[k - w : k, :top]
        res = np.linalg.norm(bs, axis=0)[: edge + 1]
        if top > edge + 1:  # whichever basis of it s holds: the spectral norm
            res[edge] = np.linalg.norm(bs[:, edge:], 2)
        done = bool(np.all(res <= tol * np.maximum(1.0, np.abs(theta[: edge + 1]))))
        yield _Step(iterations, q[:, :k], hb[:, :k], bmat, theta, s, edge, top, res, done)


def min_eigpair(
    a: SymOp,
    tol: float = 1e-10,
    seed: int = 0,
    b: Optional[np.ndarray] = None,
) -> MinEigResult:
    """Smallest eigenvalue of A and an orthonormal basis of its Ritz cluster.

    Ritz values within :attr:`MinEigResult.cluster_tol` of the smallest are
    grouped into the returned basis, approximating the minimal eigenspace
    when the eigenvalue is numerically multiple; the block of two vectors
    is what makes that detection possible.  Deterministic given ``seed``.
    Raises ``ValueError`` when ``tol`` is not positive and finite, when
    ``seed`` is not an integer >= 0, when ``b`` is not a finite vector of
    length n, or when the operator returns a NaN or an infinity.

    The start block is two random columns.  A nonzero ``b`` takes the place
    of the first, and the second is drawn as without it.  Given any ``b``,
    ``b = 0`` included, the result keeps its Krylov state
    (:attr:`MinEigResult.krylov`); with ``b = 0`` the start, and so
    everything else, is the b-less solve's.

    Each Ritz residual is read from B (see the module docstring).  An empty
    next block means the Krylov space is invariant: every residual reads 0
    and the solve returns, so it returns within n iterations.  The basis
    grows by doubling, so it never holds more than twice the columns in use.
    """
    for step in _lanczos(a, tol, seed, b):
        if step.done:
            return step.result(tol, b is not None)
