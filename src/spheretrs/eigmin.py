"""Matrix-free minimal eigenpair computation.

Block Lanczos with full reorthogonalization.  An iteration with k basis
columns costs O(n*k) for the new column of the projection and the
reorthogonalization, plus a partial eigensolve of the k-by-k projection.
A solve started from a vector b returns its Krylov state: the same space
approximates the solution of the sphere problem with that b (Gould, Lucidi,
Roma & Toint 1999), which ``lpr_solve`` and ``solve_trs`` read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import scipy.linalg

from .linop import SymOp, require_finite, require_int


@dataclass(frozen=True)
class MinEigResult:
    lambda_min: float
    basis: List[np.ndarray]  # orthonormal, residual <= tol_eig*max(1,|lambda|)
    tol_eig: float
    iterations: int
    #: The Krylov state ``(Q, H)`` of a solve started from b: the orthonormal
    #: n-by-k basis Q and the projection H = Q'AQ; None without b.
    krylov: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def cluster_tol(self) -> float:
        """Distance above ``lambda_min`` within which an eigenvalue counts as
        ``lambda_min`` itself: the one rule for the minimal eigenspace."""
        return 10.0 * self.tol_eig * max(1.0, abs(self.lambda_min))


def _orthonormalize(block: np.ndarray, against: np.ndarray | None) -> np.ndarray:
    """Orthogonalize columns of ``block`` against ``against`` and each other.

    Two rounds of classical Gram-Schmidt followed by a QR; rank-deficient
    columns are dropped.
    """
    for _ in range(2):
        if against is not None and against.shape[1] > 0:
            block = block - against @ (against.T @ block)
    q, r = np.linalg.qr(block)
    keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max())
    return q[:, keep]


def _lowest_ritz(h: np.ndarray, m: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``m`` lowest eigenpairs ``(theta, s)`` of the symmetric ``h``, or
    all of them when those ``m`` lie within the cluster of ``theta[0]``: the
    cluster-edge test needs the first Ritz value above the cluster."""
    if m < len(h):
        theta, s = scipy.linalg.eigh(h, subset_by_index=[0, m - 1], check_finite=False)
        if theta[-1] - theta[0] > MinEigResult(float(theta[0]), [], tol, 0).cluster_tol:
            return theta, s
    return np.linalg.eigh(h)


def _widen(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """``x`` copied into the leading corner of a Fortran-order rows-by-cols
    array."""
    out = np.empty((rows, cols), order="F")
    out[: x.shape[0], : x.shape[1]] = x
    return out


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
    of the first, the second is drawn as without it, and the result keeps
    its Krylov state (:attr:`MinEigResult.krylov`).  With no ``b``, or
    ``b = 0``, the result does not depend on ``b``.

    Every iteration adds at least one column to the orthonormal basis, and
    the Ritz decomposition is exact once it has n columns, so the solve
    returns within n iterations.  The basis grows by doubling, so it never
    holds more than twice the columns in use.
    """
    n = a.dim
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    require_int("seed", seed, 0)
    block = min(2, n)

    start_b = False
    if b is not None:
        b = np.asarray(b, dtype=float)
        if b.shape != (n,):
            raise ValueError(f"b must be a vector of length {n}, got shape {b.shape}")
        require_finite("b", b)
        start_b = bool(b.any())

    rng = np.random.default_rng(seed)
    start = rng.standard_normal((n, block))
    if start_b:
        start[:, 0] = b / np.linalg.norm(b)
    v = _orthonormalize(start, None)
    # basis and a_basis = A basis hold k columns in use; h = basis' A basis.
    k = 0
    basis = a_basis = h = np.empty((0, 0))

    iterations = 0
    while True:
        iterations += 1
        while v.shape[1] == 0:
            # Krylov breakdown: restart with fresh random directions in the
            # orthogonal complement, which is non-empty below n columns.
            v = _orthonormalize(rng.standard_normal((n, block)), basis[:, :k])
        av = a.apply_block(v)
        if not np.isfinite(av).all():
            # One O(n*block) test per iteration instead of one per matvec.
            raise ValueError("operator output is non-finite (NaN or infinity)")
        b = v.shape[1]
        if k + b > basis.shape[1]:
            cap = min(n, max(2 * basis.shape[1], k + b))
            basis, a_basis = _widen(basis, n, cap), _widen(a_basis, n, cap)
            h = _widen(h, cap, cap)
        basis[:, k : k + b] = v
        a_basis[:, k : k + b] = av
        # Only the new block's column of the projection is computed; the
        # new diagonal block is symmetrized to wash out roundoff.
        c = basis[:, : k + b].T @ av
        h[:k, k : k + b] = c[:k]
        h[k : k + b, :k] = c[:k].T
        h[k : k + b, k : k + b] = 0.5 * (c[k:] + c[k:].T)
        k += b

        theta, s = _lowest_ritz(h[:k, :k], min(k, 2 * block), tol)
        # Once the Krylov space is exhausted the Ritz decomposition is exact,
        # and the residual tests are skipped.
        exact = k >= n
        vecs: List[np.ndarray] = []
        krylov = (basis[:, :k], h[:k, :k]) if start_b else None
        found = MinEigResult(float(theta[0]), vecs, tol, iterations, krylov)
        edge = int(np.count_nonzero(theta - theta[0] <= found.cluster_tol))
        # Every cluster vector must be converged, and so must the smallest
        # Ritz value outside the cluster: otherwise an unresolved copy of
        # lambda_min could still be hiding above it.  The smallest Ritz pair
        # is tested first, so most iterations stop at j = 0.
        for j in range(edge if exact else min(edge + 1, len(theta))):
            y = basis[:, :k] @ s[:, j]
            if not exact and np.linalg.norm(
                a_basis[:, :k] @ s[:, j] - theta[j] * y
            ) > tol * max(1.0, abs(theta[j])):
                break
            if j < edge:
                vecs.append(y / np.linalg.norm(y))
        else:
            return found

        v = _orthonormalize(av, basis[:, :k])
