"""Matrix-free minimal eigenpair computation.

Block Lanczos with full reorthogonalization.  Problem sizes here are
moderate, so robustness is preferred over memory: misclassifying a hard
case poisons the restart logic downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .linop import SymOp


@dataclass(frozen=True)
class MinEigResult:
    lambda_min: float
    basis: List[np.ndarray]  # orthonormal, residual <= tol_eig*max(1,|lambda|)
    tol_eig: float
    iterations: int

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


def _rayleigh_ritz(q: np.ndarray, aq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs ``(theta, s)`` of the projection Q'AQ, given ``aq = A Q``;
    the projection is symmetrized first to wash out roundoff."""
    h = q.T @ aq
    return np.linalg.eigh(0.5 * (h + h.T))


def min_eigpair(
    a: SymOp,
    tol: float = 1e-10,
    seed: int = 0,
) -> MinEigResult:
    """Smallest eigenvalue of A and an orthonormal basis of its Ritz cluster.

    Ritz values within :attr:`MinEigResult.cluster_tol` of the smallest are
    grouped into the returned basis, approximating the minimal eigenspace
    when the eigenvalue is numerically multiple; the block of two vectors
    is what makes that detection possible.  Raises ``ValueError`` when
    ``tol`` is not positive and finite, or when the operator returns a NaN
    or an infinity.

    Every iteration adds at least one column to the orthonormal basis, and
    the Ritz decomposition is exact once it has n columns, so the solve
    returns within n iterations.
    """
    n = a.dim
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    block = min(2, n)

    rng = np.random.default_rng(seed)
    v = _orthonormalize(rng.standard_normal((n, block)), None)
    basis = np.zeros((n, 0))
    a_basis = np.zeros((n, 0))

    iterations = 0
    while True:
        iterations += 1
        while v.shape[1] == 0:
            # Krylov breakdown: restart with fresh random directions in the
            # orthogonal complement, which is non-empty below n columns.
            v = _orthonormalize(rng.standard_normal((n, block)), basis)
        basis = np.hstack([basis, v])
        av = a.apply_block(v)
        if not np.isfinite(av).all():
            # One O(n*block) test per iteration instead of one per matvec.
            raise ValueError("operator output is non-finite (NaN or infinity)")
        a_basis = np.hstack([a_basis, av])

        theta, s = _rayleigh_ritz(basis, a_basis)
        # Once the Krylov space is exhausted the Ritz decomposition is exact,
        # and the residual tests are skipped.
        exact = basis.shape[1] >= n
        vecs: List[np.ndarray] = []
        found = MinEigResult(float(theta[0]), vecs, tol, iterations)
        edge = int(np.count_nonzero(theta - theta[0] <= found.cluster_tol))
        # Every cluster vector must be converged, and so must the smallest
        # Ritz value outside the cluster: otherwise an unresolved copy of
        # lambda_min could still be hiding above it.  The smallest Ritz pair
        # is tested first, so most iterations stop at j = 0.
        for j in range(edge if exact else min(edge + 1, len(theta))):
            y = basis @ s[:, j]
            if not exact and np.linalg.norm(
                a_basis @ s[:, j] - theta[j] * y
            ) > tol * max(1.0, abs(theta[j])):
                break
            if j < edge:
                vecs.append(y / np.linalg.norm(y))
        else:
            return found

        v = _orthonormalize(av, basis)
