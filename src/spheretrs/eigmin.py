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


class EigenSolverError(RuntimeError):
    """No convergence within the iteration budget; carries the best pair."""

    def __init__(self, message: str, lambda_min: float, vector: np.ndarray):
        super().__init__(message)
        self.lambda_min = lambda_min
        self.vector = vector


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


def min_eigpair(
    a: SymOp,
    tol: float = 1e-10,
    max_iter: int | None = None,
    seed: int = 0,
) -> MinEigResult:
    """Smallest eigenvalue of A and an orthonormal basis of its Ritz cluster.

    Ritz values within :attr:`MinEigResult.cluster_tol` of the smallest are
    grouped into the returned basis, approximating the minimal eigenspace
    when the eigenvalue is numerically multiple; the block of two vectors
    is what makes that detection possible.  Raises ``ValueError`` when the
    operator returns a NaN or an infinity.
    """
    n = a.dim
    if tol <= 0:
        raise ValueError("tol must be positive")
    block = min(2, n)
    if max_iter is None:
        max_iter = 10 * n

    rng = np.random.default_rng(seed)
    v = _orthonormalize(rng.standard_normal((n, block)), None)
    basis = np.zeros((n, 0))
    a_basis = np.zeros((n, 0))
    best_val = np.inf
    best_vec = None

    iterations = 0
    while iterations < max_iter:
        iterations += 1
        if v.shape[1] == 0:
            # Krylov breakdown: restart with fresh random directions in the
            # orthogonal complement.
            v = _orthonormalize(rng.standard_normal((n, block)), basis)
            if v.shape[1] == 0:
                break
        basis = np.hstack([basis, v])
        av = np.column_stack([a.apply(v[:, j]) for j in range(v.shape[1])])
        if not np.isfinite(av).all():
            # One O(n*block) test per iteration instead of one per matvec.
            raise ValueError("operator output is non-finite (NaN or infinity)")
        a_basis = np.hstack([a_basis, av])

        h = basis.T @ a_basis
        h = 0.5 * (h + h.T)
        theta, s = np.linalg.eigh(h)
        ritz = basis @ s[:, 0]
        a_ritz = a_basis @ s[:, 0]
        res = float(np.linalg.norm(a_ritz - theta[0] * ritz))
        best_val, best_vec = theta[0], ritz

        # Once the Krylov space is exhausted the Ritz decomposition is exact,
        # and the residual tests are skipped.
        exact = basis.shape[1] >= n
        if exact or res <= tol * max(1.0, abs(theta[0])):
            vecs: List[np.ndarray] = []
            found = MinEigResult(float(theta[0]), vecs, tol, iterations)
            edge = int(np.count_nonzero(theta - theta[0] <= found.cluster_tol))
            # Every cluster vector must be converged, and so must the smallest
            # Ritz value outside the cluster: otherwise an unresolved copy of
            # lambda_min could still be hiding above it.
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

    raise EigenSolverError(
        f"no convergence within {max_iter} iterations", float(best_val), best_vec
    )
