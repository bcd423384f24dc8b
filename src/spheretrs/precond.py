"""Seed preconditioners and the variable-metric machinery built on them.

A seed M is a fixed symmetric approximation of A.  The metric used on the
sphere is M_x = M + phi(-mu_x)*I, where phi is a smooth filter keeping M_x
positive definite while tracking max(-lambda_min(M), alpha) so that near
the optimum M_x approximates A - mu*I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .btrs import BtrsProblem, affine_rayleigh
from .linop import SymOp

#: Columns :func:`build_eig_seed` draws beyond the requested rank.
OVERSAMPLE = 10


class Preconditioner:
    """Fixed symmetric seed matrix M with cheap shifted solves."""

    lambda_min_m: float

    def apply(self, v: np.ndarray) -> np.ndarray:
        """M v."""
        raise NotImplementedError

    def solve(self, shift: float, v: np.ndarray) -> np.ndarray:
        """(M + shift*I)^{-1} v; requires shift > -lambda_min(M)."""
        raise NotImplementedError

    def _check_shift(self, shift: float) -> None:
        if shift <= -self.lambda_min_m:
            raise ValueError(
                f"shift {shift} does not make M + shift*I positive definite"
            )

    def to_dense(self, n: int) -> np.ndarray:
        raise NotImplementedError


class IdentityPrecond(Preconditioner):
    """M = I; recovers the standard geometry up to a uniform scaling."""

    lambda_min_m = 1.0

    def apply(self, v):
        return np.asarray(v, dtype=float).copy()

    def solve(self, shift, v):
        self._check_shift(shift)
        return np.asarray(v, dtype=float) / (1.0 + shift)

    def to_dense(self, n):
        return np.eye(n)


class ExactSeedPrecond(Preconditioner):
    """M equal to a dense copy of A.  Diagnostics only; defeats the point
    of sketching but makes M_x ~ A - mu*I exact for conditioning studies."""

    def __init__(self, a_dense: np.ndarray):
        a_dense = np.asarray(a_dense, dtype=float)
        self.matrix = 0.5 * (a_dense + a_dense.T)
        self.lambda_min_m = float(np.linalg.eigvalsh(self.matrix)[0])

    def apply(self, v):
        return self.matrix @ v

    def solve(self, shift, v):
        self._check_shift(shift)
        return scipy.linalg.solve(
            self.matrix + shift * np.eye(self.matrix.shape[0]),
            v,
            assume_a="pos",
        )

    def to_dense(self, n):
        return self.matrix.copy()


class EigSeedPrecond(Preconditioner):
    """M = U diag(d) U^T + lambda_c (I - U U^T) from a randomized sketch.

    Shifted solves use the closed form blockwise on range(U) and its
    complement, so each solve costs two thin matrix-vector products.
    """

    def __init__(self, u: np.ndarray, d: np.ndarray, lambda_c: float = 0.0):
        u = np.asarray(u, dtype=float)
        d = np.asarray(d, dtype=float)
        r = u.shape[1]
        if np.linalg.norm(u.T @ u - np.eye(r), "fro") > 1e-10:
            raise ValueError("sketch factor U is not orthonormal")
        self.u = u
        self.d = d
        self.lambda_c = float(lambda_c)
        self.lambda_min_m = float(min(d.min(initial=np.inf), lambda_c))

    def apply(self, v):
        ut_v = self.u.T @ v
        return self.u @ (self.d * ut_v) + self.lambda_c * (v - self.u @ ut_v)

    def solve(self, shift, v):
        self._check_shift(shift)
        ut_v = self.u.T @ v
        head = self.u @ (ut_v / (self.d + shift))
        tail = (v - self.u @ ut_v) / (self.lambda_c + shift)
        return head + tail

    def to_dense(self, n):
        return (self.u * self.d) @ self.u.T + self.lambda_c * (
            np.eye(n) - self.u @ self.u.T
        )


@dataclass(frozen=True)
class PhiFilter:
    """Smooth filter phi(alpha) ~ max(floor, alpha) with floor > -lambda_min(M).

    Concrete form: a softplus shifted to saturate at ``floor``,
    phi(alpha) = floor + s*log(1 + exp((alpha - floor)/s)), evaluated
    overflow-safely.  Strictly above ``floor`` everywhere, monotone, and
    asymptotically linear for large alpha.
    """

    floor: float
    smoothing: float

    def __call__(self, alpha: float) -> float:
        t = (alpha - self.floor) / self.smoothing
        # log(1 + e^t) = max(t, 0) + log1p(e^{-|t|})
        sp = max(t, 0.0) + math.log1p(math.exp(-abs(t)))
        return self.floor + self.smoothing * sp


def make_phi(pre: Preconditioner, p: BtrsProblem) -> PhiFilter:
    """Default filter for a seed: floor just above -lambda_min(M)."""
    lam = pre.lambda_min_m
    floor = -lam + 1e-6 * max(1.0, abs(lam))
    smoothing = 1e-3 * max(1.0, p.b_norm + p.a.norm_estimate())
    return PhiFilter(floor=floor, smoothing=float(smoothing))


def metric_matrix(
    pre: Preconditioner, f: PhiFilter, p: BtrsProblem, x
) -> np.ndarray:
    """Dense M_x = M + phi(-mu_x)*I.  Diagnostics only."""
    n = p.dim
    return pre.to_dense(n) + f(-affine_rayleigh(p, x)) * np.eye(n)


def build_eig_seed(
    a: SymOp,
    rank: int,
    oversample: int = OVERSAMPLE,
    seed: int = 0,
) -> EigSeedPrecond:
    """Rank-``rank`` symmetric sketch of A as a seed preconditioner.

    Draws a Gaussian test matrix, runs a few rounds of subspace iteration
    (A may be indefinite, so the sketch targets extreme eigenvalues of
    either sign), projects A onto the captured subspace and truncates its
    eigendecomposition to the ``rank`` largest-magnitude eigenpairs.  The
    complement eigenvalue is 0 so that off the captured subspace the metric
    reduces to the phi(-mu_x) shift alone.  Deterministic given ``seed``.
    """
    if rank < 1:
        raise ValueError("sketch rank must be >= 1")
    n = a.dim
    if rank + oversample > n:
        raise ValueError("rank + oversample must not exceed the dimension")
    rng = np.random.default_rng(seed)

    omega = rng.standard_normal((n, rank + oversample))
    y = np.column_stack([a.apply(omega[:, j]) for j in range(omega.shape[1])])
    for _ in range(2):  # subspace iteration
        q, _ = np.linalg.qr(y)
        y = np.column_stack([a.apply(q[:, j]) for j in range(q.shape[1])])
    q, r = np.linalg.qr(y)
    good = np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max())
    q = q[:, good]
    if q.shape[1] < rank:
        # A redraw cannot help: the deficiency comes from A's spectrum.
        raise ValueError("sketch is rank deficient; matrix rank below request")
    aq = np.column_stack([a.apply(q[:, j]) for j in range(q.shape[1])])
    small = q.T @ aq
    small = 0.5 * (small + small.T)
    w, s = np.linalg.eigh(small)
    order = np.argsort(-np.abs(w))[:rank]
    u = q @ s[:, order]
    # Re-orthonormalize to wash out roundoff from the two-stage product.
    u, _ = np.linalg.qr(u)
    return EigSeedPrecond(u, w[order], lambda_c=0.0)


def kappa_bound(
    pre: Preconditioner,
    f: PhiFilter,
    p: BtrsProblem,
    xbar,
    mu: float,
) -> float:
    """Condition number of M_x^{-1/2} (A - mu*I) M_x^{-1/2}, dense path.

    Valid only when A - mu*I is positive definite (easy case at the global
    optimum); a singular or indefinite shifted matrix raises.
    """
    n = p.dim
    if n > 2000:
        raise ValueError("dense diagnostic limited to n <= 2000")
    a_dense = p.a.to_dense()
    shifted = a_dense - mu * np.eye(n)
    lam = np.linalg.eigvalsh(shifted)
    if lam[0] <= 0:
        raise ValueError(
            "A - mu*I is not positive definite (hard-case boundary); "
            "the conditioning bound needs the easy case"
        )
    m_x = metric_matrix(pre, f, p, xbar)
    w, v = np.linalg.eigh(m_x)
    if w[0] <= 0:
        raise ValueError("metric matrix is not positive definite")
    inv_sqrt = (v / np.sqrt(w)) @ v.T
    whitened = inv_sqrt @ shifted @ inv_sqrt
    s = np.linalg.eigvalsh(0.5 * (whitened + whitened.T))
    return float(s[-1] / s[0])
