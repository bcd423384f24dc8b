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

from .btrs import BtrsProblem
from .eigmin import _orthonormalize, _rayleigh_ritz
from .linop import EigLowRankOp, SymOp

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


class EigSeedPrecond(EigLowRankOp, Preconditioner):
    """M = U diag(d) U^T from a randomized sketch: an unshifted
    :class:`EigLowRankOp`, whose ``apply`` is M v.

    Shifted solves use the closed form blockwise on range(U) and its
    complement, so each solve costs two thin matrix-vector products.
    """

    def __init__(self, u: np.ndarray, d: np.ndarray):
        super().__init__(u, d)
        self.lambda_min_m = float(self.d.min(initial=0.0))

    def solve(self, shift, v):
        self._check_shift(shift)
        ut_v = self.u.T @ v
        head = self.u @ (ut_v / (self.d + shift))
        tail = (v - self.u @ ut_v) / shift
        return head + tail


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
    if oversample < 0:
        raise ValueError(f"sketch oversample must be >= 0, got {oversample}")
    n = a.dim
    if rank + oversample > n:
        raise ValueError("rank + oversample must not exceed the dimension")
    rng = np.random.default_rng(seed)

    omega = rng.standard_normal((n, rank + oversample))
    y = a.apply_block(omega)
    for _ in range(2):  # subspace iteration
        q, _ = np.linalg.qr(y)
        y = a.apply_block(q)
    q = _orthonormalize(y, None)
    if q.shape[1] < rank:
        # A redraw cannot help: the deficiency comes from A's spectrum.
        raise ValueError("sketch is rank deficient; matrix rank below request")
    w, s = _rayleigh_ritz(q, a.apply_block(q))
    order = np.argsort(-np.abs(w))[:rank]
    u = q @ s[:, order]
    # Re-orthonormalize to wash out roundoff from the two-stage product.
    u, _ = np.linalg.qr(u)
    return EigSeedPrecond(u, w[order])
