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
from .eigmin import _orthonormalize
from .linop import EigLowRankOp, SymOp, require_int

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

    def __post_init__(self):
        if not math.isfinite(self.floor):
            raise ValueError(f"floor must be finite, got {self.floor!r}")
        if not 0.0 < self.smoothing < math.inf:
            raise ValueError(f"smoothing must be finite and > 0, got {self.smoothing!r}")

    def __call__(self, alpha: float) -> float:
        t = (alpha - self.floor) / self.smoothing
        # log(1 + e^t) = max(t, 0) + log1p(e^{-|t|})
        sp = max(t, 0.0) + math.log1p(math.exp(-abs(t)))
        return self.floor + self.smoothing * sp


def make_phi(pre: Preconditioner, p: BtrsProblem) -> PhiFilter:
    """Default filter for a seed: floor just above -lambda_min(M), and
    smoothing 1e-3 * max(1, ||b||).  Makes no operator application."""
    lam = pre.lambda_min_m
    floor = -lam + 1e-6 * max(1.0, abs(lam))
    return PhiFilter(floor=floor, smoothing=1e-3 * max(1.0, p.b_norm))


def build_eig_seed(
    a: SymOp,
    rank: int,
    oversample: int = OVERSAMPLE,
    seed: int = 0,
) -> EigSeedPrecond:
    """Rank-``rank`` symmetric sketch of A as a seed preconditioner.

    One sketch product: draws a Gaussian test matrix Omega, orthonormalizes
    A Omega, projects A onto that range (Rayleigh-Ritz) and keeps the
    ``rank`` largest-magnitude eigenpairs, so A may be indefinite.  Costs
    at most 2 * (rank + oversample) operator applications.  The complement
    eigenvalue is 0 so that off the captured subspace the metric reduces to
    the phi(-mu_x) shift alone.  Deterministic given ``seed``.
    Raises ``ValueError`` naming the field when ``rank`` is not an integer
    >= 1, or ``oversample`` or ``seed`` not an integer >= 0.
    """
    require_int("rank", rank, 1)
    require_int("oversample", oversample, 0)
    require_int("seed", seed, 0)
    n = a.dim
    if rank + oversample > n:
        raise ValueError("rank + oversample must not exceed the dimension")
    rng = np.random.default_rng(seed)

    omega = rng.standard_normal((n, rank + oversample))
    q = _orthonormalize(a.apply_block(omega))
    if q.shape[1] < rank:
        # A redraw cannot help: the deficiency comes from A's spectrum.
        raise ValueError("sketch is rank deficient; matrix rank below request")
    # Rayleigh-Ritz on the projection, symmetrized to wash out roundoff.
    h = q.T @ a.apply_block(q)
    w, s = np.linalg.eigh(0.5 * (h + h.T))
    order = np.argsort(-np.abs(w))[:rank]
    # Q and S are orthonormal, so U = Q S is too, to roundoff.
    return EigSeedPrecond(q @ s[:, order], w[order])
