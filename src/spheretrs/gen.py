"""Synthetic instance generation with a controllable difficulty gap.

The spectrum mixes a cluster of small noise eigenvalues with equispaced
signal eigenvalues.  A solution x_star is planted on the sphere and b is
chosen so that (A - mu_star I) x_star = -b with mu_star = lambda_min - gap.
Gap 0 produces the hard case: b is built orthogonal to the minimal
eigenvector, with x_star carrying an explicit component along it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .btrs import AffineEigenpair, BtrsProblem
from .linop import DenseOp, require_int
from .solvers import haar_unit


@dataclass(frozen=True)
class GenSpec:
    n: int
    gap: float
    noise_frac: float = 0.75
    noise_std: float = 1e-3
    signal_range: Tuple[float, float] = (-5.0, 10.0)
    seed: int = 0

    def __post_init__(self):
        require_int("n", self.n, 2)
        if not (0.0 <= self.noise_frac <= 1.0):
            raise ValueError("noise_frac must lie in [0, 1]")
        lo, hi = self.signal_range
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"signal_range must have finite ends, got {(lo, hi)!r}")
        if not lo < hi:
            raise ValueError("signal_range must be increasing")
        if not 0.0 <= self.gap < np.inf:
            raise ValueError("gap must be finite and nonnegative")
        if not 0.0 <= self.noise_std < np.inf:
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std!r}")
        require_int("seed", self.seed, 0)


def _spectrum(spec: GenSpec, rng: np.random.Generator) -> np.ndarray:
    n_noise = int(np.floor(spec.noise_frac * spec.n))
    n_signal = spec.n - n_noise
    parts = []
    if n_noise:
        parts.append(rng.normal(0.0, spec.noise_std, size=n_noise))
    if n_signal:
        lo, hi = spec.signal_range
        if n_signal == 1:
            parts.append(np.array([lo]))
        else:
            parts.append(np.linspace(lo, hi, n_signal))
    return np.sort(np.concatenate(parts))


def _haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def generate(spec: GenSpec) -> Tuple[BtrsProblem, AffineEigenpair]:
    """Build a problem with a planted global solution.

    Returns the problem and the planted affine eigenpair (mu_star, x_star).
    For gap > 0 the pair is exact by construction.  For gap = 0 (hard case)
    it is exact too: b lives in the complement of the minimal eigenvector
    and the planted point combines the particular solution with an
    eigenvector component restoring unit norm.  ``save_problem`` and
    ``save_planted`` write both bit for bit (``spheretrs generate`` does).
    """
    rng = np.random.default_rng(spec.seed)
    lam = _spectrum(spec, rng)
    mu_star = lam[0] - spec.gap
    if spec.gap > 0 and not mu_star < lam[0]:
        # Rounding swallowed the gap.  A redraw cannot help: lambda_min is
        # the fixed signal end unless the noise cluster reaches below it.
        raise ValueError(f"gap {spec.gap:g} is lost to rounding at lambda_min = {lam[0]:g}")

    q = _haar_orthogonal(spec.n, rng)
    a = DenseOp((q * lam) @ q.T)  # DenseOp symmetrizes

    if spec.gap > 0:
        # ||b|| = ||(A - mu_star I) x_star|| >= gap > 0.
        x_star = haar_unit(spec.n, rng)
        # From the full array, so b does not depend on DenseOp's apply kernel.
        b = -(a.matrix @ x_star - mu_star * x_star)
    else:
        # Hard case: mu_star = lambda_min, b orthogonal to the minimal
        # eigenvector u = q[:, 0].  Pick coefficients y_i for i >= 1 with
        # sum y_i^2 < 1, set x_star = c*u + sum y_i q_i, and read off
        # b = -(A - lambda_min I) x_star (the u-component drops out).
        y = rng.standard_normal(spec.n)
        y[0] = 0.0
        y *= 0.7 / np.linalg.norm(y)
        c = np.sqrt(1.0 - float(y @ y))
        x_star = q @ y
        x_star += c * q[:, 0]
        b = -q @ ((lam - mu_star) * y)

    problem = BtrsProblem(a=a, b=b)
    planted = AffineEigenpair(mu=float(mu_star), x=x_star, residual_norm=0.0)
    return problem, planted
