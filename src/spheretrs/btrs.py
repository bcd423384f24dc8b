"""The sphere-constrained quadratic problem and its stationarity algebra.

A problem instance is a pair (A, b) defining q(x) = x'Ax/2 + b'x on the
unit sphere.  Stationary points are exactly the unit vectors x with
Ax + b = mu*x for a scalar mu; we work with (mu, x) pairs throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .linop import SymOp, require_finite

#: Relative threshold below which |u'b| is treated as zero when deciding
#: whether any minimal eigenvector of A has a nonzero component along b.
EPS_HARD = 1e-10


@dataclass(frozen=True)
class BtrsProblem:
    """Immutable (A, b) pair with the norm of b cached."""

    a: SymOp
    b: np.ndarray
    b_norm: float = field(init=False)

    def __post_init__(self):
        b = np.ascontiguousarray(self.b, dtype=float)
        if b.shape != (self.a.dim,):
            raise ValueError("b length must equal the operator dimension")
        require_finite("b", b)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "b_norm", float(np.linalg.norm(b)))

    @property
    def dim(self) -> int:
        return self.a.dim


@dataclass(frozen=True)
class AffineEigenpair:
    """A scalar mu and unit x with mu*x - Ax - b small."""

    mu: float
    x: np.ndarray
    residual_norm: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))


@dataclass(frozen=True)
class CaseInfo:
    """Classification of a problem as easy or hard.

    ``u`` is a unit vector in the computed minimal eigenspace maximizing
    |u'b|; ``alpha`` is that maximal value.
    """

    kind: str  # "easy" | "hard"
    lambda_min: float
    u: np.ndarray
    alpha: float

    @property
    def is_easy(self) -> bool:
        return self.kind == "easy"


def objective(p: BtrsProblem, x) -> float:
    """q(x) = x'Ax/2 + b'x."""
    x = np.asarray(x, dtype=float)
    return 0.5 * float(x @ p.a.apply(x)) + float(p.b @ x)


def affine_rayleigh(p: BtrsProblem, x, ax: np.ndarray | None = None) -> float:
    """mu_x = x'Ax + b'x, the residual-minimizing eigenvalue guess for x."""
    x = np.asarray(x, dtype=float)
    if ax is None:
        ax = p.a.apply(x)
    return float(x @ ax) + float(p.b @ x)


def residual(p: BtrsProblem, x, mu: float) -> np.ndarray:
    """r = mu*x - Ax - b; zero exactly at stationary points."""
    x = np.asarray(x, dtype=float)
    return mu * x - p.a.apply(x) - p.b


def in_SE(p: BtrsProblem, x, min_eigvecs: List[np.ndarray], tol: float = 0.0) -> bool:
    """Membership in the set {x : (v'b)(v'x) <= tol for all minimal eigvecs v}."""
    if len(min_eigvecs) == 0:
        raise ValueError("at least one minimal eigenvector is required")
    x = np.asarray(x, dtype=float)
    for v in min_eigvecs:
        v = np.asarray(v, dtype=float)
        if float(v @ p.b) * float(v @ x) > tol:
            return False
    return True


def classify(p: BtrsProblem, eig) -> CaseInfo:
    """Classify the problem as easy or hard from a minimal-eigenspace result.

    ``eig`` is a :class:`~spheretrs.eigmin.MinEigResult`.  b is projected
    onto the whole computed eigenspace rather than tested against a single
    vector: with eigenvalue multiplicity an individual basis vector may be
    accidentally orthogonal to b.
    """
    basis = np.column_stack(eig.basis)
    max_res = max(
        float(np.linalg.norm(p.a.apply(v) - eig.lambda_min * v)) for v in eig.basis
    )
    if not max_res <= eig.cluster_tol:  # a NaN residual fails too
        raise ValueError(
            "eigenspace residual too large for reliable classification "
            f"({max_res:.3e})"
        )
    coeffs = basis.T @ p.b
    alpha = float(np.linalg.norm(coeffs))
    if alpha > EPS_HARD * max(1.0, p.b_norm):
        u = basis @ (coeffs / alpha)
        u /= np.linalg.norm(u)
        return CaseInfo("easy", eig.lambda_min, u, alpha)
    return CaseInfo("hard", eig.lambda_min, np.asarray(eig.basis[0]), alpha)
