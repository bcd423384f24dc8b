"""The unit sphere as a Riemannian manifold under a variable metric.

All formulas are expressed in ambient coordinates.  With metric matrix M_x
the tangent projector is P_x = I - (x' M_x^{-1} x)^{-1} M_x^{-1} x x', the
retraction is radial normalization, transport is projection at the target
point, and the gradient of q is P_x M_x^{-1} (Ax + b).
"""

from __future__ import annotations

import numpy as np

from .btrs import BtrsProblem, affine_rayleigh
from .precond import PhiFilter, Preconditioner


class LocalMetric:
    """M_x frozen at one point x: the metric, its inverse and the
    M_x-orthogonal projection onto the tangent space at x."""

    __slots__ = ("x",)

    def __init__(self, x: np.ndarray):
        self.x = x

    def mapply(self, v: np.ndarray) -> np.ndarray:
        """M_x v."""
        raise NotImplementedError

    def minv(self, v: np.ndarray) -> np.ndarray:
        """M_x^{-1} v."""
        raise NotImplementedError

    def project(self, v: np.ndarray) -> np.ndarray:
        """P_x v = v - (x'v / x'M_x^{-1}x) M_x^{-1}x."""
        raise NotImplementedError


class _EuclideanLocal(LocalMetric):
    __slots__ = ()

    def mapply(self, v):
        return v

    def minv(self, v):
        return v

    def project(self, v):
        return v - self.x * float(self.x @ v)


class _SeededLocal(LocalMetric):
    # M_x^{-1} x and x'M_x^{-1}x are computed on first use, so a caller
    # that only needs mapply (the metric inner product) makes no shifted solve.
    __slots__ = ("seed", "shift", "_minv_x", "_x_minv_x")

    def __init__(self, x, seed: Preconditioner, shift: float):
        super().__init__(x)
        self.seed = seed
        self.shift = shift
        self._minv_x = None

    def mapply(self, v):
        return self.seed.apply(v) + self.shift * v

    def minv(self, v):
        return self.seed.solve(self.shift, v)

    def project(self, v):
        if self._minv_x is None:
            self._minv_x = self.minv(self.x)
            self._x_minv_x = float(self.x @ self._minv_x)
        return v - (float(self.x @ v) / self._x_minv_x) * self._minv_x


class MetricScheme:
    """Map x -> M_x defining the Riemannian metric in ambient coordinates."""

    #: Whether the descent loop opens each line search with the capped step
    #: 1/||b||, which keeps the iterates of an S_E start inside S_E; a
    #: scheme without it opens with the model minimizer along the path.
    capped_step = False

    def at(self, p: BtrsProblem, x: np.ndarray, mu: float | None = None) -> LocalMetric:
        """M_x at the unit vector x; ``mu`` is mu_x when the caller has it."""
        raise NotImplementedError


class StandardMetric(MetricScheme):
    """M_x = I; the sphere as a Riemannian submanifold of Euclidean space."""

    capped_step = True

    def at(self, p, x, mu=None):
        return _EuclideanLocal(x)


class SeededMetric(MetricScheme):
    """M_x = M + phi(-mu_x) I for a fixed seed M and smooth filter phi."""

    def __init__(self, seed: Preconditioner, phi: PhiFilter):
        self.seed = seed
        self.phi = phi

    def at(self, p, x, mu=None):
        if mu is None:
            mu = affine_rayleigh(p, x)
        return _SeededLocal(x, self.seed, self.phi(-mu))


def metric_inner(m: MetricScheme, p: BtrsProblem, x, eta, xi) -> float:
    """g_x(eta, xi) = eta' M_x xi."""
    lm = m.at(p, np.asarray(x, dtype=float))
    return float(np.asarray(eta, dtype=float) @ lm.mapply(np.asarray(xi, dtype=float)))


def project_tangent(m: MetricScheme, p: BtrsProblem, x, v) -> np.ndarray:
    """Metric-orthogonal projection of an ambient vector onto the tangent space."""
    return m.at(p, np.asarray(x, dtype=float)).project(np.asarray(v, dtype=float))


def retract(x, eta) -> np.ndarray:
    """R_x(eta) = (x + eta)/||x + eta||."""
    y = np.asarray(x, dtype=float) + np.asarray(eta, dtype=float)
    return y / np.linalg.norm(y)


def rgrad(m: MetricScheme, p: BtrsProblem, x, ax: np.ndarray | None = None) -> np.ndarray:
    """Riemannian gradient P_x M_x^{-1} (Ax + b) of q at x."""
    x = np.asarray(x, dtype=float)
    if ax is None:
        ax = p.a.apply(x)
    lm = m.at(p, x, affine_rayleigh(p, x, ax))
    return lm.project(lm.minv(ax + p.b))


def transport(m: MetricScheme, p: BtrsProblem, x, eta, xi) -> np.ndarray:
    """Vector transport: project xi onto the tangent space at R_x(eta)."""
    return project_tangent(m, p, retract(x, eta), xi)


def hess_apply_stationary(m: MetricScheme, p: BtrsProblem, xbar, mu: float, eta) -> np.ndarray:
    """Riemannian Hessian at a stationary point: P_x M_x^{-1}[A - mu*I] eta."""
    eta = np.asarray(eta, dtype=float)
    lm = m.at(p, np.asarray(xbar, dtype=float), mu)  # mu_xbar == mu at a stationary point
    return lm.project(lm.minv(p.a.apply(eta) - mu * eta))


def metric_matrix(m: MetricScheme, p: BtrsProblem, x) -> np.ndarray:
    """Dense M_x, read column by column from ``m.at(p, x).mapply``.
    Diagnostics only: n applies of the metric."""
    lm = m.at(p, np.asarray(x, dtype=float))
    return np.column_stack([lm.mapply(e) for e in np.eye(p.dim)])


def kappa_bound(m: MetricScheme, p: BtrsProblem, xbar, mu: float) -> float:
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
    m_x = metric_matrix(m, p, xbar)
    w, v = np.linalg.eigh(m_x)
    if w[0] <= 0:
        raise ValueError("metric matrix is not positive definite")
    inv_sqrt = (v / np.sqrt(w)) @ v.T
    whitened = inv_sqrt @ shifted @ inv_sqrt
    s = np.linalg.eigvalsh(0.5 * (whitened + whitened.T))
    return float(s[-1] / s[0])


def tangent_basis(x) -> np.ndarray:
    """Orthonormal (dot-product) basis of the tangent space at x.

    Householder complement: deterministic given x.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    w = x.copy()
    w[0] += np.sign(x[0]) if x[0] != 0 else 1.0
    w /= np.linalg.norm(w)
    h = np.eye(n) - 2.0 * np.outer(w, w)
    # Column 0 of H is -sign(x[0]) * x; the rest span the complement.
    return h[:, 1:]
