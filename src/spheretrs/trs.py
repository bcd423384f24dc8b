"""Trust region subproblem with an inequality constraint ||x|| <= 1.

The ball-constrained problem reduces to the sphere-constrained one: either
the unconstrained minimizer -A^{-1}b lies inside the ball (requires A
positive definite), or the solution sits on the boundary.  A second route
dodges the interior test entirely by lifting to dimension n+1 with
A_hat = diag(0, A) and b_hat = (0; b): the added zero eigenvalue makes
lambda_min(A_hat) <= 0, so the lifted sphere problem always covers the
ball problem, with the first coordinate absorbing any slack ||x|| < 1.

The spectrum of A_hat is {0} and spec(A), with eigenvectors e_1 and
(0, v).  So the lift's minimal eigenpair follows from A's with no operator
application (:func:`lift_eigpair`), and every lift is solved by
``lpr_solve`` on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse.linalg

from .btrs import BtrsProblem, objective
from .eigmin import MinEigResult, min_eigpair
from .geometry import StandardMetric
from .linop import SymOp
from .solvers import SolveResult, SolverConfig, lpr_solve


class AugmentedOp(SymOp):
    """Block diagonal operator diag(0, A) acting on R^{n+1}."""

    def __init__(self, inner: SymOp):
        super().__init__(inner.dim + 1)
        self.inner = inner

    def _matvec(self, v: np.ndarray) -> np.ndarray:
        out = np.empty(self.dim)
        out[0] = 0.0
        out[1:] = self.inner.apply(v[1:])
        return out


def augment(p: BtrsProblem) -> BtrsProblem:
    """Lift min q(x) over ||x|| <= 1 to a sphere problem in R^{n+1}."""
    b_hat = np.concatenate(([0.0], p.b))
    return BtrsProblem(a=AugmentedOp(p.a), b=b_hat)


def lift_eigpair(eig: MinEigResult) -> MinEigResult:
    """The minimal eigenpair of diag(0, A) from A's, with no operator
    application.  With ``tol = eig.cluster_tol``: each basis vector v
    becomes (0, v) when lambda_min(A) <= tol, and e_1 joins when
    lambda_min(A) >= -tol.  The lifted eigenvalue is lambda_min(A) in the
    first case and 0 otherwise."""
    lam, tol = eig.lambda_min, eig.cluster_tol
    basis = [np.concatenate(([0.0], v)) for v in eig.basis] if lam <= tol else []
    if lam >= -tol:
        e1 = np.zeros(eig.basis[0].size + 1)
        e1[0] = 1.0
        basis.append(e1)
    return MinEigResult(lam if lam <= tol else 0.0, basis, eig.tol_eig, 0)


def psd_init(p_hat: BtrsProblem) -> np.ndarray:
    """Start point (1, -b) / sqrt(1 + ||b||^2) for the augmented problem.

    When A is positive semidefinite, e_1 is a minimal eigenvector of
    diag(0, A), orthogonal to (0, b); any other one is (0, v) with
    lambda_min(A) = 0.  This point lies in both S_E and S_H, so a single
    deterministic run reaches the global optimum.
    """
    b = p_hat.b[1:]
    x = np.concatenate(([1.0], -b))
    return x / np.linalg.norm(x)


@dataclass
class TrsResult:
    x: np.ndarray
    q: float
    route: str  # "interior" | "augmented" | "direct"
    boundary: Optional[SolveResult] = None

    @property
    def case_kind(self) -> Optional[str]:
        """The boundary solve's "easy" or "hard"; None on the interior route."""
        return None if self.boundary is None else self.boundary.case.kind


def _interior_attempt(p: BtrsProblem, eig: MinEigResult, tol: float):
    """Try the unconstrained minimizer -A^{-1}b.

    Returns (y, None) when A is positive definite and ||y|| < 1, (None, None)
    when the problem is provably a boundary one, and (None, "cg") when the
    conjugate-gradient solve failed to converge (caller falls back to the
    augmented route, which needs no linear solve).
    """
    if eig.lambda_min <= 1e-10:
        return None, None
    n = p.dim
    op = scipy.sparse.linalg.LinearOperator((n, n), matvec=p.a.apply)
    y, info = scipy.sparse.linalg.cg(op, -p.b, rtol=tol, atol=0.0, maxiter=20 * n)
    if info != 0:
        return None, "cg"
    if np.linalg.norm(y) < 1.0 - 1e-12:
        return y, None
    return None, None


def solve_trs(
    p: BtrsProblem,
    strategy: str = "decide",
    cfg: SolverConfig = SolverConfig(),
    eig: Optional[MinEigResult] = None,
) -> TrsResult:
    """Solve min q(x) subject to ||x|| <= 1.

    strategy "decide": test for an interior solution (A positive definite
    and ||A^{-1}b|| < 1), otherwise solve the boundary problem directly.
    strategy "always_augment": skip the test and solve the lifted problem
    in dimension n+1; the first coordinate of its solution is slack.
    """
    if strategy not in ("decide", "always_augment"):
        raise ValueError(f"unknown strategy {strategy!r}")

    if eig is None:
        eig = min_eigpair(p.a, seed=cfg.rng_seed)

    if strategy == "always_augment":
        return _solve_augmented(p, cfg, eig)

    y, failure = _interior_attempt(p, eig, tol=min(cfg.tol_res, 1e-10))
    if y is not None:
        return TrsResult(x=y, q=objective(p, y), route="interior")
    if failure is not None:
        return _solve_augmented(p, cfg, eig)
    res = lpr_solve(p, StandardMetric(), cfg=cfg, eig=eig)
    return TrsResult(
        x=res.x,
        q=res.q,
        route="direct",
        boundary=res,
    )


def _solve_augmented(p: BtrsProblem, cfg: SolverConfig, eig: MinEigResult) -> TrsResult:
    """Solve the ball problem through the (n+1)-dimensional sphere lift.

    The lift's minimal eigenpair comes from A's (:func:`lift_eigpair`), so
    ``lpr_solve`` solves it with no second eigensolve.  When e_1 is a
    minimal eigenvector of the lift, the run starts from :func:`psd_init`.
    """
    p_hat = augment(p)
    eig_hat = lift_eigpair(eig)
    # e_1 is the only lifted basis vector with a nonzero first entry.
    x0 = psd_init(p_hat) if eig_hat.basis[-1][0] else None
    res = lpr_solve(p_hat, StandardMetric(), cfg=cfg, eig=eig_hat, x0=x0)
    x = res.x[1:]
    return TrsResult(
        x=x,
        q=objective(p, x),
        route="augmented",
        boundary=res,
    )
