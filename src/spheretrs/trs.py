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

    When A is positive definite, e_1 spans the minimal eigenspace of
    diag(0, A) and is orthogonal to (0, b), so this is the start
    ``e_1 - b_hat`` that ``lpr_solve`` takes on the lift.  It lies in both
    S_E and S_H, so a single deterministic run reaches the global optimum.
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


class _LeftBall(Exception):
    """A CG iterate for A y = -b reached the boundary of the ball."""


def _stop_outside_ball(y: np.ndarray):
    if np.linalg.norm(y) >= 1.0 - 1e-12:
        raise _LeftBall


def solve_trs(
    p: BtrsProblem,
    strategy: str = "decide",
    cfg: SolverConfig = SolverConfig(),
    eig: Optional[MinEigResult] = None,
) -> TrsResult:
    """Solve min q(x) subject to ||x|| <= 1.

    The route is chosen once.  strategy "decide" tries the unconstrained
    minimizer -A^{-1}b by conjugate gradients when A is positive definite
    ("interior" if it lies inside the ball), otherwise solves the boundary
    problem directly ("direct").  CG iterates from y_0 = 0 grow in norm for
    positive definite A (Steihaug 1983), so the first iterate that leaves
    the ball ends that solve and settles the route as "direct".  strategy
    "always_augment", or a CG solve that fails to converge, solves the
    lifted problem in dimension n+1 ("augmented"), which needs no linear
    solve; the first coordinate of its solution is slack.  Each boundary
    route is one ``lpr_solve`` call, and ``q`` is that solve's: the lift's
    objective equals q(x) exactly.
    """
    if strategy not in ("decide", "always_augment"):
        raise ValueError(f"unknown strategy {strategy!r}")

    if eig is None:
        eig = min_eigpair(p.a, seed=cfg.rng_seed)

    route = "augmented" if strategy == "always_augment" else "direct"
    if route == "direct" and eig.lambda_min > 1e-10:
        n = p.dim
        op = scipy.sparse.linalg.LinearOperator((n, n), matvec=p.a.apply)
        tol = min(cfg.tol_res, 1e-10)
        try:
            y, info = scipy.sparse.linalg.cg(
                op, -p.b, rtol=tol, atol=0.0, maxiter=20 * n, callback=_stop_outside_ball
            )
        except _LeftBall:
            pass
        else:
            if info != 0:
                route = "augmented"
            elif np.linalg.norm(y) < 1.0 - 1e-12:
                return TrsResult(x=y, q=objective(p, y), route="interior")

    lifted = route == "augmented"
    res = lpr_solve(
        augment(p) if lifted else p, cfg=cfg, eig=lift_eigpair(eig) if lifted else eig
    )
    return TrsResult(x=res.x[1:] if lifted else res.x, q=res.q, route=route, boundary=res)
