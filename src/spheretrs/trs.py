"""Trust region subproblem with an inequality constraint ||x|| <= 1.

The ball-constrained problem reduces to the sphere-constrained one: either
the unconstrained minimizer -A^{-1}b lies inside the ball (requires A
positive definite), or the solution sits on the boundary.  A second route
dodges the interior test entirely by lifting to dimension n+1 with
A_hat = diag(0, A) and b_hat = (0; b): the added zero eigenvalue makes
lambda_min(A_hat) <= 0, so the lifted sphere problem always covers the
ball problem, with the first coordinate absorbing any slack ||x|| < 1.

``solve_trs`` runs one eigensolve, ``min_eigpair`` from b, and every route
reads its Krylov state (Q, H).  That space holds the Galerkin
approximation of -A^{-1}b (the space of conjugate gradients' iterates,
plus the random start column), so the interior test needs no solver of
its own.  The spectrum of A_hat is {0} and spec(A), with eigenvectors e_1
and (0, v).  So the lift's minimal eigenpair, and its Krylov state, follow
from A's with no operator application (:func:`lift_eigpair`), and every
lift is solved by ``lpr_solve`` on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .btrs import BtrsProblem
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
    application; ``eig`` must carry a Krylov state.  With
    ``tol = eig.cluster_tol``: each basis vector v becomes (0, v) when
    lambda_min(A) <= tol, and e_1 joins when lambda_min(A) >= -tol.  The
    lifted eigenvalue is lambda_min(A) in the first case and 0 otherwise.
    The state (Q, H) becomes ([e_1, (0; Q)], diag(0, H)), whose projected
    lift is the ball problem on the span of Q, with the first coordinate
    as its slack."""
    lam, tol = eig.lambda_min, eig.cluster_tol
    basis = [np.concatenate(([0.0], v)) for v in eig.basis] if lam <= tol else []
    if lam >= -tol:
        e1 = np.zeros(eig.basis[0].size + 1)
        e1[0] = 1.0
        basis.append(e1)
    q, h = (np.pad(m, ((1, 0), (1, 0))) for m in eig.krylov)
    q[0, 0] = 1.0
    return MinEigResult(lam if lam <= tol else 0.0, basis, eig.tol_eig, 0, (q, h))


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


def solve_trs(
    p: BtrsProblem, strategy: str = "decide", cfg: SolverConfig = SolverConfig()
) -> TrsResult:
    """Solve min q(x) subject to ||x|| <= 1.

    It runs ``min_eigpair`` from b once, and the eigensolve's Krylov state
    (Q, H) holds the approximate solutions.  The route is chosen once.
    strategy "decide" solves the boundary problem directly ("direct")
    unless A is positive definite.  Then the Galerkin solution
    y = -Q H^{-1} Q'b of A y = -b settles the route, once one fresh A y
    shows ||A y + b|| <= min(tol_res, 1e-10) ||b||: "interior" if y lies
    inside the ball, "direct" if not.  strategy "always_augment", or a
    Galerkin solution that fails that test, solves the lifted problem in
    dimension n+1 ("augmented"), which needs no linear solve; the first
    coordinate of its solution is slack.  Each boundary route is one
    ``lpr_solve`` call, which opens at the projected optimum, and ``q`` is
    that solve's: the lift's objective equals q(x) exactly.
    """
    if strategy not in ("decide", "always_augment"):
        raise ValueError(f"unknown strategy {strategy!r}")

    eig = min_eigpair(p.a, seed=cfg.rng_seed, b=p.b)
    route = "augmented" if strategy == "always_augment" else "direct"
    if route == "direct" and eig.lambda_min > 1e-10:
        q, h = eig.krylov
        y = -(q @ np.linalg.solve(h, q.T @ p.b)) + 0.0  # b = 0: +0.0, not -0.0
        ay = p.a.apply(y)
        if np.linalg.norm(ay + p.b) <= min(cfg.tol_res, 1e-10) * p.b_norm:
            if np.linalg.norm(y) < 1.0 - 1e-12:
                return TrsResult(x=y, q=0.5 * float(y @ ay) + float(p.b @ y), route="interior")
        else:
            route = "augmented"

    lifted = route == "augmented"
    res = lpr_solve(
        augment(p) if lifted else p, cfg=cfg, eig=lift_eigpair(eig) if lifted else eig
    )
    return TrsResult(x=res.x[1:] if lifted else res.x, q=res.q, route=route, boundary=res)
