"""Trust region subproblem with an inequality constraint ||x|| <= 1.

The ball-constrained problem reduces to the sphere-constrained one: either
the unconstrained minimizer -A^{-1}b lies inside the ball (requires A
positive definite), or the solution sits on the boundary.  A second route
dodges the interior test entirely by lifting to dimension n+1 with
A_hat = diag(0, A) and b_hat = (0; b): the added zero eigenvalue makes
lambda_min(A_hat) <= 0, so the lifted sphere problem always covers the
ball problem, with the first coordinate absorbing any slack ||x|| < 1.

The spectrum of A_hat is {0} and spec(A), with eigenvectors e_1 and
(0, v).  So the lift's minimal eigenpair is A's, lifted, with e_1 added
when lambda_min(A) is 0 to the eigensolver's cluster tolerance: it costs no
operator application, and the lift is solved by ``lpr_solve`` on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse.linalg

from .btrs import BtrsProblem, classify, objective
from .eigmin import MinEigResult, min_eigpair
from .geometry import StandardMetric
from .linop import SymOp
from .solvers import SolveResult, SolverConfig, lpr_solve, naive_rgd


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
    """The minimal eigenpair of diag(0, A) from A's, for lambda_min(A) <= 0,
    with no operator application: each basis vector v becomes (0, v), and
    e_1 joins the cluster when lambda_min(A) lies within the cluster
    tolerance of 0 that :func:`~spheretrs.eigmin.min_eigpair` uses."""
    lam = eig.lambda_min
    basis = [np.concatenate(([0.0], v)) for v in eig.basis]
    if -lam <= 10.0 * eig.tol_eig * max(1.0, abs(lam)):
        e1 = np.zeros(basis[0].size)
        e1[0] = 1.0
        basis.append(e1)
    return MinEigResult(lam, basis, eig.tol_eig, 0)


def psd_init(p_hat: BtrsProblem) -> np.ndarray:
    """Start point (1, -b) / sqrt(1 + ||b||^2) for the augmented problem.

    When A is positive semidefinite the augmented problem is always the
    hard case (the new zero eigenvalue of diag(0, A) has eigenvector e_1,
    orthogonal to (0, b)).  This point lies in both S_E and S_H, so a
    single deterministic run reaches the global optimum.
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
    case_kind: Optional[str] = None


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
        eig = min_eigpair(p.a, tol=1e-10, seed=cfg.rng_seed)

    if strategy == "always_augment":
        return _solve_augmented(p, cfg, eig)

    y, failure = _interior_attempt(p, eig, tol=min(cfg.tol_res, 1e-10))
    if y is not None:
        return TrsResult(x=y, q=objective(p, y), route="interior")
    if failure is not None:
        return _solve_augmented(p, cfg, eig)
    res = lpr_solve(p, StandardMetric(), cfg=cfg, eig=eig)
    case = classify(p, eig)
    return TrsResult(
        x=res.x,
        q=res.q,
        route="direct",
        boundary=res,
        case_kind=case.kind,
    )


def _solve_augmented(p: BtrsProblem, cfg: SolverConfig, eig: MinEigResult) -> TrsResult:
    """Solve the ball problem through the (n+1)-dimensional sphere lift.

    When A is indefinite the lift's minimal eigenpair is A's (plus e_1 when
    lambda_min(A) is numerically 0, see :func:`lift_eigpair`), so the lift
    is solved by ``lpr_solve`` with no second eigensolve.
    """
    p_hat = augment(p)
    if eig.lambda_min >= -1e-10:
        # A is (numerically) PSD: the lift is hard-case with a known good
        # start, so a single gradient-descent run replaces the double start.
        res = naive_rgd(p_hat, psd_init(p_hat), cfg)
        case_kind = "hard"
    else:
        eig_hat = lift_eigpair(eig)
        res = lpr_solve(p_hat, StandardMetric(), cfg=cfg, eig=eig_hat)
        case_kind = classify(p_hat, eig_hat).kind
    x = res.x[1:]
    return TrsResult(
        x=x,
        q=objective(p, x),
        route="augmented",
        boundary=res,
        case_kind=case_kind,
    )
