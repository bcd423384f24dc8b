"""Trust region subproblem with an inequality constraint ||x|| <= 1.

The ball-constrained problem reduces to the sphere-constrained one: either
the unconstrained minimizer -A^{-1}b lies inside the ball (requires A
positive definite), or the solution sits on the boundary.  A second route
dodges the interior test entirely by lifting to dimension n+1 with
A_hat = diag(0, A) and b_hat = (0; b): the added zero eigenvalue makes
lambda_min(A_hat) <= 0, so the lifted sphere problem always covers the
ball problem, with the first coordinate absorbing any slack ||x|| < 1.

``solve_trs`` runs one eigensolve, the block Lanczos iteration of
``min_eigpair`` from b, and every route reads its Krylov state (Q, H).
That space holds the Galerkin approximation of -A^{-1}b (the space of
conjugate gradients' iterates, plus the random start column), so the
interior test needs no solver of its own: H z = Q'b is solved on H's band.
On the ball the minimal eigenpair is needed only to tell whether that
interior answer is the global one, so the eigensolve stops as soon as a
Kato-Temple bound certifies A positive definite and the Galerkin point,
inside the ball, has converged (Gould, Lucidi, Roma & Toint 1999 stop
Lanczos on the subproblem's own residual the same way).

The spectrum of A_hat is {0} and spec(A), with eigenvectors e_1 and
(0, v).  So the lift's minimal eigenpair, and its Krylov state, follow
from A's with no operator application (:func:`lift_eigpair`), and every
lift is solved by ``lpr_solve`` on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.linalg

from .btrs import BtrsProblem
from .eigmin import MinEigResult, _lanczos
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


def _lift_krylov(krylov: Tuple[np.ndarray, np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """A's Krylov state (Q, H) lifted to ([e_1, (0; Q)], diag(0, H))."""
    q, h = (np.pad(m, ((1, 0), (1, 0))) for m in krylov)
    q[0, 0] = 1.0
    return q, h


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
    q, h = _lift_krylov(eig.krylov)
    basis = [np.concatenate(([0.0], v)) for v in eig.basis] if lam <= tol else []
    if lam >= -tol:
        basis.append(q[:, 0].copy())
    return MinEigResult(lam if lam <= tol else 0.0, basis, eig.tol_eig, 0, (q, h))


def _band_solve(hb: np.ndarray, g: np.ndarray) -> Optional[np.ndarray]:
    """z with H z = g for the positive definite H whose lower band is ``hb``
    (the layout of the eigensolve's band), by banded Cholesky; None when the
    factorization finds H not positive definite.  The band's corner, which
    may hold anything, is never read: LAPACK's ``dpbtrf`` and ``dpbtrs``
    skip it, and ``check_finite=False`` keeps scipy from scanning it."""
    try:
        cb = scipy.linalg.cholesky_banded(hb, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    return scipy.linalg.cho_solve_banded((cb, True), g, check_finite=False)


def _galerkin_point(p: BtrsProblem, q: np.ndarray, z: np.ndarray):
    """y = -Q z and one fresh A y."""
    y = -(q @ z) + 0.0  # b = 0: +0.0, not -0.0
    return y, p.a.apply(y)


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

    It runs one eigensolve, the block Lanczos iteration of ``min_eigpair``
    from b, and its Krylov state (Q, H) holds the approximate solutions.
    The route is chosen once.  strategy "decide" solves the boundary
    problem directly ("direct") unless A is positive definite.  Then the
    Galerkin solution y = -Q z of A y = -b, with H z = Q'b solved by banded
    Cholesky, settles the route, once one fresh A y shows
    ||A y + b|| <= min(tol_res, 1e-10) ||b||: "interior" if y lies inside
    the ball, "direct" if not.  strategy "always_augment", or a Galerkin
    solution that fails that test, solves the lifted problem in dimension
    n+1 ("augmented"), which needs no linear solve; the first coordinate of
    its solution is slack.  Each boundary route is one ``lpr_solve`` call,
    which opens at the projected optimum, and ``q`` is that solve's: the
    lift's objective equals q(x) exactly.

    The eigensolve stops early once the interior answer is certified: a
    Kato-Temple lower bound on lambda_min (``_Step.lower_bound``) exceeds
    1e-10, the Galerkin residual ||B z_last|| read from the state meets the
    test above, ||z|| < 1 - 1e-12, and the fresh A y passes the test.
    "decide" then returns y, and "always_augment" lifts with the exact
    eigenpair (0, e_1) of diag(0, A).  The bound rests on the eigensolve's
    standing assumption that no eigenvalue below the lowest Ritz value was
    missed; b's own component along a missed eigenvector keeps the Galerkin
    residual from passing.  A solve not certified ends where ``min_eigpair``
    does.
    """
    if strategy not in ("decide", "always_augment"):
        raise ValueError(f"unknown strategy {strategy!r}")

    tol = min(cfg.tol_res, 1e-10) * p.b_norm
    for step in _lanczos(p.a, 1e-10, cfg.rng_seed, p.b):
        if step.done:
            break
        if step.lower_bound() > 1e-10 and (z := _band_solve(step.hb, step.q.T @ p.b)) is not None:
            z_last = z[z.size - step.bmat.shape[1] :]
            if np.linalg.norm(step.bmat @ z_last) <= tol and np.linalg.norm(z) < 1.0 - 1e-12:
                y, ay = _galerkin_point(p, step.q, z)
                if np.linalg.norm(ay + p.b) <= tol:
                    if strategy == "decide":
                        return _interior(p, y, ay)
                    q, h = _lift_krylov(step.krylov())
                    lifted = MinEigResult(0.0, [q[:, 0].copy()], 1e-10, 0, (q, h))
                    return _boundary(p, cfg, "augmented", lifted)

    eig = step.result(1e-10, True)
    route = "augmented" if strategy == "always_augment" else "direct"
    if route == "direct" and eig.lambda_min > 1e-10:
        z = _band_solve(step.hb, step.q.T @ p.b)
        if z is None:
            route = "augmented"
        else:
            y, ay = _galerkin_point(p, step.q, z)
            if not np.linalg.norm(ay + p.b) <= tol:
                route = "augmented"
            elif np.linalg.norm(y) < 1.0 - 1e-12:
                return _interior(p, y, ay)
    return _boundary(p, cfg, route, lift_eigpair(eig) if route == "augmented" else eig)


def _interior(p: BtrsProblem, y: np.ndarray, ay: np.ndarray) -> TrsResult:
    return TrsResult(x=y, q=0.5 * float(y @ ay) + float(p.b @ y), route="interior")


def _boundary(p: BtrsProblem, cfg: SolverConfig, route: str, eig: MinEigResult) -> TrsResult:
    """The one ``lpr_solve`` of a boundary route; the lift's ``eig`` is
    diag(0, A)'s."""
    lifted = route == "augmented"
    res = lpr_solve(augment(p) if lifted else p, cfg=cfg, eig=eig)
    return TrsResult(x=res.x[1:] if lifted else res.x, q=res.q, route=route, boundary=res)
