"""First-order sphere solvers: gradient descent, conjugate gradient, the
double-start strategy, and the restart scheme driven by the reflection
across a minimal eigenvector.

All solvers share one descent loop with Armijo backtracking.  Under the
standard metric the initial trial step is 1/||b||: steps below that bound
keep iterates inside the set S_E = {x : (v'b)(v'x) <= 0 for all
minimal eigenvectors v}, which is what makes the -b/||b|| start reach the
global optimum in the easy case.

Cost model: one operator application per descent step (the ``A d`` of the
line search; ``A x`` at the accepted point follows by linearity), plus a
fresh ``A x`` every ``K`` accepted steps and before any verdict (residual
replacement), so a returned ``mu``, ``q`` and residual never rest on the
recurrence.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, replace
from typing import ClassVar, List, Optional, Tuple

import numpy as np

from .btrs import BtrsProblem, CaseInfo, classify
from .eigmin import MinEigResult, min_eigpair
from .geometry import MetricScheme, StandardMetric

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_FAILED = "failed"

#: Accepted steps between fresh products ``A x`` that replace the recurrence
#: ``A y = (A x + t A d) / ||x + t d||`` carried by the descent loop.
K = 50

#: Reflections :func:`lpr_solve` makes before it reports a pathological failure.
MAX_RESTARTS = 10


@dataclass(frozen=True)
class SolverConfig:
    tol_grad: float = 1e-8
    tol_res: float = 1e-8
    max_iter: int = 10000
    rng_seed: int = 0
    record_iterates: bool = False
    #: Armijo backtracking factor and sufficient-decrease constant.
    armijo_tau: ClassVar[float] = 0.5
    armijo_c: ClassVar[float] = 1e-4

    def __post_init__(self):
        if not (isinstance(self.max_iter, (int, np.integer)) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        for name in ("tol_grad", "tol_res"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass
class SolveTrace:
    """Per-iteration scalars plus restart markers.

    Columns written by :meth:`to_csv`:
    iter,q,grad_norm,res_norm,step,elapsed_s,marker
    """

    q: List[float] = field(default_factory=list)
    grad_norm: List[float] = field(default_factory=list)
    res_norm: List[float] = field(default_factory=list)
    step: List[float] = field(default_factory=list)
    elapsed_s: List[float] = field(default_factory=list)
    markers: List[Tuple[int, str]] = field(default_factory=list)
    iterates: List[np.ndarray] = field(default_factory=list)

    @property
    def iters(self) -> range:
        """Row indices: always ``0 .. len(q) - 1``."""
        return range(len(self.q))

    def record(self, qv, gn, rn, st, el, x=None):
        self.q.append(qv)
        self.grad_norm.append(gn)
        self.res_norm.append(rn)
        self.step.append(st)
        self.elapsed_s.append(el)
        if x is not None:
            self.iterates.append(x)

    def mark(self, kind: str):
        self.markers.append((len(self.q), kind))

    def extend(self, other: "SolveTrace"):
        offset = len(self.q)
        self.q.extend(other.q)
        self.grad_norm.extend(other.grad_norm)
        self.res_norm.extend(other.res_norm)
        self.step.extend(other.step)
        self.elapsed_s.extend(other.elapsed_s)
        self.markers.extend((i + offset, k) for i, k in other.markers)
        self.iterates.extend(other.iterates)

    def to_csv(self, path):
        marker_at = dict(self.markers)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "q", "grad_norm", "res_norm", "step", "elapsed_s", "marker"])
            for k in self.iters:
                w.writerow(
                    [
                        k,
                        repr(float(self.q[k])),
                        repr(float(self.grad_norm[k])),
                        repr(float(self.res_norm[k])),
                        repr(float(self.step[k])),
                        repr(float(self.elapsed_s[k])),
                        marker_at.get(k, ""),
                    ]
                )


@dataclass
class SolveResult:
    x: np.ndarray
    mu: float
    q: float
    status: str
    trace: SolveTrace
    restarts: int = 0
    reason: str = ""
    #: The easy/hard classification :func:`lpr_solve` ran on; None elsewhere.
    case: Optional[CaseInfo] = None

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED


def haar_unit(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform point on the sphere (normalized standard normal)."""
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _initial_step(p: BtrsProblem) -> float:
    if p.b_norm > 0:
        return 1.0 / p.b_norm
    # b = 0 makes the cap vacuous; scale by the curvature instead.
    return 2.0 / max(1e-16, p.a.norm_estimate())


class _NonFinite(ValueError):
    """The operator returned a NaN or an infinity inside a line search."""


def _armijo(p, x, q0, ax, d, decrease, cfg, t_cap, exact_init=False):
    """Backtracking line search along y(t) = (x + t d)/||x + t d||; accept
    when q(x) - q(y) >= t * c * decrease.  Returns (t, y, ay, qy) or
    (None,)*4 when no acceptable step exists above 1e-18.  Raises
    :class:`_NonFinite` when d'Ad is not finite.

    One operator application per call: ``A d`` feeds the decrease scalars,
    and ``ay = (ax + t A d) / ||x + t d||`` follows by linearity, so ``ay``
    carries whatever error ``ax`` carries.

    The decrease q(y) - q(x) is evaluated through its exact scalar
    expansion in t, which stays fully accurate even when the per-step
    decrease is far below the rounding level of q itself.

    With ``exact_init`` the first trial is the minimizer of the
    second-order model along the path, t = -d'(Ax+b) / d'(A - mu_x I)d;
    otherwise it is ``t_cap``, the capped step of :func:`_initial_step`.
    """
    c = cfg.armijo_c
    tau = cfg.armijo_tau
    b = p.b
    # Scalars for the exact expansion of q((x+td)/||x+td||) - q(x).  The
    # first-order term d'(Ax+b) is a single dot product, so the computed
    # decrease keeps full relative accuracy even when it is far below the
    # rounding level of q itself.
    ad = p.a.apply(d)
    bx = float(b @ x)
    bd = float(b @ d)
    xax = float(x @ ax)
    de = float(d @ (ax + b))
    dad = float(d @ ad)
    if not math.isfinite(dad):
        raise _NonFinite("operator output is non-finite (NaN or infinity)")
    xd = float(x @ d)
    dd = float(d @ d)
    t = t_cap
    if exact_init:
        curv = dad - dd * (xax + bx)
        if de < 0.0 and curv > 0.0:
            t = -de / curv
    while t >= 1e-18:
        s2m1 = 2.0 * t * xd + t * t * dd  # ||x+td||^2 - 1
        s2 = 1.0 + s2m1
        s = np.sqrt(s2)
        sm1 = s2m1 / (1.0 + s)
        dq = (
            t * de + t * bd * sm1 + 0.5 * t * t * dad - 0.5 * xax * s2m1
        ) / s2 - bx * sm1 / s
        if -dq >= t * c * decrease:
            y = x + t * d
            ny = np.linalg.norm(y)
            return t, y / ny, (ax + t * ad) / ny, q0 + dq
        t *= tau
    return None, None, None, None


def _descent_loop(
    m: MetricScheme,
    p: BtrsProblem,
    x0: np.ndarray,
    cfg: SolverConfig,
    use_cg: bool,
    res_cap: Optional[float] = None,
) -> SolveResult:
    """Shared RGD/RCG loop with Armijo backtracking and a combined
    gradient-norm / stationarity-residual stopping rule.

    ``A x`` is carried by the recurrence of :func:`_armijo` and replaced by
    a fresh product every ``K`` accepted steps.  A stopping test passed on a
    recurrence value is repeated on a fresh ``A x``; if it then fails, the
    loop continues from the steepest-descent direction.  A ``max_iter`` or
    stalled return is refreshed too, so the result and the final trace row
    carry a fresh ``mu``, ``q`` and residual.  A ``mu`` or a line search's
    d'Ad that is not finite (the operator returned a NaN or an infinity)
    ends the loop with status ``failed`` and reason ``non-finite``.
    """
    b = p.b
    eff_tol_res = cfg.tol_res * max(1.0, p.b_norm)
    if res_cap is not None:
        eff_tol_res = min(eff_tol_res, res_cap)
    tol_gg = cfg.tol_grad**2
    t_cap = _initial_step(p)

    trace = SolveTrace()
    t_start = time.perf_counter()

    def at(x, ax, q=None):
        """State at x from ``ax``: (ax, q, mu, M_x, g, M_x g, g(g, g),
        residual norm); q is computed afresh unless given."""
        bx = float(b @ x)
        xax = float(x @ ax)
        mu = xax + bx
        lm = m.at(p, x, mu)
        g = lm.project(lm.minv(ax + b))
        mg = lm.mapply(g)
        if q is None:
            q = 0.5 * xax + bx
        rn = float(np.linalg.norm(mu * x - ax - b))
        return ax, q, mu, lm, g, mg, float(g @ mg), rn

    def record():
        trace.record(
            q,
            np.sqrt(max(gg, 0.0)),
            rn,
            step,
            time.perf_counter() - t_start,
            x.copy() if cfg.record_iterates else None,
        )

    x = np.asarray(x0, dtype=float)
    x = x / np.linalg.norm(x)
    ax, q, mu, lm, g, mg, gg, rn = at(x, p.a.apply(x))
    d = -g
    dg = -gg  # g(d, grad)
    since_reset = 0
    stale = 0  # accepted steps since ax was last a fresh product
    status = STATUS_MAX_ITER
    reason = ""
    step = 0.0

    for _ in range(cfg.max_iter):
        done = gg <= tol_gg and rn <= eff_tol_res
        if done and stale:
            # The test passed on the recurrence: decide on a fresh A x.
            ax, q, mu, lm, g, mg, gg, rn = at(x, p.a.apply(x))
            stale = 0
            done = gg <= tol_gg and rn <= eff_tol_res
            if not done:
                d, dg, since_reset = -g, -gg, 0
        if not math.isfinite(mu):
            status, reason = STATUS_FAILED, "non-finite"
            break
        record()
        if done:
            status = STATUS_CONVERGED
            break

        try:
            t, y, ay, qy = _armijo(
                p, x, q, ax, d, -dg, cfg, t_cap, exact_init=not m.capped_step
            )
        except _NonFinite:
            status, reason = STATUS_FAILED, "non-finite"
            break
        if t is None:
            status = STATUS_FAILED
            reason = "stalled"
            break
        step = t

        if use_cg:
            g_old, gg_old, d_old = g, gg, d
        stale += 1
        if stale == K:
            ay, qy, stale = p.a.apply(y), None, 0
        x = y
        ax, q, mu, lm, g, mg, gg, rn = at(x, ay, qy)

        if use_cg:
            since_reset += 1
            # Transport the previous gradient and direction by projection.
            tg = lm.project(g_old)
            td = lm.project(d_old)
            mtg = lm.mapply(tg)
            # Polak-Ribiere+ with metric inner products.
            beta = float(g @ mg - g @ mtg) / gg_old if gg_old > 0 else 0.0
            beta = max(0.0, beta)
            d = -g + beta * td
            dg = float(d @ mg)
        if not use_cg or dg >= 0.0 or since_reset >= p.dim:
            d, dg, since_reset = -g, -gg, 0

    if stale and reason != "non-finite":
        ax, q, mu, lm, g, mg, gg, rn = at(x, p.a.apply(x))
        if not math.isfinite(mu):
            status, reason = STATUS_FAILED, "non-finite"
        elif status == STATUS_FAILED:
            # The last row holds this same point: restate it from the fresh A x.
            trace.q[-1] = q
            trace.grad_norm[-1] = np.sqrt(max(gg, 0.0))
            trace.res_norm[-1] = rn
    if status == STATUS_MAX_ITER:
        # The loop exhausted its budget after taking a step; log the final point.
        record()
    return SolveResult(x=x, mu=mu, q=q, status=status, trace=trace, reason=reason)


def rcg(
    m: MetricScheme,
    p: BtrsProblem,
    x0: np.ndarray,
    cfg: SolverConfig = SolverConfig(),
    res_cap: Optional[float] = None,
) -> SolveResult:
    """Riemannian conjugate gradient (Polak-Ribiere+, projection transport)."""
    return _descent_loop(m, p, x0, cfg, use_cg=True, res_cap=res_cap)


def rgd(
    m: MetricScheme,
    p: BtrsProblem,
    x0: np.ndarray,
    cfg: SolverConfig = SolverConfig(),
    res_cap: Optional[float] = None,
) -> SolveResult:
    """Riemannian gradient descent under an arbitrary metric scheme."""
    return _descent_loop(m, p, x0, cfg, use_cg=False, res_cap=res_cap)


def naive_rgd(
    p: BtrsProblem,
    x0: np.ndarray,
    cfg: SolverConfig = SolverConfig(),
    res_cap: Optional[float] = None,
) -> SolveResult:
    """Riemannian gradient descent with the standard metric and radial
    retraction; the building block of the double-start strategy."""
    return rgd(StandardMetric(), p, x0, cfg, res_cap)


def double_start(p: BtrsProblem, cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Run gradient descent from -b/||b|| and from a random sphere point,
    return the better result.  The first start covers the easy case (it
    stays in S_E), the second covers the hard case (almost surely in S_H)."""
    rng = np.random.default_rng(cfg.rng_seed)
    results = []
    trace = SolveTrace()
    if p.b_norm > 0:
        trace.mark("cold_start")
        r1 = naive_rgd(p, -p.b / p.b_norm, cfg)
        trace.extend(r1.trace)
        results.append(r1)
    trace.mark("cold_start")
    r2 = naive_rgd(p, haar_unit(p.dim, rng), cfg)
    trace.extend(r2.trace)
    results.append(r2)

    ok = [r for r in results if r.status != STATUS_FAILED]
    if not ok:
        best = results[0]
    elif len(ok) == 2 and abs(ok[0].q - ok[1].q) <= 1e-14 * max(1.0, abs(ok[0].q)):
        best = ok[0]  # tie: prefer the deterministic S_E start
    else:
        best = min(ok, key=lambda r: r.q)
    return replace(best, trace=trace)


def lpr_transform(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Reflection x - 2(u'x)u across the hyperplane orthogonal to u.

    Drops the objective by exactly 2(u'b)(u'x) and preserves unit norm.
    """
    return x - 2.0 * float(u @ x) * u


def lpr_solve(
    p: BtrsProblem,
    m: MetricScheme = StandardMetric(),
    inner: str = "rcg",
    cfg: SolverConfig = SolverConfig(),
    eig: Optional[MinEigResult] = None,
    x0: Optional[np.ndarray] = None,
) -> SolveResult:
    """Globally convergent solver built on reflection restarts.

    A minimal eigenvector u of A with u'b != 0 certifies the easy case; the
    inner solver then runs with its stationarity test tightened to
    ||r|| <= |u'b|/2, and any return with mu >= lambda_min(A) is reflected
    across u and restarted.  In the hard case a single run from a random
    start suffices (its only stable stationary points are global optima).
    """
    if inner not in ("rgd", "rcg"):
        raise ValueError("inner solver must be 'rgd' or 'rcg'")
    run = rcg if inner == "rcg" else rgd
    rng = np.random.default_rng(cfg.rng_seed)
    if eig is None:
        eig = min_eigpair(p.a, seed=cfg.rng_seed)
    case = classify(p, eig)

    if not case.is_easy:
        res = run(m, p, x0 if x0 is not None else haar_unit(p.dim, rng), cfg)
        return replace(res, case=case)

    u = case.u
    if x0 is None:
        # Deterministic start inside S_E (and S_H): the minimal eigenvector
        # signed against b.
        x0 = -np.sign(float(u @ p.b)) * u
    x = np.asarray(x0, dtype=float)
    trace = SolveTrace()
    restarts = 0
    while True:
        res = run(m, p, x, cfg, res_cap=case.alpha / 2.0)
        trace.extend(res.trace)
        if res.status == STATUS_FAILED or res.mu < eig.lambda_min:
            return replace(res, trace=trace, restarts=restarts, case=case)
        restarts += 1
        if restarts > MAX_RESTARTS:
            return replace(
                res,
                status=STATUS_FAILED,
                trace=trace,
                restarts=restarts,
                reason="pathological",
                case=case,
            )
        trace.mark("lpr")
        x = lpr_transform(res.x, u)
