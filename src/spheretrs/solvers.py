"""First-order sphere solvers: gradient descent, conjugate gradient, the
double-start strategy, and the restart scheme driven by the reflection
across a minimal eigenvector.

All solvers share one descent loop with Armijo backtracking.  Under the
standard metric, ``rgd``/``rcg`` (so ``naive_rgd`` and ``double_start``)
open each line search at 1/||b||: steps below that bound keep iterates
inside the set S_E = {x : (v'b)(v'x) <= 0 for all minimal eigenvectors v},
which is what makes the -b/||b|| start reach the global optimum in the easy
case.  Every other line search opens at the minimizer of the quadratic
model along the path: with b = 0, S_E is the whole sphere; ``lpr_solve``
(so ``solve_trs``) is global by its reflection restart, which has no
step-size condition; and no ``SeededMetric`` solve is capped.  ``_armijo``
alone decides each first trial.

``lpr_solve`` runs its own eigensolve from b, and opens the descent at the
optimum of the sphere problem projected onto that eigensolve's Krylov space
(``MinEigResult.krylov``); often that start is already converged.  Given an
``eig`` without that state it opens at s u - b.

Cost model: the descent loop applies A in two places.  The line search's
``A d`` is one application per descent step (``A x`` at the accepted point
follows by linearity).  A fresh ``A x`` is taken at the start, every ``K``
accepted steps and before any verdict or return (residual replacement), so
a returned ``mu``, ``q`` and residual never rest on the recurrence.  The
state at a point is one :class:`~spheretrs.geometry.PointState`; under the
standard metric its gradient is -r, the residual it forms, and a step of
``rgd`` makes 16 vector passes besides ``A d``: 6 for the state, 10 for the
line search (b'd, d'Ad, x'd, and 7 to form y and A y).  Per-step dots are
``ndarray.dot``: the BLAS ddot that ``@`` calls, at half its call overhead.
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
from .geometry import MetricScheme, PointState, StandardMetric, hess_apply_stationary
from .linop import CallbackOp, DenseOp, require_int
from .oracle import GLOBAL_SOLVE_LIMIT, global_solve

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_FAILED = "failed"

#: Accepted steps between fresh products ``A x`` that replace the recurrence
#: ``A y = (A x + t A d) / ||x + t d||`` carried by the descent loop.
K = 50

#: Reflections :func:`lpr_solve` makes before it reports a pathological failure.
MAX_RESTARTS = 10

#: Eigensolve tolerance of :func:`double_start`'s curvature check.
ESCAPE_EIG_TOL = 1e-6


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
        require_int("max_iter", self.max_iter, 1)
        require_int("rng_seed", self.rng_seed, 0)
        for name in ("tol_grad", "tol_res"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass
class SolveTrace:
    """Per-iteration scalars plus restart markers.

    One trace spans a whole solve: each descent run of a chain appends its
    rows, and a marker names the row at which a run begins.  A run writes a
    point's row once its line search has succeeded, and its last point's
    row at exit, from a fresh ``A x``.  ``elapsed_s`` is the time since the
    solve began (``t_start``, when the solve made its trace), read when the
    row is written, so it includes that point's line search and never
    decreases across markers.

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
    t_start: float = field(
        init=False, default_factory=time.perf_counter, repr=False, compare=False
    )

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


class _NonFinite(ValueError):
    """The operator returned a NaN or an infinity inside a line search."""


def _armijo(p, s, d, decrease, cfg, capped):
    """Backtracking line search from the :class:`PointState` ``s`` along
    y(t) = (x + t d)/||x + t d||; accept when q(x) - q(y) >= t * c * decrease.
    Returns (t, y, ay, qy) or (None,)*4 when no acceptable step exists above
    1e-18.  Raises :class:`_NonFinite` when d'Ad is not finite.

    One operator application per call: ``A d`` feeds the decrease scalars,
    and ``ay = (ax + t A d) / ||x + t d||`` follows by linearity, so ``ay``
    carries whatever error ``ax`` carries.

    The decrease q(y) - q(x) is evaluated through its exact scalar
    expansion in t, which stays fully accurate even when the per-step
    decrease is far below the rounding level of q itself.

    The first trial is decided here alone.  A ``capped`` search with b != 0
    opens at 1/||b||, which keeps an S_E start inside S_E; any other at the
    model minimizer t = -d'(Ax+b) / d'(A - mu_x I)d, or, when the model has
    no positive curvature, at 1/||b|| (b = 0: the scale-free 1/||d||).
    """
    c = cfg.armijo_c
    tau = cfg.armijo_tau
    x, bx, xax = s.x, s.bx, s.xax
    # Scalars for the exact expansion of q((x+td)/||x+td||) - q(x).
    ad = p.a.apply(d)
    bd = float(p.b.dot(d))
    dad = float(d.dot(ad))
    if not math.isfinite(dad):
        raise _NonFinite("operator output is non-finite (NaN or infinity)")
    xd = float(x.dot(d))
    dd = s.gg if d is s.d and s.axb is None else float(d.dot(d))
    # The standard metric forms no Ax + b: d'(Ax + b) = d'g + mu_x x'd, d'g = -decrease.
    de = s.mu * xd - decrease if s.axb is None else float(d.dot(s.axb))
    t = 1.0 / (p.b_norm or math.sqrt(dd) or 1.0)  # 1/||b||, 1/||d|| or 1
    if not (capped and p.b_norm > 0):
        curv = dad - dd * s.mu
        if de < 0.0 and curv > 0.0:
            t = -de / curv
    while t >= 1e-18:
        s2m1 = 2.0 * t * xd + t * t * dd  # ||x+td||^2 - 1
        s2 = 1.0 + s2m1
        sq = math.sqrt(s2)
        sm1 = s2m1 / (1.0 + sq)
        dq = (
            t * de + t * bd * sm1 + 0.5 * t * t * dad - 0.5 * xax * s2m1
        ) / s2 - bx * sm1 / sq
        if -dq >= t * c * decrease:
            y = x + t * d
            ny = math.sqrt(y.dot(y))
            return t, y / ny, (s.ax + t * ad) / ny, s.q + dq
        t *= tau
    return None, None, None, None


def _check_start(x0, n: int) -> np.ndarray:
    """``x0`` as a float vector; raises ``ValueError`` unless it is a finite,
    nonzero vector of length ``n``."""
    x = np.asarray(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x0 must be a vector of length {n}, got shape {x.shape}")
    if not (np.isfinite(x).all() and np.linalg.norm(x) > 0):
        raise ValueError("x0 must be finite and nonzero")
    return x


def _descent_loop(
    m: MetricScheme,
    p: BtrsProblem,
    x0: np.ndarray,
    cfg: SolverConfig,
    use_cg: bool,
    trace: SolveTrace,
    res_cap: Optional[float] = None,
    capped: bool = False,
) -> SolveResult:
    """Shared RGD/RCG loop with Armijo backtracking and a combined
    gradient-norm / stationarity-residual stopping rule.  :func:`_armijo`
    decides where each line search opens, from ``capped`` and b.

    The current point is one :class:`PointState`.  Its ``A x`` is carried
    by the recurrence of :func:`_armijo` and replaced by a fresh product every
    ``K`` accepted steps.  A stopping test passed on a recurrence value is
    repeated on a fresh ``A x``; if it then fails, the loop continues from
    the steepest-descent direction.  A ``max_iter`` or stalled return is
    refreshed too.  A ``mu`` or a line search's d'Ad that is not finite (the
    operator returned a NaN or an infinity) ends the loop with status
    ``failed`` and reason ``non-finite``.

    Rows go to the caller's ``trace``, which the result carries: one per
    point, written after its line search succeeds, and the last point's at
    exit, from its fresh ``A x`` (none when its ``mu`` is not finite).
    """
    eff_tol_res = cfg.tol_res * max(1.0, p.b_norm)
    if res_cap is not None:
        eff_tol_res = min(eff_tol_res, res_cap)
    tol_gg = cfg.tol_grad**2

    def fresh(x):
        return PointState(m, p, x, p.a.apply(x))

    def record():
        it = s.x.copy() if cfg.record_iterates else None
        el = time.perf_counter() - trace.t_start
        trace.record(s.q, math.sqrt(max(s.gg, 0.0)), s.rn, step, el, it)

    x = _check_start(x0, p.dim)
    s = fresh(x / math.sqrt(x @ x))
    d, dg = s.d, -s.gg  # dg = g(d, grad)
    stale = 0  # accepted steps since s.ax was last a fresh product
    status, reason, step = STATUS_MAX_ITER, "", 0.0

    for _ in range(cfg.max_iter):
        done = s.gg <= tol_gg and s.rn <= eff_tol_res
        if done and stale:
            # The test passed on the recurrence: decide on a fresh A x.
            s, stale = fresh(s.x), 0
            done = s.gg <= tol_gg and s.rn <= eff_tol_res
            if not done:
                d, dg = s.d, -s.gg
        if not math.isfinite(s.mu):
            status, reason = STATUS_FAILED, "non-finite"
            break
        if done:
            status = STATUS_CONVERGED
            break

        try:
            t, y, ay, qy = _armijo(p, s, d, -dg, cfg, capped)
        except _NonFinite:
            status, reason = STATUS_FAILED, "non-finite"
            break
        if t is None:
            status, reason = STATUS_FAILED, "stalled"
            break
        record()
        step = t

        old, stale = s, (stale + 1) % K
        s = PointState(m, p, y, ay, qy) if stale else fresh(y)

        if use_cg:
            # Transport the last -g and d by projection; Polak-Ribiere+ in the metric.
            tg = s.lm.project(old.d)
            td = s.lm.project(d)
            beta = float(s.d.dot(s.md) - s.d.dot(s.lm.mapply(tg))) / old.gg if old.gg > 0 else 0.0
            beta = max(0.0, beta)
            d = s.d + beta * td
            dg = -float(d.dot(s.md))
        if not use_cg or dg >= 0.0:
            d, dg = s.d, -s.gg

    if stale and reason != "non-finite":
        s = fresh(s.x)
        if not math.isfinite(s.mu):
            status, reason = STATUS_FAILED, "non-finite"
    if math.isfinite(s.mu):
        record()
    return SolveResult(x=s.x, mu=s.mu, q=s.q, status=status, trace=trace, reason=reason)


def rcg(
    m: MetricScheme, p: BtrsProblem, x0: np.ndarray, cfg: SolverConfig = SolverConfig()
) -> SolveResult:
    """Riemannian conjugate gradient (Polak-Ribiere+, projection transport).
    Under :class:`StandardMetric` with b != 0 line searches open at 1/||b||."""
    return _descent_loop(m, p, x0, cfg, True, SolveTrace(), capped=isinstance(m, StandardMetric))


def rgd(
    m: MetricScheme, p: BtrsProblem, x0: np.ndarray, cfg: SolverConfig = SolverConfig()
) -> SolveResult:
    """Riemannian gradient descent under an arbitrary metric scheme.
    Under :class:`StandardMetric` with b != 0 line searches open at 1/||b||."""
    return _descent_loop(m, p, x0, cfg, False, SolveTrace(), capped=isinstance(m, StandardMetric))


def naive_rgd(
    p: BtrsProblem,
    x0: np.ndarray,
    cfg: SolverConfig = SolverConfig(),
) -> SolveResult:
    """Riemannian gradient descent with the standard metric and radial
    retraction; the building block of the double-start strategy."""
    return rgd(StandardMetric(), p, x0, cfg)


def _escape_start(p: BtrsProblem, x: np.ndarray, mu: float, seed: int):
    """The minimizer of q on the great circle through x along the most
    negative curvature direction w of the Riemannian Hessian
    P_x (A - mu I) P_x, or None when no curvature lies below the
    eigensolve's ``-cluster_tol`` (x is no saddle).

    The circle's 2x2 sphere problem takes two operator applications
    (``A x`` and ``A w``) and is solved exactly by the oracle.
    """

    def hess(v):
        return hess_apply_stationary(StandardMetric(), p, x, mu, v - x * float(x @ v))

    eig = min_eigpair(CallbackOp(hess, p.dim), tol=ESCAPE_EIG_TOL, seed=seed)
    if not eig.lambda_min < -eig.cluster_tol:
        return None
    w = eig.basis[0] - x * float(x @ eig.basis[0])
    v = np.column_stack([x, w / np.linalg.norm(w)])
    a2 = v.T @ p.a.apply_block(v)
    circle = BtrsProblem(a=DenseOp(0.5 * (a2 + a2.T)), b=v.T @ p.b)
    return v @ global_solve(circle).x


def double_start(p: BtrsProblem, cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Run gradient descent from -b/||b|| and from a random sphere point,
    return the better result.  The first start covers the easy case (it
    stays in S_E), the second covers the hard case (almost surely in S_H).

    A random start close to orthogonal to the minimal eigenspace can sit
    near a saddle for the whole budget.  So each run that ends at
    ``max_iter`` gets a curvature check (:func:`_escape_start`, about 90
    applications at n=500); at a saddle, ``naive_rgd`` reruns from the
    minimizer on the negative-curvature great circle, marked ``escape``.
    Every run appends to one trace, which each result carries.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    starts = [-p.b / p.b_norm] if p.b_norm > 0 else []
    starts.append(haar_unit(p.dim, rng))
    results = []
    trace = SolveTrace()

    def run(kind, x):  # naive_rgd, appending to this solve's trace
        trace.mark(kind)
        results.append(_descent_loop(StandardMetric(), p, x, cfg, False, trace, capped=True))
        return results[-1]

    for x0 in starts:
        res = run("cold_start", x0)
        if res.status != STATUS_MAX_ITER:
            continue
        y = _escape_start(p, res.x, res.mu, cfg.rng_seed)
        if y is not None:
            run("escape", y)

    ok = [r for r in results if r.status != STATUS_FAILED]
    if not ok:
        return results[0]
    # Ties go to the earliest run: the deterministic S_E start first.
    q_min = min(r.q for r in ok)
    return next(r for r in ok if r.q - q_min <= 1e-14 * max(1.0, abs(q_min)))


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

    Without ``eig`` it runs ``min_eigpair`` from b, whose Krylov state holds
    an approximate solution.  Without ``x0`` the descent opens there: at
    x0 = Q y, with y the :func:`global_solve` of the k-by-k problem
    (Q'AQ, Q'b) projected onto the state's basis Q (Gould, Lucidi, Roma &
    Toint 1999).  An ``eig`` with no state, or with more than
    ``GLOBAL_SOLVE_LIMIT`` columns, gives the start s u - b, with u the
    minimal eigenvector of :func:`classify` and s = +-1 making s u'b <= 0:
    a point in S_E and S_H.  Either way, given ``eig`` the answer does not
    depend on ``cfg.rng_seed``.  ``x0`` is checked before the eigensolve, and
    the length of a given ``eig``'s basis vectors before A is applied.

    A u with u'b != 0 certifies the easy case; the inner solver then runs
    with its stationarity test tightened to ||r|| <= |u'b|/2, and any return
    with mu >= lambda_min(A) is reflected across u and restarted.  In the
    hard case the first run is returned, with the default stationarity test:
    no non-global stationary point has u'x != 0.  The restart, not S_E,
    makes it global, so its line searches open at the model minimizer, and
    a projected start needs no certificate of its own: the descent's
    verdicts on a fresh A x and the restart remain the solver of record.
    """
    if inner not in ("rgd", "rcg"):
        raise ValueError("inner solver must be 'rgd' or 'rcg'")
    use_cg = inner == "rcg"
    trace = SolveTrace()  # elapsed_s counts the eigensolve and the start too
    if x0 is not None:
        x0 = _check_start(x0, p.dim)
    if eig is None:
        eig = min_eigpair(p.a, seed=cfg.rng_seed, b=p.b)
    elif any(np.shape(v) != (p.dim,) for v in eig.basis):
        raise ValueError(f"eig basis vectors must have length {p.dim}")
    case = classify(p, eig)
    if x0 is None and eig.krylov is not None and len(eig.krylov[1]) <= GLOBAL_SOLVE_LIMIT:
        q, h = eig.krylov
        x0 = q @ global_solve(BtrsProblem(a=DenseOp(h), b=q.T @ p.b)).x
    elif x0 is None:
        x0 = (-1.0 if float(case.u @ p.b) > 0 else 1.0) * case.u - p.b

    res_cap = case.alpha / 2.0 if case.is_easy else None
    restarts = 0
    while True:
        res = _descent_loop(m, p, x0, cfg, use_cg, trace, res_cap=res_cap)
        if not case.is_easy or res.status == STATUS_FAILED or res.mu < eig.lambda_min:
            break
        restarts += 1
        if restarts > MAX_RESTARTS:
            res.status, res.reason = STATUS_FAILED, "pathological"
            break
        trace.mark("lpr")
        x0 = lpr_transform(res.x, case.u)
    return replace(res, restarts=restarts, case=case)
