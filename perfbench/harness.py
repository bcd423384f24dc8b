"""Workloads, timed passes, correctness checks and metrics of the benchmark.

Each workload is a fixed grid of generated instances.  The run seed draws
the solvers' random starts (SolverConfig.rng_seed), in several streams per
run; direct min_eigpair and build_eig_seed calls use their default seeds.
README.md in this directory maps workloads to layers and metrics and gives
the reasons for these choices.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy

from spheretrs import (
    BtrsProblem,
    CallbackOp,
    DenseOp,
    GenSpec,
    SeededMetric,
    SolverConfig,
    StandardMetric,
    build_eig_seed,
    double_start,
    enumerate_affine_eigenvalues,
    generate,
    load_problem,
    lpr_solve,
    make_phi,
    min_eigpair,
    save_problem,
    solve_trs,
)
from spheretrs.solvers import STATUS_FAILED, STATUS_MAX_ITER
from tracing import CountingOp, CountingPrecond, Tracer, span

ROOT = Path(__file__).resolve().parent.parent

GRID_SEED = 1  # gen seed of every grid instance
# Set-up is timed in rounds spread over the run: one before the timed passes
# and one after each of the first SETUP_ROUNDS - 1 passes.  A round repeats
# the set-up until SETUP_ROUND_S have passed, so a short set-up is sampled
# many times; setup_s is the median over every set-up of the run.
SETUP_ROUNDS = 3
SETUP_ROUND_S = 1.5
SKETCH_RANK = 50
EIG_TOL = 1e-10  # lpr_solve's own default for the min_eigpair it would run
Q_RTOL = 1e-8  # relative tolerance on q, and on mu for the oracle
NORM_TOL = 1e-10

# Metric names and units are declared once, in BENCHMARK.json.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in DECLARED[kind]
}
UNITS["fail_frac"] = "fraction"



@dataclass
class Instance:
    spec: GenSpec
    a: np.ndarray  # dense symmetric A
    b: np.ndarray
    mu_star: float
    x_star: np.ndarray  # planted global optimum on the sphere

    def q(self, x) -> float:
        return 0.5 * float(x @ (self.a @ x)) + float(self.b @ x)

    @cached_property
    def sphere_q(self) -> float:
        return self.q(self.x_star)

    @cached_property
    def ball_q(self) -> float:
        """-A^{-1}b when A is positive definite and it lies inside the ball,
        otherwise the planted sphere optimum."""
        if np.linalg.eigvalsh(self.a)[0] > 0:
            y = -np.linalg.solve(self.a, self.b)
            if np.linalg.norm(y) < 1.0:
                return self.q(y)
        return self.sphere_q


def setup(w: "Workload", tracer: Optional[Tracer], workdir: Path) -> List[Instance]:
    """Generate and materialize every grid instance and, for callback
    workloads, round-trip it through a problem file."""
    out = []
    for i, spec in enumerate(w.specs):
        with span(tracer, "gen", "generate"):
            p, planted = generate(spec)
        if w.callback:
            path = workdir / f"{w.name}-{i}.json"
            with span(tracer, "probio", "save_problem"):
                save_problem(p, path)
            with span(tracer, "probio", "load_problem"):
                p = load_problem(path)
        out.append(Instance(spec, p.a.to_dense(), p.b, planted.mu, planted.x))
    return out


# Each runner takes (problem, seed, tracer) and returns (result, MinEigResult
# or None); spans wrap exactly the calls into one layer.


def _double_start(p, seed, tracer):
    with span(tracer, "solvers", "double_start"):
        return double_start(p, SolverConfig(rng_seed=seed)), None


def _lpr(seeded: bool):
    def run(p, seed, tracer):
        with span(tracer, "eigmin", "min_eigpair"):
            eig = min_eigpair(p.a, tol=EIG_TOL)
        metric = StandardMetric()
        if seeded:
            with span(tracer, "precond", "build_eig_seed"):
                pre = build_eig_seed(p.a, rank=SKETCH_RANK)
                phi = make_phi(pre, p)
            if tracer is not None:
                pre = CountingPrecond(pre, tracer)
            metric = SeededMetric(pre, phi)
        with span(tracer, "solvers", "lpr_solve"):
            return lpr_solve(p, metric, "rcg", SolverConfig(rng_seed=seed), eig=eig), eig

    return run


def _oracle(p, seed, tracer):
    with span(tracer, "oracle", "enumerate_affine_eigenvalues"):
        return enumerate_affine_eigenvalues(p), None


def _trs(strategy: str):
    def run(p, seed, tracer):
        with span(tracer, "trs", strategy):
            return solve_trs(p, strategy, SolverConfig(rng_seed=seed)), None

    return run


def _close(q, ref) -> bool:
    return abs(q - ref) <= Q_RTOL * max(1.0, abs(ref))


def _sphere_ok(inst: Instance, res) -> bool:
    return (
        res.status != STATUS_FAILED
        and abs(float(np.linalg.norm(res.x)) - 1.0) <= NORM_TOL
        and _close(inst.q(res.x), inst.sphere_q)
    )


def _oracle_ok(inst: Instance, rep) -> bool:
    return _close(rep.global_.mu, inst.mu_star)


def _ball_ok(inst: Instance, res) -> bool:
    return (
        (res.boundary is None or res.boundary.status != STATUS_FAILED)
        and float(np.linalg.norm(res.x)) <= 1.0 + NORM_TOL
        and _close(inst.q(res.x), inst.ball_q)
    )


@dataclass(frozen=True)
class Entry:
    name: str
    group: str  # the per-entry-point time metric is <group>_s
    run: Callable
    ok: Callable[[Instance, object], bool]
    standard: bool = False  # standard metric: first Armijo trial is 1/||b||


@dataclass(frozen=True)
class Workload:
    name: str
    specs: Tuple[GenSpec, ...]
    entries: Tuple[Entry, ...]
    callback: bool = False  # probio round trip in setup, CallbackOp in passes
    # Random-start streams per run, one per pass in turn; each solve reports
    # its median over them.  A random start moves the iterations of a
    # hard-case solve by up to 4x (n=2000, gap 1e-8: about 190 to 770), so
    # the n=2000 grid, the widest, takes more streams; the ball grid, whose
    # pass is the shortest, takes more passes against the host's noise.
    streams: int = 3


def _grid(n, gaps, **kw):
    return tuple(GenSpec(n=n, gap=g, seed=GRID_SEED, **kw) for g in gaps)


_PD = dict(noise_frac=0.0, signal_range=(1.0, 10.0))

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sphere_dense_500",
            _grid(500, (2.0, 1e-2, 1e-8, 0.0)),
            (
                Entry("double_start", "double_start", _double_start, _sphere_ok, standard=True),
                Entry("lpr", "lpr", _lpr(seeded=False), _sphere_ok, standard=True),
                Entry("oracle", "oracle", _oracle, _oracle_ok),
            ),
        ),
        Workload(
            "sphere_precond_2000",
            _grid(2000, (1e-2, 1e-8, 0.0)),
            (Entry("lpr", "lpr", _lpr(seeded=True), _sphere_ok),),
            streams=5,
        ),
        Workload(
            "ball_callback_500",
            # PD interior, PD boundary, indefinite easy, hard.
            _grid(500, (0.5, 2.0), **_PD) + _grid(500, (1e-2, 0.0)),
            (
                Entry("decide", "trs", _trs("decide"), _ball_ok),
                Entry("always_augment", "trs", _trs("always_augment"), _ball_ok),
            ),
            callback=True,
            streams=4,
        ),
    )
}



@dataclass
class Solve:
    entry: Entry
    instance: Instance
    seconds: float
    matvecs: int
    ok: bool
    result: object = None
    eig: object = None


def _solve(w: Workload, inst: Instance, e: Entry, seed: int, tracer) -> Solve:
    # Fresh operators per solve: SymOp caches its norm estimate.
    n = inst.a.shape[0]
    if w.callback:
        a = inst.a
        inner = CallbackOp(lambda v: a @ v, n)
    else:
        inner = DenseOp(inst.a)
    p = BtrsProblem(a=CountingOp(inner, tracer), b=inst.b)
    result = eig = None
    t0 = perf_counter()
    try:
        with span(tracer, "bench", e.name):
            result, eig = e.run(p, seed, tracer)
    except Exception:
        traceback.print_exc(file=sys.stderr)
    seconds = perf_counter() - t0
    ok = result is not None and e.ok(inst, result)
    if not ok:
        status = getattr(result, "status", getattr(result, "route", None))
        print(
            f"miss: {w.name} {e.name} gap={inst.spec.gap:g} rng_seed={seed} ({status})",
            file=sys.stderr,
        )
    return Solve(e, inst, seconds, p.a.matvecs, ok, result, eig)


def run_pass(w: Workload, instances, seed: int, tracer=None) -> List[Solve]:
    return [_solve(w, inst, e, seed, tracer) for inst in instances for e in w.entries]


def timed_passes(w, instances, seed, seconds, trace, after_pass=lambda: None):
    """Whole passes, cycling through the random-start streams, until every
    stream has run and ``seconds`` have elapsed.  With ``trace`` each pass is
    run untraced and then traced, so a drift in machine speed hits both;
    ``after_pass`` runs after each.  Returns the untraced and the traced
    passes as (stream, solves, tracer)."""
    plain, traced = [], []
    t_end = perf_counter() + seconds
    while len(plain) < w.streams or perf_counter() < t_end:
        k = len(plain) % w.streams
        solver_seed = w.streams * seed + k
        plain.append((k, run_pass(w, instances, solver_seed), None))
        if trace:
            tracer = Tracer()
            traced.append((k, run_pass(w, instances, solver_seed, tracer), tracer))
        after_pass()
    return plain, traced



def _medians(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def _streams(passes, figures) -> List[list]:
    """``figures(solves, tracer)`` of every pass, grouped by random-start stream."""
    by_stream = {}
    for k, solves, tracer in passes:
        by_stream.setdefault(k, []).append(figures(solves, tracer))
    return list(by_stream.values())


def per_solve(passes, value) -> float:
    """Sum over the grid's solves of the median over streams (of the median
    over a stream's repeats) of ``value(solve)``; the median keeps one
    unlucky random start from dominating a run."""
    streams = _streams(passes, lambda solves, _: [value(s) for s in solves])
    per_stream = [[statistics.median(col) for col in zip(*reps)] for reps in streams]
    return sum(statistics.median(col) for col in zip(*per_stream))


def _solver_result(s: Solve):
    """The sphere SolveResult behind a solve, if any."""
    if s.entry.group == "trs":
        return s.result.boundary if s.result is not None else None
    return s.result if s.entry.group in ("double_start", "lpr") else None


def entry_figures(passes) -> Dict[str, float]:
    """End-to-end figures of untraced passes."""
    out = {"solve_s": per_solve(passes, lambda s: s.seconds)}
    for g in ("double_start", "lpr", "trs", "oracle"):
        out[f"{g}_s"] = per_solve(passes, lambda s: s.seconds if s.entry.group == g else 0.0)
    out["matvecs"] = per_solve(passes, lambda s: s.matvecs)
    # Only descent solves can end at max_iter: not the oracle, nor an
    # interior-route solve_trs.
    results = [_solver_result(s) for _, solves, _ in passes for s in solves]
    results = [r for r in results if r is not None]
    out["maxiter_frac"] = (
        sum(r.status == STATUS_MAX_ITER for r in results) / len(results) if results else 0.0
    )
    return out


def _backtracks(s: Solve) -> Tuple[int, int]:
    """(backtracks, steps) read off the trace's step column against the
    first trial step 1/||b||."""
    t0 = 1.0 / float(np.linalg.norm(s.instance.b))
    log_tau = math.log(SolverConfig().armijo_tau)
    steps = [t for t in s.result.trace.step if t > 0.0]
    return sum(round(math.log(t / t0) / log_tau) for t in steps), len(steps)


def layer_metrics(solves: List[Solve], tracer: Tracer) -> Dict[str, float]:
    """Per-layer figures of one traced pass."""
    spans = tracer.spans

    def of(layer):
        return [s for s in spans if s.layer == layer]

    def dur(ss):
        return sum(s.duration for s in ss)

    def cnt(ss, kind="matvec"):
        return sum(s.counts[kind] for s in ss)

    def sec(ss, kind="matvec"):
        return sum(s.seconds[kind] for s in ss)

    def ratio(a, b):
        return a / b if b else 0.0

    eig, pre, sol, orc = of("eigmin"), of("precond"), of("solvers"), of("oracle")
    direct = [
        s for s in solves if s.entry.group in ("double_start", "lpr") and s.result is not None
    ]
    iters = sum(len(s.result.trace.iters) for s in direct)
    bt = [_backtracks(s) for s in direct if s.entry.standard]
    trs = [s for s in solves if s.entry.group == "trs" and s.result is not None]
    m = {
        "linop.matvecs": cnt(spans),
        "linop.s": sec(spans),
        "linop.us_per_matvec": 1e6 * ratio(sec(spans), cnt(spans)),
        "linop.matvecs_per_iter": ratio(cnt(sol), iters),
        "eigmin.s": dur(eig),
        "eigmin.iterations": sum(s.eig.iterations for s in solves if s.eig is not None),
        "eigmin.matvecs": cnt(eig),
        "eigmin.self_s": dur(eig) - sec(eig),
        "precond.sketch_s": dur(pre),
        "precond.sketch_matvecs": cnt(pre),
        "precond.sketch_self_s": dur(pre) - sec(pre),
        "precond.solves": cnt(spans, "psolve"),
        "precond.solve_s": sec(spans, "psolve"),
        "precond.solves_per_iter": ratio(cnt(sol, "psolve"), iters),
        "solvers.iterations": iters,
        "solvers.restarts": sum(s.result.restarts for s in direct),
        "solvers.backtracks_per_iter": ratio(sum(b for b, _ in bt), sum(k for _, k in bt)),
        "solvers.self_us_per_iter": 1e6
        * ratio(dur(sol) - sec(sol) - sec(sol, "psolve"), iters),
        "oracle.s_per_instance": ratio(dur(orc), len(orc)),
    }
    for route in ("interior", "direct", "augmented"):
        on = [s for s in trs if s.result.route == route]
        m[f"trs.route.{route}"] = len(on)
        m[f"trs.{route}_s"] = sum(s.seconds for s in on)
    return m


def setup_metrics(tracer: Tracer) -> Dict[str, float]:
    def total(layer, name=None):
        return sum(
            s.duration for s in tracer.spans if s.layer == layer and name in (None, s.name)
        )

    return {
        "gen.s": total("gen"),
        "probio.save_s": total("probio", "save_problem"),
        "probio.load_s": total("probio", "load_problem"),
    }


def environment() -> Dict[str, object]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }



def run(w: Workload, seed: int, seconds: float, trace: bool):
    """Set up, warm up and measure; returns (figures, attempted, failed)."""
    setups = []  # (seconds, tracer) of every set-up
    rounds = 0

    def setup_round():
        """Returns the instances of its last set-up."""
        nonlocal rounds
        if rounds == SETUP_ROUNDS:
            return None
        rounds += 1
        t_end = perf_counter() + SETUP_ROUND_S
        while True:
            tracer = Tracer() if trace else None
            t0 = perf_counter()
            instances = setup(w, tracer, Path(tmp))
            setups.append((perf_counter() - t0, tracer))
            if perf_counter() >= t_end:
                return instances

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        instances = setup_round()
        run_pass(w, instances[:1], w.streams * seed)  # warm-up, not timed
        plain, traced = timed_passes(w, instances, seed, seconds, trace, setup_round)
    flat = [s for _, solves, _ in plain + traced for s in solves]
    failed = sum(not s.ok for s in flat)
    figures = entry_figures(plain)
    figures["setup_s"] = statistics.median(t for t, _ in setups)
    figures["fail_frac"] = failed / len(flat)
    if trace:
        figures.update(_medians([_medians(r) for r in _streams(traced, layer_metrics)]))
        figures.update(_medians([setup_metrics(t) for _, t in setups]))
        traced_s = per_solve(traced, lambda s: s.seconds)
        figures["trace_overhead_frac"] = traced_s / figures["solve_s"] - 1.0
    return figures, len(flat), failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="spheretrs benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    figures, attempted, failed = run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    run_args = f"seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
    print(f"# workload={args.workload} {run_args}")
    print("# env " + json.dumps(environment()))
    for k, v in figures.items():
        print(f"{k:28s} {v:>16.6g} {UNITS.get(k, '')}")
    declared = DECLARED["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in declared}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if failed == 0 else 1
