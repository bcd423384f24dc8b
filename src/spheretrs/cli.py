"""Command line front end.

Subcommands:
  generate  write a synthetic problem JSON (plus a .planted.json sidecar),
            its arrays as base64 float64 (see ``probio``)
  solve     solve a sphere-constrained problem, print result JSON
  trs       solve the ball-constrained problem
  oracle    dense ground-truth report as JSON
  bench     sweep gaps x seeds x solvers, one trace CSV per run + summary

Problem files may give each array as a base64 string or a JSON list.
Exit codes: 0 converged, 2 iteration budget exhausted, 1 any error.
The trace CSV of ``solve --trace`` and ``trs --trace`` gets a
.manifest.json sidecar recording the command, the configuration and a hash
of the problem file; ``bench``'s per-run traces get none (its runs.json
holds each run's row).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .btrs import BtrsProblem, objective
from .gen import GenSpec, generate
from .geometry import SeededMetric, StandardMetric
from .oracle import enumerate_affine_eigenvalues
from .precond import OVERSAMPLE, Preconditioner, build_eig_seed, make_phi
from .probio import (
    ProblemFormatError,
    load_problem,
    save_planted,
    save_problem,
)
from .solvers import (
    STATUS_CONVERGED,
    STATUS_FAILED,
    STATUS_MAX_ITER,
    SolveResult,
    SolverConfig,
    double_start,
    lpr_solve,
    rcg,
    rgd,
)
from .trs import solve_trs

_STATUS_LABEL = {
    STATUS_CONVERGED: "Converged",
    STATUS_MAX_ITER: "MaxIter",
    STATUS_FAILED: "Failed",
}
_EXIT_CODE = {STATUS_CONVERGED: 0, STATUS_MAX_ITER: 2}


def _write_manifest(trace_path, args_ns, cfg: SolverConfig, problem_path) -> None:
    manifest = {
        "command": args_ns.command,
        "config": dataclasses.asdict(cfg),
        "problem_sha256": (
            hashlib.sha256(Path(problem_path).read_bytes()).hexdigest() if problem_path else None
        ),
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    Path(str(trace_path) + ".manifest.json").write_text(json.dumps(manifest, indent=2))


def _config_from_args(args, seed: int) -> SolverConfig:
    return SolverConfig(
        tol_grad=args.tol_grad,
        tol_res=args.tol_res,
        max_iter=args.max_iter,
        rng_seed=seed,
    )


def _run_solver(
    solver: str, p: BtrsProblem, cfg: SolverConfig, pre: Optional[Preconditioner] = None
) -> SolveResult:
    """Run double-start, lpr, rgd or rcg, under the metric seeded by ``pre``
    when one is given; rgd and rcg start from -b/||b|| (random when b = 0)."""
    if solver == "double-start":
        return double_start(p, cfg)
    m = StandardMetric() if pre is None else SeededMetric(pre, make_phi(pre, p))
    if solver == "lpr":
        return lpr_solve(p, m, cfg=cfg)
    rng = np.random.default_rng(cfg.rng_seed)
    # The descent loop normalizes its start.
    x0 = -p.b / p.b_norm if p.b_norm > 0 else rng.standard_normal(p.dim)
    run = {"rgd": rgd, "rcg": rcg}[solver]
    return run(m, p, x0, cfg)


def _result_json(res: SolveResult) -> dict:
    return {
        "status": _STATUS_LABEL.get(res.status, res.status),
        "mu": res.mu,
        "q": res.q,
        "x": res.x.tolist(),
        "iterations": len(res.trace.iters),
        "restarts": res.restarts,
        "reason": res.reason,
    }


def cmd_generate(args) -> int:
    spec = GenSpec(
        n=args.n,
        gap=args.gap,
        noise_frac=args.noise_frac,
        noise_std=args.noise_std,
        signal_range=(args.signal_lo, args.signal_hi),
        seed=args.seed,
    )
    p, planted = generate(spec)
    save_problem(p, args.out)
    save_planted(planted, Path(args.out).with_suffix(".planted.json"))
    print(json.dumps({"n": p.dim, "gap": args.gap, "out": str(args.out)}))
    return 0


def cmd_solve(args) -> int:
    p = load_problem(args.problem)
    cfg = _config_from_args(args, args.seed)
    pre = None
    if args.precond == "eigseed":
        if args.solver == "double-start":
            raise ValueError("double-start runs with the standard metric only")
        pre = build_eig_seed(
            p.a, rank=args.rank, oversample=args.oversample, seed=args.seed
        )
    res = _run_solver(args.solver, p, cfg, pre)
    if args.trace:
        res.trace.to_csv(args.trace)
        _write_manifest(args.trace, args, cfg, args.problem)
    print(json.dumps(_result_json(res)))
    return _EXIT_CODE.get(res.status, 1)


def cmd_trs(args) -> int:
    p = load_problem(args.problem)
    cfg = _config_from_args(args, args.seed)
    res = solve_trs(p, strategy=args.strategy.replace("-", "_"), cfg=cfg)
    out = {
        "route": res.route,
        "q": res.q,
        "x": res.x.tolist(),
        "case": res.case_kind,
    }
    inner = res.boundary
    status = STATUS_CONVERGED if inner is None else inner.status
    out["status"] = _STATUS_LABEL.get(status, status)
    if inner is not None and args.trace:
        inner.trace.to_csv(args.trace)
        _write_manifest(args.trace, args, cfg, args.problem)
    print(json.dumps(out))
    return _EXIT_CODE.get(status, 1)


def cmd_oracle(args) -> int:
    p = load_problem(args.problem)
    rep = enumerate_affine_eigenvalues(p, dense_limit=args.dense_limit)
    out = {
        "lambda": rep.lambda_.tolist(),
        "case": rep.case,
        "mu_star": rep.global_.mu,
        "q_star": objective(p, rep.global_.x),
        "x_star": rep.global_.x.tolist(),
        "mu_max": rep.mu_max,
        "affine_eigenvalues": [pair.mu for pair in rep.affine_eigs],
        "local_nonglobal_mu": (
            rep.local_nonglobal.mu if rep.local_nonglobal is not None else None
        ),
    }
    print(json.dumps(out))
    return 0


def _bench_one(task):
    gap, seed, solver, n, rank, cfg, out_dir = task
    p, planted = generate(GenSpec(n=n, gap=gap, seed=seed))
    q_star = objective(p, planted.x)
    pre = None
    if solver.startswith("prc-"):
        pre = build_eig_seed(p.a, rank=rank, seed=seed)

    t0 = time.perf_counter()
    res = _run_solver(solver.removeprefix("prc-"), p, cfg, pre)
    wall = time.perf_counter() - t0

    trace_name = f"trace_gap{gap:g}_seed{seed}_{solver}.csv"
    trace_path = os.path.join(out_dir, trace_name)
    res.trace.to_csv(trace_path)
    rel_err = abs(res.q - q_star) / max(1.0, abs(q_star))
    return {
        "solver": solver,
        "gap": gap,
        "seed": seed,
        "status": _STATUS_LABEL.get(res.status, res.status),
        "iterations": len(res.trace.iters),
        "seconds": wall,
        "rel_obj_err": rel_err,
        "trace": trace_name,
    }


def cmd_bench(args) -> int:
    solvers = [s for s in args.solvers.split(",") if s]
    if not solvers:
        raise ValueError("empty solver list")
    known = {"rgd", "rcg", "prc-rgd", "prc-rcg"}
    bad = set(solvers) - known
    if bad:
        raise ValueError(f"unknown solvers {sorted(bad)}")
    top = args.n - OVERSAMPLE
    if any(name.startswith("prc-") for name in solvers) and not 1 <= args.rank <= top:
        raise ValueError(f"--rank must lie in [1, n - {OVERSAMPLE}] = [1, {top}]")
    try:
        gaps = [float(g) for g in args.gaps.split(",") if g]
    except ValueError as exc:
        raise ValueError(f"--gaps: {exc}") from None
    if not gaps:
        raise ValueError("empty gap list")
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    for gap in gaps:
        GenSpec(n=args.n, gap=gap)  # rejects a bad n or gap before any run
    tasks = [
        (gap, seed, solver, args.n, args.rank, _config_from_args(args, seed), args.out_dir)
        for gap in gaps
        for seed in range(args.seeds)
        for solver in solvers
    ]
    os.makedirs(args.out_dir, exist_ok=True)

    rows = []
    for task in tasks:
        try:
            rows.append(_bench_one(task))
        except Exception as exc:
            print(f"run failed: {exc}", file=sys.stderr)

    summary_path = os.path.join(args.out_dir, "summary.csv")
    with open(summary_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["solver", "gap", "median_iterations", "median_seconds", "median_rel_obj_err", "runs"]
        )
        for solver in solvers:
            for gap in gaps:
                sub = [r for r in rows if r["solver"] == solver and r["gap"] == gap]
                if not sub:
                    continue
                w.writerow(
                    [
                        solver,
                        gap,
                        statistics.median(r["iterations"] for r in sub),
                        statistics.median(r["seconds"] for r in sub),
                        statistics.median(r["rel_obj_err"] for r in sub),
                        len(sub),
                    ]
                )
    per_run_path = os.path.join(args.out_dir, "runs.json")
    Path(per_run_path).write_text(json.dumps(rows, indent=2))
    print(json.dumps({"summary": summary_path, "runs": len(rows)}))
    return 0 if len(rows) == len(tasks) else 1


def _add_config_flags(sp):
    sp.add_argument("--tol-grad", type=float, default=SolverConfig.tol_grad)
    sp.add_argument("--tol-res", type=float, default=SolverConfig.tol_res)
    sp.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)


def _add_common_solve_flags(sp):
    sp.add_argument("problem", help="problem JSON file")
    sp.add_argument("--seed", type=int, default=0)
    _add_config_flags(sp)
    sp.add_argument("--trace", default=None, help="write per-iteration CSV here")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spheretrs",
        description="Trust region subproblem solvers on the unit sphere",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic problem")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--gap", type=float, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--noise-frac", type=float, default=0.75)
    g.add_argument("--noise-std", type=float, default=1e-3)
    g.add_argument("--signal-lo", type=float, default=-5.0)
    g.add_argument("--signal-hi", type=float, default=10.0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve the sphere-constrained problem")
    _add_common_solve_flags(s)
    s.add_argument(
        "--solver",
        default="double-start",
        choices=["double-start", "lpr", "rgd", "rcg"],
    )
    s.add_argument("--precond", default="none", choices=["none", "eigseed"])
    s.add_argument("--rank", type=int, default=50)
    s.add_argument("--oversample", type=int, default=OVERSAMPLE)
    s.set_defaults(func=cmd_solve)

    t = sub.add_parser("trs", help="solve the ball-constrained problem")
    _add_common_solve_flags(t)
    t.add_argument(
        "--strategy", default="decide", choices=["decide", "always-augment"]
    )
    t.set_defaults(func=cmd_trs)

    o = sub.add_parser("oracle", help="dense ground-truth report")
    o.add_argument("problem")
    o.add_argument("--dense-limit", type=int, default=500)
    o.set_defaults(func=cmd_oracle)

    b = sub.add_parser("bench", help="gap x seed x solver sweep")
    b.add_argument("--n", type=int, default=500)
    b.add_argument("--gaps", default="2,1e-8,0")
    b.add_argument("--seeds", type=int, default=20)
    b.add_argument("--solvers", default="rgd,rcg,prc-rgd,prc-rcg")
    b.add_argument("--rank", type=int, default=50)
    _add_config_flags(b)
    b.add_argument("--out-dir", required=True)
    b.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is bad input here (1): 2
        # means an exhausted iteration budget.  --help and --version exit 0.
        return 1 if exc.code == 2 else exc.code
    try:
        return args.func(args)
    except (ProblemFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
