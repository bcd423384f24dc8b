"""Tests of the benchmark itself: every workload at a tiny size, the counting
wrappers, and the correctness gate.  Run with ``python3 -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
from spheretrs import DenseOp, EigSeedPrecond, GenSpec, SolverConfig, generate  # noqa: E402
from spheretrs.solvers import STATUS_MAX_ITER, naive_rgd  # noqa: E402
from tracing import CountingOp, CountingPrecond, Tracer  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Every workload with its grid shrunk to n=64 (the sketch needs 60)."""
    shrunk = {
        k: replace(w, specs=tuple(replace(s, n=64) for s in w.specs))
        for k, w in harness.WORKLOADS.items()
    }
    monkeypatch.setattr(harness, "WORKLOADS", shrunk)
    monkeypatch.setattr(harness, "SETUP_ROUND_S", 0.0)


def run_main(capsys, workload, trace=0):
    code = harness.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_workload_prints_every_metric_with_its_unit(tiny, capsys, workload, trace):
    code, out, summary = run_main(capsys, workload, trace)
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    printed = {line.split()[0]: line.split()[-1] for line in summary if not line.startswith("#")}
    assert all(printed[name] == unit for name, unit in declared.items())
    assert printed["fail_frac"] == "fraction"
    assert (code, out["correct"], out["failed"]) == (0, True, 0)
    assert out["attempted"] >= 1


def test_counting_op_counts_direct_applies():
    m = np.diag(np.arange(1.0, 6.0))
    tracer = Tracer()
    plain, traced = CountingOp(DenseOp(m)), CountingOp(DenseOp(m), tracer)
    with tracer.span("bench", "test") as s:
        for _ in range(7):
            np.testing.assert_array_equal(plain.apply(np.ones(5)), traced.apply(np.ones(5)))
        np.testing.assert_array_equal(traced.to_dense(), m)  # delegated, not applied
    assert plain.matvecs == traced.matvecs == s.counts["matvec"] == 7


def test_counting_precond_delegates_and_counts_solves():
    pre = EigSeedPrecond(np.eye(4)[:, :2], np.array([-1.0, 2.0]))
    tracer = Tracer()
    wrapped = CountingPrecond(pre, tracer)
    v = np.arange(4.0)
    with tracer.span("bench", "test") as s:
        np.testing.assert_array_equal(wrapped.solve(3.0, v), pre.solve(3.0, v))
        np.testing.assert_array_equal(wrapped.apply(v), pre.apply(v))
    assert wrapped.lambda_min_m == pre.lambda_min_m
    assert s.counts["psolve"] == 1


def test_backtracks_count_every_step_of_a_max_iter_run_once():
    p, _ = generate(GenSpec(n=30, gap=1e-2, seed=1))
    x0 = np.ones(30) / np.sqrt(30.0)
    res = naive_rgd(p, x0, SolverConfig(max_iter=5))
    assert res.status == STATUS_MAX_ITER
    backtracks, steps = harness._backtracks(SimpleNamespace(instance=p, result=res))
    assert steps == 5
    assert backtracks >= 0


def test_maxiter_frac_counts_descent_solves_only():
    double, _, oracle = harness.WORKLOADS["sphere_dense_500"].entries
    solves = [
        harness.Solve(double, None, 1.0, 10, True, SimpleNamespace(status=STATUS_MAX_ITER)),
        harness.Solve(oracle, None, 1.0, 10, True, object()),
    ]
    assert harness.entry_figures([(0, solves, None)])["maxiter_frac"] == 1.0


def test_wrong_result_counts_as_failed_and_fails_the_run(tiny, capsys, monkeypatch):
    real = harness.double_start
    monkeypatch.setattr(
        harness, "double_start", lambda p, cfg: replace(r := real(p, cfg), x=-r.x)
    )
    code, out, _ = run_main(capsys, "sphere_dense_500")
    w = harness.WORKLOADS["sphere_dense_500"]
    assert (code, out["correct"], out["failed"]) == (1, False, len(w.specs) * w.streams)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sphere_dense_500",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
