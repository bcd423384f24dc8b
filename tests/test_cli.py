import json

import numpy as np
import pytest

from spheretrs import BtrsProblem, DiagonalOp, save_problem
from spheretrs.cli import main


def write_problem(tmp_path, d, b, name="p.json"):
    path = tmp_path / name
    save_problem(BtrsProblem(a=DiagonalOp(np.asarray(d, float)), b=np.asarray(b, float)), path)
    return path


def test_generate_then_solve(tmp_path, capsys):
    out = tmp_path / "prob.json"
    rc = main(["generate", "--n", "20", "--gap", "1.0", "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert out.exists()
    assert out.with_suffix(".planted.json").exists()
    capsys.readouterr()

    trace = tmp_path / "trace.csv"
    rc = main(["solve", str(out), "--solver", "double-start", "--trace", str(trace)])
    assert rc == 0
    res = json.loads(capsys.readouterr().out)
    assert res["status"] == "Converged"

    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iter,q,grad_norm,res_norm,step,elapsed_s,marker"
    assert len(lines) > 1
    manifest = json.loads((tmp_path / "trace.csv.manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert "problem_sha256" in manifest


def test_solve_max_iter_exit_code(tmp_path, capsys):
    out = tmp_path / "prob.json"
    main(["generate", "--n", "40", "--gap", "0.01", "--seed", "2", "--out", str(out)])
    capsys.readouterr()
    rc = main(["solve", str(out), "--solver", "rgd", "--max-iter", "2"])
    res = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert res["status"] == "MaxIter"


def test_missing_file_exit_code(tmp_path, capsys):
    rc = main(["solve", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_trs_command(tmp_path, capsys):
    path = write_problem(tmp_path, [2.0, 2.0], [0.5, 0.0])
    rc = main(["trs", str(path)])
    assert rc == 0
    res = json.loads(capsys.readouterr().out)
    assert res["route"] == "interior"
    assert np.allclose(res["x"], [-0.25, 0.0], atol=1e-9)

    rc = main(["trs", str(path), "--strategy", "always-augment"])
    assert rc == 0
    res = json.loads(capsys.readouterr().out)
    assert res["route"] == "augmented"


def test_oracle_command(tmp_path, capsys):
    path = write_problem(tmp_path, [1.0, 3.0], [1.0, 1.0])
    rc = main(["oracle", str(path)])
    assert rc == 0
    res = json.loads(capsys.readouterr().out)
    assert res["case"] in ("easy", "hard")
    assert res["mu_star"] <= res["lambda"][0] + 1e-12
    assert len(res["x_star"]) == 2


def test_bench_command(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    rc = main([
        "bench", "--n", "20", "--gaps", "1.0", "--seeds", "1",
        "--solvers", "rgd", "--out-dir", str(out_dir),
    ])
    capsys.readouterr()
    assert rc == 0
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "runs.json").exists()
    traces = list(out_dir.glob("trace_*.csv"))
    assert len(traces) == 1
    summary = (out_dir / "summary.csv").read_text().strip().splitlines()
    assert summary[0].startswith("solver,gap,")
    assert len(summary) == 2


def test_bench_rows_follow_grid_order(tmp_path, capsys):
    out_dir = tmp_path / "b"
    rc = main([
        "bench", "--n", "20", "--gaps", "1.0,0", "--seeds", "2",
        "--solvers", "rgd,rcg", "--out-dir", str(out_dir),
    ])
    capsys.readouterr()
    assert rc == 0
    rows = json.loads((out_dir / "runs.json").read_text())
    assert [(r["gap"], r["seed"], r["solver"]) for r in rows] == [
        (gap, seed, solver)
        for gap in (1.0, 0.0)
        for seed in (0, 1)
        for solver in ("rgd", "rcg")
    ]


def test_bench_rejects_bad_solver_list(tmp_path, capsys):
    rc = main(["bench", "--solvers", "", "--out-dir", str(tmp_path / "b")])
    assert rc == 1
    rc = main(["bench", "--solvers", "warp", "--out-dir", str(tmp_path / "b")])
    assert rc == 1
    capsys.readouterr()


@pytest.fixture
def small_problem(tmp_path, capsys):
    out = tmp_path / "prob.json"
    main(["generate", "--n", "20", "--gap", "1.0", "--seed", "1", "--out", str(out)])
    capsys.readouterr()
    return out


@pytest.mark.parametrize("precond", ["none", "eigseed"])
@pytest.mark.parametrize("solver", ["rgd", "rcg", "lpr"])
def test_solve_each_solver_and_metric(small_problem, capsys, solver, precond):
    rc = main([
        "solve", str(small_problem), "--solver", solver, "--precond", precond,
        "--rank", "4", "--oversample", "4",
    ])
    res = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert res["status"] == "Converged"


def test_double_start_rejects_eigseed(small_problem, capsys):
    rc = main(["solve", str(small_problem), "--solver", "double-start", "--precond", "eigseed"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_usage_errors_exit_1(small_problem, capsys):
    assert main(["solve"]) == 1
    assert main(["solve", str(small_problem), "--solver", "nope"]) == 1
    # trs has one solver path, so it takes no solver or sketch flags.
    assert main(["trs", str(small_problem), "--precond", "eigseed", "--rank", "99"]) == 1
    assert "usage:" in capsys.readouterr().err
    assert main(["--version"]) == 0
    assert main(["solve", "--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("rank", ["50", "0"])
def test_bench_rejects_impossible_rank(tmp_path, capsys, rank):
    out_dir = tmp_path / "b"
    rc = main([
        "bench", "--n", "20", "--gaps", "1.0", "--seeds", "1", "--rank", rank,
        "--out-dir", str(out_dir),
    ])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("error:") == 1 and "--rank" in err
    assert not list(out_dir.glob("trace_*.csv"))


@pytest.mark.parametrize(
    "flag, value, field",
    [("--max-iter", "-3", "max_iter"), ("--tol-res", "-1", "tol_res"), ("--tol-grad", "nan", "tol_grad")],
)
def test_solve_rejects_bad_config(small_problem, capsys, flag, value, field):
    assert main(["solve", str(small_problem), flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1 and field in captured.err


def test_solve_rejects_negative_oversample(small_problem, capsys):
    rc = main([
        "solve", str(small_problem), "--solver", "rcg", "--precond", "eigseed",
        "--rank", "4", "--oversample", "-3",
    ])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.count("error:") == 1 and "oversample" in captured.err


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--max-iter", "0"], "max_iter"),
        (["--gaps", ""], "gap"),
        (["--gaps=-1"], "gap"),
        (["--seeds", "0"], "seeds"),
        (["--n", "1"], "n must"),
        (["--gaps", "1,abc"], "--gaps"),
    ],
    ids=["max-iter", "empty-gaps", "negative-gap", "seeds", "n", "non-numeric-gap"],
)
def test_bench_rejects_bad_config(tmp_path, capsys, flags, field):
    out_dir = tmp_path / "b"
    rc = main([
        "bench", "--n", "20", "--gaps", "1.0", "--seeds", "1", "--solvers", "rgd",
        *flags, "--out-dir", str(out_dir),
    ])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.count("error:") == 1 and field in captured.err
    assert "run failed" not in captured.err
    assert not out_dir.exists()


def test_generate_rejects_vanishing_gap(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert main(["generate", "--n", "10", "--gap", "1e-30", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: gap")
    assert not out.exists()
