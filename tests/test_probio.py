import json
import re
from pathlib import Path

import numpy as np
import pytest

from spheretrs import (
    AffineEigenpair,
    BtrsProblem,
    DenseOp,
    DiagonalOp,
    EigLowRankOp,
    ProblemFormatError,
    load_planted,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_planted,
    save_problem,
)


def roundtrip(p, tmp_path):
    path = tmp_path / "p.json"
    save_problem(p, path)
    return load_problem(path)


def test_dense_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((6, 6))
    p = BtrsProblem(a=DenseOp((m + m.T) / 2), b=rng.standard_normal(6))
    p2 = roundtrip(p, tmp_path)
    assert np.allclose(p.a.to_dense(), p2.a.to_dense())
    assert np.allclose(p.b, p2.b)
    # The lower triangle row by row, each entry once, read back exactly.
    a = p.a.to_dense()
    tril = [float(a[i, j]) for i in range(6) for j in range(i + 1)]
    assert problem_to_dict(p)["A"]["tril"] == tril
    assert np.array_equal(p2.a.to_dense(), a)


def test_diagonal_roundtrip(tmp_path):
    p = BtrsProblem(a=DiagonalOp(np.array([1.0, -2.0, 3.5])), b=np.zeros(3))
    p2 = roundtrip(p, tmp_path)
    assert isinstance(p2.a, DiagonalOp)
    assert np.allclose(p.a.to_dense(), p2.a.to_dense())


def test_eiglowrank_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    u, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    op = EigLowRankOp(u, np.array([1.0, 2.0, 3.0]), shift=-0.5)
    p = BtrsProblem(a=op, b=rng.standard_normal(8))
    p2 = roundtrip(p, tmp_path)
    assert isinstance(p2.a, EigLowRankOp)
    assert np.allclose(p.a.to_dense(), p2.a.to_dense())


def test_planted_roundtrip(tmp_path):
    x = np.array([0.6, 0.8])
    pair = AffineEigenpair(mu=-1.25, x=x, residual_norm=1e-12)
    path = tmp_path / "pl.json"
    save_planted(pair, path)
    pair2 = load_planted(path)
    assert pair2.mu == pair.mu
    assert np.allclose(pair2.x, pair.x)


def test_malformed_inputs_name_the_field():
    good = problem_to_dict(BtrsProblem(a=DiagonalOp(np.ones(2)), b=np.zeros(2)))

    bad = dict(good)
    del bad["b"]
    with pytest.raises(ProblemFormatError, match="b"):
        problem_from_dict(bad)

    bad = dict(good)
    bad["n"] = "two"
    with pytest.raises(ProblemFormatError, match="n"):
        problem_from_dict(bad)

    bad = dict(good)
    bad["A"] = {"kind": "mystery"}
    with pytest.raises(ProblemFormatError, match="kind"):
        problem_from_dict(bad)

    bad = dict(good)
    bad["b"] = [1.0, 2.0, 3.0]
    with pytest.raises(ProblemFormatError):
        problem_from_dict(bad)

    for value in (3, ["x", 1]):
        bad = dict(good)
        bad["b"] = value
        with pytest.raises(ProblemFormatError, match="'b'"):
            problem_from_dict(bad)


def test_missing_file_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_problem(tmp_path / "nope.json")


def test_readme_schema_example_loads():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    p = problem_from_dict(json.loads(block))
    assert p.dim == 3
    a = p.a.to_dense()
    assert np.array_equal(a, a.T) and a[2, 1] == 0.3
