import base64
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


def decode(field):
    return np.frombuffer(base64.b64decode(field, validate=True), dtype="<f8")


def same_bits(x, y):
    """Equal shapes and bytes: array_equal takes -0.0 for 0.0."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _eiglowrank_problem():
    rng = np.random.default_rng(1)
    u, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    op = EigLowRankOp(u, np.array([1.0, -0.0, 3.0]), shift=-0.5)
    return BtrsProblem(a=op, b=rng.standard_normal(8))


def _planted():
    return AffineEigenpair(mu=-1.25, x=np.array([0.6, -0.0, 0.8]), residual_norm=1e-12)


def test_dense_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((6, 6))
    m[0, 0] = m[4, 1] = m[1, 4] = -0.0
    p = BtrsProblem(a=DenseOp((m + m.T) / 2), b=np.r_[-0.0, rng.standard_normal(5)])
    p2 = roundtrip(p, tmp_path)
    assert same_bits(p2.a.to_dense(), p.a.to_dense())
    assert same_bits(p2.b, p.b)
    # The lower triangle row by row, each entry once, read back exactly.
    a = p.a.to_dense()
    tril = [float(a[i, j]) for i in range(6) for j in range(i + 1)]
    assert same_bits(decode(problem_to_dict(p)["A"]["tril"]), tril)


def test_diagonal_roundtrip(tmp_path):
    a = DiagonalOp(np.array([1.0, -2.0, -0.0, 3.5]))
    p = BtrsProblem(a=a, b=np.array([0.1, 0.0, -0.0, 1e-300]))
    p2 = roundtrip(p, tmp_path)
    assert isinstance(p2.a, DiagonalOp)
    assert same_bits(p2.a.diag, p.a.diag) and same_bits(p2.b, p.b)


def test_eiglowrank_roundtrip(tmp_path):
    p = _eiglowrank_problem()
    p2 = roundtrip(p, tmp_path)
    assert isinstance(p2.a, EigLowRankOp)
    assert same_bits(p2.a.u, p.a.u) and same_bits(p2.a.d, p.a.d)
    assert p2.a.shift == p.a.shift and same_bits(p2.b, p.b)


def test_planted_roundtrip(tmp_path):
    pair = _planted()
    path = tmp_path / "pl.json"
    save_planted(pair, path)
    pair2 = load_planted(path)
    assert pair2.mu == pair.mu and pair2.residual_norm == pair.residual_norm
    assert same_bits(pair2.x, pair.x)


def test_loaded_arrays_are_writeable_float64(tmp_path):
    p = roundtrip(_eiglowrank_problem(), tmp_path)
    for arr in (p.a.u, p.a.d, p.b):
        assert arr.dtype == np.float64 and arr.dtype.isnative and arr.flags.writeable


def test_list_form_still_loads(tmp_path):
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 4))
    dense = BtrsProblem(a=DenseOp((m + m.T) / 2), b=rng.standard_normal(4))
    a = dense.a.to_dense()
    diagonal = BtrsProblem(a=DiagonalOp(np.array([1.0, -2.0, 3.5])), b=np.array([0.5, 0.0, -1.0]))
    low = _eiglowrank_problem()
    payloads = (
        {"kind": "dense", "tril": a[np.tril_indices(4)].tolist()},
        {"kind": "diagonal", "diag": diagonal.a.diag.tolist()},
        {"kind": "eiglowrank", "u": low.a.u.tolist(), "d": low.a.d.tolist(), "shift": low.a.shift},
    )
    for p, payload in zip((dense, diagonal, low), payloads):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": p.dim, "A": payload, "b": p.b.tolist()}))
        p2 = load_problem(path)
        assert type(p2.a) is type(p.a)
        assert same_bits(p2.a.to_dense(), p.a.to_dense()) and same_bits(p2.b, p.b)

    pair = _planted()
    path = tmp_path / "pl.json"
    listed = {"mu": pair.mu, "x": pair.x.tolist(), "residual_norm": pair.residual_norm}
    path.write_text(json.dumps(listed))
    pair2 = load_planted(path)
    assert pair2.mu == pair.mu and same_bits(pair2.x, pair.x)


def test_malformed_base64_names_the_field():
    good = problem_to_dict(_eiglowrank_problem())
    twelve_bytes = base64.b64encode(bytes(12)).decode("ascii")
    nine_floats = base64.b64encode(np.zeros(9).tobytes()).decode("ascii")
    for field, value in (
        ("b", "not base64!"),
        ("b", twelve_bytes),
        ("b", nine_floats),
        ("A.u", "@@@@"),
        ("A.u", twelve_bytes),
        ("A.u", nine_floats),
        ("A.d", twelve_bytes),
    ):
        bad = json.loads(json.dumps(good))
        if field == "b":
            bad["b"] = value
        else:
            bad["A"][field[2:]] = value
        with pytest.raises(ProblemFormatError, match=re.escape(f"'{field}'")):
            problem_from_dict(bad)

    dense = problem_to_dict(BtrsProblem(a=DenseOp(np.eye(3)), b=np.zeros(3)))
    dense["A"]["tril"] = base64.b64encode(np.zeros(5).tobytes()).decode("ascii")
    with pytest.raises(ProblemFormatError, match="'A.tril'"):
        problem_from_dict(dense)


def test_malformed_planted_names_the_field(tmp_path):
    pair = _planted()
    x = base64.b64encode(pair.x.tobytes()).decode("ascii")
    good = {"mu": pair.mu, "x": x, "residual_norm": 0.0}
    path = tmp_path / "pl.json"
    path.write_text(json.dumps(good))
    assert same_bits(load_planted(path).x, pair.x)
    for field, value in (
        ("mu", None),
        ("mu", "x"),
        ("x", None),
        ("x", "%%%"),
        ("x", [[1.0]]),
        ("residual_norm", None),
        ("residual_norm", [1.0]),
    ):
        bad = dict(good)
        if value is None:
            del bad[field]
        else:
            bad[field] = value
        path.write_text(json.dumps(bad))
        with pytest.raises(ProblemFormatError, match=f"'{field}'"):
            load_planted(path)
    path.write_text("[1.0]")
    with pytest.raises(ProblemFormatError):
        load_planted(path)


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
