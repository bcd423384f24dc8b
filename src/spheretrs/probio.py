"""Problem file serialization.

Schema: {"n": int, "A": {"kind": "dense"|"diagonal"|"eiglowrank", ...}, "b": [floats]}.

Dense operators store the lower triangle in row-major order (n(n+1)/2
numbers); diagonal operators store the diagonal; eiglowrank operators
store the orthonormal factor U (row-major n x r), the eigenvalues d and
the scalar shift, representing U diag(d) U' + shift*I.
"""

from __future__ import annotations

import json
from typing import Union

import numpy as np

from .btrs import AffineEigenpair, BtrsProblem
from .linop import DenseOp, DiagonalOp, EigLowRankOp, SymOp


class ProblemFormatError(ValueError):
    """Malformed problem file; the message names the offending field."""


def _op_to_payload(a: SymOp) -> dict:
    if isinstance(a, DiagonalOp):
        return {"kind": "diagonal", "diag": a.diag.tolist()}
    if isinstance(a, EigLowRankOp):
        return {
            "kind": "eiglowrank",
            "u": a.u.tolist(),
            "d": a.d.tolist(),
            "shift": float(a.shift),
        }
    return {"kind": "dense", "tril": a.to_dense()[np.tril_indices(a.dim)].tolist()}


def _numbers(data: dict, name: str, shape: tuple, what: str) -> np.ndarray:
    """The field ``name`` of ``data`` as a float array of ``shape`` (None
    matches any length), or a ProblemFormatError that names the field."""
    try:
        arr = np.asarray(data[name.rpartition(".")[2]], dtype=float)
    except KeyError:
        raise ProblemFormatError(f"field '{name}' is missing") from None
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"field '{name}' must hold {what}: {exc}") from exc
    if arr.ndim != len(shape) or any(k not in (None, m) for k, m in zip(shape, arr.shape)):
        raise ProblemFormatError(f"field '{name}' must hold {what}")
    return arr


def _op_from_payload(payload: dict, n: int) -> SymOp:
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ProblemFormatError("field 'A' must be an object with a 'kind'")
    kind = payload["kind"]
    if kind == "dense":
        m = n * (n + 1) // 2
        tril = _numbers(payload, "A.tril", (m,), "n(n+1)/2 lower-triangle entries")
        mat = np.zeros((n, n))
        mat[np.tril_indices(n)] = tril
        mat = mat + np.tril(mat, -1).T
        return DenseOp(mat)
    if kind == "diagonal":
        return DiagonalOp(_numbers(payload, "A.diag", (n,), "n entries"))
    if kind == "eiglowrank":
        d = _numbers(payload, "A.d", (None,), "a list of numbers")
        u = _numbers(payload, "A.u", (n, d.shape[0]), "an n x len(d) matrix")
        shift = _numbers(payload, "A.shift", (), "a number")
        return EigLowRankOp(u, d, float(shift))
    raise ProblemFormatError(f"field 'A.kind' has unknown value {kind!r}")


def problem_to_dict(p: BtrsProblem) -> dict:
    return {"n": p.dim, "A": _op_to_payload(p.a), "b": p.b.tolist()}


def problem_from_dict(data: dict) -> BtrsProblem:
    if not isinstance(data, dict):
        raise ProblemFormatError("problem file must hold a JSON object")
    n = data.get("n")
    if not isinstance(n, int) or n < 1:
        raise ProblemFormatError("field 'n' must be a positive integer")
    b = _numbers(data, "b", (n,), "n numbers")
    return BtrsProblem(a=_op_from_payload(data.get("A"), n), b=b)


def save_problem(p: BtrsProblem, path: Union[str, "object"]) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(problem_to_dict(p)))


def load_problem(path) -> BtrsProblem:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"invalid JSON: {exc}") from exc
    return problem_from_dict(data)


def save_planted(pair: AffineEigenpair, path) -> None:
    with open(path, "w") as fh:
        json.dump(
            {
                "mu": pair.mu,
                "x": pair.x.tolist(),
                "residual_norm": pair.residual_norm,
            },
            fh,
        )


def load_planted(path) -> AffineEigenpair:
    with open(path) as fh:
        data = json.load(fh)
    return AffineEigenpair(
        mu=float(data["mu"]),
        x=np.asarray(data["x"], dtype=float),
        residual_norm=float(data["residual_norm"]),
    )
