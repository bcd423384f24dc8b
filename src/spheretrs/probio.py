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


def _op_from_payload(payload: dict, n: int) -> SymOp:
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ProblemFormatError("field 'A' must be an object with a 'kind'")
    kind = payload["kind"]
    if kind == "dense":
        tril = payload.get("tril")
        if tril is None or len(tril) != n * (n + 1) // 2:
            raise ProblemFormatError(
                "field 'A.tril' must hold n(n+1)/2 lower-triangle entries"
            )
        mat = np.zeros((n, n))
        mat[np.tril_indices(n)] = tril
        mat = mat + np.tril(mat, -1).T
        return DenseOp(mat)
    if kind == "diagonal":
        diag = payload.get("diag")
        if diag is None or len(diag) != n:
            raise ProblemFormatError("field 'A.diag' must hold n entries")
        return DiagonalOp(np.asarray(diag, dtype=float))
    if kind == "eiglowrank":
        try:
            u = np.asarray(payload["u"], dtype=float)
            d = np.asarray(payload["d"], dtype=float)
            shift = float(payload["shift"])
        except KeyError as exc:
            raise ProblemFormatError(f"field 'A.{exc.args[0]}' is missing") from exc
        if u.ndim != 2 or u.shape[0] != n or u.shape[1] != d.shape[0]:
            raise ProblemFormatError("field 'A.u' must be n x len(d)")
        return EigLowRankOp(u, d, shift)
    raise ProblemFormatError(f"field 'A.kind' has unknown value {kind!r}")


def problem_to_dict(p: BtrsProblem) -> dict:
    return {"n": p.dim, "A": _op_to_payload(p.a), "b": p.b.tolist()}


def problem_from_dict(data: dict) -> BtrsProblem:
    if not isinstance(data, dict):
        raise ProblemFormatError("problem file must hold a JSON object")
    n = data.get("n")
    if not isinstance(n, int) or n < 1:
        raise ProblemFormatError("field 'n' must be a positive integer")
    b = data.get("b")
    if b is None or len(b) != n:
        raise ProblemFormatError("field 'b' must hold n numbers")
    a = _op_from_payload(data.get("A"), n)
    return BtrsProblem(a=a, b=np.asarray(b, dtype=float))


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
