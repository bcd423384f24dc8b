"""Problem file serialization.

Schema: {"n": int, "A": {"kind": "dense"|"diagonal"|"eiglowrank", ...}, "b": array}.

Dense operators store the lower triangle in row-major order (n(n+1)/2
numbers); diagonal operators store the diagonal; eiglowrank operators
store the orthonormal factor U (row-major n x r), the eigenvalues d and
the scalar shift, representing U diag(d) U' + shift*I.

Every array field takes one of two forms.  ``save_problem`` and
``save_planted`` write the array's little-endian float64 bytes as one
base64 string (U flat, row-major), which reads back bit for bit and
decodes without parsing a decimal per entry.  A JSON list of numbers (U
as nested rows) is read too, for files written by hand.  Scalars (the
shift, and the planted sidecar's mu and residual_norm) are JSON numbers.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from typing import Union

import numpy as np

from .btrs import AffineEigenpair, BtrsProblem
from .linop import DenseOp, DiagonalOp, EigLowRankOp, SymOp


class ProblemFormatError(ValueError):
    """Malformed problem file; the message names the offending field."""


def _encode(arr: np.ndarray) -> str:
    """The array's little-endian float64 bytes, row-major, as base64."""
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _op_to_payload(a: SymOp) -> dict:
    if isinstance(a, DiagonalOp):
        return {"kind": "diagonal", "diag": _encode(a.diag)}
    if isinstance(a, EigLowRankOp):
        return {"kind": "eiglowrank", "u": _encode(a.u), "d": _encode(a.d), "shift": float(a.shift)}
    return {"kind": "dense", "tril": _encode(a.to_dense()[np.tri(a.dim, dtype=bool)])}


def _numbers(data: dict, name: str, shape: tuple, what: str) -> np.ndarray:
    """The field ``name`` of ``data`` as a writeable float64 array of
    ``shape`` (None matches any length), from a base64 string or a JSON
    list, or a ProblemFormatError that names the field."""
    try:
        value = data[name.rpartition(".")[2]]
        if isinstance(value, str):
            raw = base64.b64decode(value, validate=True)
            arr = np.frombuffer(raw, dtype="<f8").astype(float)  # ValueError unless 8 | len(raw)
            if None not in shape and arr.size == math.prod(shape):
                arr = arr.reshape(shape)
        else:
            arr = np.asarray(value, dtype=float)
    except KeyError:
        raise ProblemFormatError(f"field '{name}' is missing") from None
    except (TypeError, ValueError, binascii.Error) as exc:
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
        mat = np.empty((n, n))
        lower = np.tri(n, dtype=bool)
        mat[lower] = tril
        mat.T[lower] = tril
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
    return {"n": p.dim, "A": _op_to_payload(p.a), "b": _encode(p.b)}


def problem_from_dict(data: dict) -> BtrsProblem:
    if not isinstance(data, dict):
        raise ProblemFormatError("problem file must hold a JSON object")
    n = data.get("n")
    if not isinstance(n, int) or n < 1:
        raise ProblemFormatError("field 'n' must be a positive integer")
    b = _numbers(data, "b", (n,), "n numbers")
    return BtrsProblem(a=_op_from_payload(data.get("A"), n), b=b)


def _load_object(path) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ProblemFormatError("file must hold a JSON object")
    return data


def save_problem(p: BtrsProblem, path: Union[str, "object"]) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(problem_to_dict(p)))


def load_problem(path) -> BtrsProblem:
    return problem_from_dict(_load_object(path))


def save_planted(pair: AffineEigenpair, path) -> None:
    with open(path, "w") as fh:
        json.dump({"mu": pair.mu, "x": _encode(pair.x), "residual_norm": pair.residual_norm}, fh)


def load_planted(path) -> AffineEigenpair:
    data = _load_object(path)
    return AffineEigenpair(
        mu=float(_numbers(data, "mu", (), "a number")),
        x=_numbers(data, "x", (None,), "a list of numbers"),
        residual_norm=float(_numbers(data, "residual_norm", (), "a number")),
    )
