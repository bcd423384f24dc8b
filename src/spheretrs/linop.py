"""Symmetric linear operators accessed only through matrix-vector products.

Every algorithm in this package touches the quadratic-term matrix A through
the :class:`SymOp` interface, so dense, diagonal, low-rank and fully opaque
(callback) representations are interchangeable.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.linalg.blas import dsymv


class DimensionMismatchError(ValueError):
    """Vector length does not match the operator dimension."""


def _as_vector(v, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise DimensionMismatchError(
            f"expected vector of length {n}, got shape {v.shape}"
        )
    return v


def require_finite(name: str, value) -> None:
    """Reject NaN or infinite entries in input ``name`` before any use."""
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} has non-finite entries")


def require_int(name: str, value, least: int) -> None:
    """Reject an input ``name`` that is not an integer >= ``least``; a bool
    is not taken for an integer."""
    ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (ok and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


class SymOp:
    """Abstract symmetric linear operator on R^n.

    Immutable after construction; ``apply`` allocates its output and keeps
    no hidden state, so instances are safe to share across threads.  No
    norm estimate: nothing in the package probes for ||A||.
    """

    dim: int

    def __init__(self, dim: int):
        require_int("dim", dim, 1)
        self.dim = int(dim)

    def _matvec(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply(self, v) -> np.ndarray:
        """Return A v."""
        v = _as_vector(v, self.dim)
        return self._matvec(v)

    def apply_block(self, v) -> np.ndarray:
        """Return A V, one application of A per column of the n-by-k V."""
        v = np.asarray(v, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"expected a block with {self.dim} rows, got shape {v.shape}"
            )
        out = np.empty(v.shape)
        for j in range(v.shape[1]):
            out[:, j] = self.apply(v[:, j])
        return out

    def to_dense(self) -> np.ndarray:
        """Materialize the operator as a dense symmetric array.

        Intended for diagnostics and oracles only; cost is n applies for
        representations without explicit storage.
        """
        out = self.apply_block(np.eye(self.dim))
        return 0.5 * (out + out.T)


class DenseOp(SymOp):
    """Dense symmetric matrix; symmetrized as (X + X^T)/2 at construction.

    ``matrix`` keeps the full, bitwise-symmetric array for ``to_dense`` and
    the problem files.  ``apply`` is one BLAS ``dsymv`` on its transpose, a
    Fortran-order view with no copy, so each product reads one triangle
    (half the memory traffic of a general matrix-vector product).
    """

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("dense operator requires a square matrix")
        require_finite("matrix", matrix)
        sym = 0.5 * (matrix + matrix.T)
        denom = max(np.linalg.norm(matrix, "fro"), 1e-300)
        if np.linalg.norm(matrix - sym, "fro") / denom > 1e-12:
            raise ValueError("matrix is not symmetric to relative tolerance 1e-12")
        super().__init__(matrix.shape[0])
        self.matrix = sym

    def _matvec(self, v):
        return dsymv(1.0, self.matrix.T, v)

    def to_dense(self):
        return self.matrix.copy()


class DiagonalOp(SymOp):
    """Diagonal operator stored as its length-n diagonal."""

    def __init__(self, diag):
        diag = np.asarray(diag, dtype=float)
        if diag.ndim != 1:
            raise ValueError(f"diag must be a vector, got shape {diag.shape}")
        require_finite("diag", diag)
        super().__init__(diag.shape[0])
        self.diag = diag

    def _matvec(self, v):
        return self.diag * v

    def to_dense(self):
        return np.diag(self.diag)


class EigLowRankOp(SymOp):
    """U diag(d) U^T + sigma*I with orthonormal n-by-r factor U."""

    def __init__(self, u, d, shift: float = 0.0):
        u = np.asarray(u, dtype=float)
        d = np.asarray(d, dtype=float)
        if u.ndim != 2 or d.ndim != 1 or u.shape[1] != d.shape[0]:
            raise ValueError("factor U must be n-by-r with r eigenvalues")
        require_finite("u", u)
        require_finite("d", d)
        require_finite("shift", shift)
        r = u.shape[1]
        if np.linalg.norm(u.T @ u - np.eye(r), "fro") > 1e-10:
            raise ValueError("factor U is not orthonormal (||U^T U - I|| > 1e-10)")
        super().__init__(u.shape[0])
        self.u = u
        self.d = d
        self.shift = float(shift)

    def _matvec(self, v):
        return self.u @ (self.d * (self.u.T @ v)) + self.shift * v

    def to_dense(self):
        return (self.u * self.d) @ self.u.T + self.shift * np.eye(self.dim)


class CallbackOp(SymOp):
    """Opaque matrix-free operator defined by an apply function."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], dim: int):
        super().__init__(dim)
        self._fn = fn

    def _matvec(self, v):
        out = np.asarray(self._fn(v), dtype=float)
        if out.shape != (self.dim,):
            raise DimensionMismatchError(
                f"callback output must have shape {(self.dim,)}, got {out.shape}"
            )
        return out

