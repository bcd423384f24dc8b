"""Dense ground-truth solver: enumerate all affine eigenpairs of (A, b).

Working in the eigenbasis of A, the affine eigenvalues with eigenvector
component along b are the roots mu of

    s(mu) = sum_i beta_i^2 / (lambda_i - mu)^2 - 1 = 0,

where beta = Q'b.  Root structure: exactly one root below the smallest
pole and one above the largest, zero or two between consecutive poles
(one where s just touches 0).  Eigenvalues whose eigenspace is orthogonal
to b contribute extra pairs whenever the particular solution has norm at
most one.

Intentionally dense and slow-but-sure; this module is the verification
backbone for everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .btrs import EPS_HARD, AffineEigenpair, BtrsProblem, residual

_WEIGHT_TINY = 1e-24  # squared coefficient below which a pole is inactive

#: Largest dimension :func:`global_solve` accepts.
GLOBAL_SOLVE_LIMIT = 2000


@dataclass(frozen=True)
class OracleReport:
    lambda_: np.ndarray  # sorted eigenvalues of A
    affine_eigs: List[AffineEigenpair]  # sorted by mu
    global_: AffineEigenpair
    local_nonglobal: Optional[AffineEigenpair]
    mu_max: float
    case: str  # "easy" | "hard"
    min_eigvecs: List[np.ndarray]  # orthonormal basis of the minimal eigenspace


def _sign_change(f: Callable[[float], float], neg: float, pos: float) -> float:
    """Bisect to where f turns from <= 0 on the `neg` side to > 0 on the `pos` side.

    The ends may come in either order.  f is evaluated only strictly between
    them, so either end may be a pole.  Stops when the ends are adjacent
    floats and returns the one where |f| is smaller.
    """
    f_neg, f_pos = -np.inf, np.inf
    while True:
        mid = 0.5 * (neg + pos)
        if mid == neg or mid == pos:
            return neg if -f_neg <= f_pos else pos
        f_mid = f(mid)
        if f_mid <= 0.0:
            neg, f_neg = mid, f_mid
        else:
            pos, f_pos = mid, f_mid


def _cluster(lam: np.ndarray, tol: float) -> List[np.ndarray]:
    """Group sorted eigenvalues into clusters of near-equal values."""
    groups: List[List[int]] = [[0]]
    for i in range(1, lam.shape[0]):
        if lam[i] - lam[groups[-1][0]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return [np.asarray(g) for g in groups]


def _unit_pair(mu: float, x: np.ndarray, p: BtrsProblem) -> AffineEigenpair:
    """The pair (mu, x/||x||) with its residual ||mu x - A x - b||."""
    nrm = np.linalg.norm(x)
    if nrm > 0:
        x = x / nrm
    res = float(np.linalg.norm(residual(p, x, mu)))
    return AffineEigenpair(float(mu), x, res)


def enumerate_affine_eigenvalues(
    p: BtrsProblem,
    dense_limit: int = 500,
) -> OracleReport:
    """Full enumeration of affine eigenpairs plus the global solution."""
    n = p.dim
    if n > dense_limit:
        raise ValueError(f"oracle enumeration limited to n <= {dense_limit}")
    a_dense = p.a.to_dense()
    lam, q = np.linalg.eigh(a_dense)
    beta = q.T @ p.b

    clusters = _cluster(lam, 1e-10 * max(1.0, float(np.abs(lam).max())))
    c_lam = np.array([lam[g[0]] for g in clusters])
    c_w = np.array([float(np.sum(beta[g] ** 2)) for g in clusters])
    active = c_w > _WEIGHT_TINY * max(1.0, p.b_norm**2)

    pairs: List[AffineEigenpair] = []

    # Roots of the secular equation between/around the active poles.
    act_lam = c_lam[active]
    act_w = c_w[active]

    def s(mu: float) -> float:
        return float(np.sum(act_w / (act_lam - mu) ** 2) - 1.0)

    def s_prime(mu: float) -> float:
        return float(2.0 * np.sum(act_w / (act_lam - mu) ** 3))

    def add_root(mu: float) -> None:
        # A pole with beta_i = 0 adds no component, even where mu meets it.
        coeffs = np.divide(beta, mu - lam, out=np.zeros_like(beta), where=beta != 0.0)
        pairs.append(_unit_pair(mu, q @ coeffs, p))

    if act_lam.size > 0:
        # s <= W/d^2 - 1 < 0 at distance d > sqrt(W) from every pole, so
        # each outer bracket holds exactly one root.
        reach = np.sqrt(float(np.sum(act_w))) + 1.0
        add_root(_sign_change(s, act_lam[0] - reach, act_lam[0]))

        # Zero or two roots between consecutive active poles.  The two pole
        # terms alone bound s from below; skip intervals where that bound
        # is positive.  Otherwise s is convex there and its minimizer is the
        # sign change of s', which runs from -inf to +inf.
        cube = np.cbrt(act_w)
        lower = (cube[:-1] + cube[1:]) ** 3 / np.diff(act_lam) ** 2 - 1.0
        for i in np.flatnonzero(lower <= 0.0):
            left, right = float(act_lam[i]), float(act_lam[i + 1])
            m_at = _sign_change(s_prime, left, right)
            m_val = s(m_at)
            if m_val < 0.0:
                add_root(_sign_change(s, m_at, left))
                add_root(_sign_change(s, m_at, right))
            elif m_val == 0.0:
                add_root(m_at)

        add_root(_sign_change(s, act_lam[-1] + reach, act_lam[-1]))

    # Eigenvalues whose eigenspace is orthogonal to b: mu = lambda_j is an
    # affine eigenvalue when the particular solution has norm <= 1; the
    # eigenvector gains a free component inside the eigenspace.
    for j, g in enumerate(clusters):
        if active[j]:
            continue
        mu = c_lam[j]
        others = np.abs(lam - mu) > 1e-10 * max(1.0, float(np.abs(lam).max()))
        denom = lam[others] - mu
        part_coeff = -beta[others] / denom
        part_norm_sq = float(np.sum(part_coeff**2))
        if part_norm_sq <= 1.0 + 1e-14:
            gap_comp = np.sqrt(max(0.0, 1.0 - part_norm_sq))
            x = q[:, others] @ part_coeff + gap_comp * q[:, g[0]]
            pairs.append(_unit_pair(mu, x, p))

    if not pairs:
        raise RuntimeError("no affine eigenpairs found; inconsistent problem")

    pairs.sort(key=lambda pr: pr.mu)
    mu_max = pairs[-1].mu
    global_pair = pairs[0]

    # Minimal eigenspace and case classification.
    g0 = clusters[0]
    min_vecs = [q[:, j].copy() for j in g0]
    alpha = float(np.linalg.norm(beta[g0]))
    case = "easy" if alpha > EPS_HARD * max(1.0, p.b_norm) else "hard"

    local_ng = None
    if len(pairs) > 1:
        cand = pairs[1]
        lam2 = c_lam[1] if len(clusters) > 1 else np.inf
        if lam[0] < cand.mu < lam2:
            local_ng = cand

    return OracleReport(
        lambda_=lam,
        affine_eigs=pairs,
        global_=global_pair,
        local_nonglobal=local_ng,
        mu_max=float(mu_max),
        case=case,
        min_eigvecs=min_vecs,
    )


def global_solve(p: BtrsProblem) -> AffineEigenpair:
    """The global minimizer (smallest affine eigenvalue); dense, n <= 2000."""
    return enumerate_affine_eigenvalues(p, dense_limit=GLOBAL_SOLVE_LIMIT).global_
