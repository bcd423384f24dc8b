"""Dense ground-truth solver: enumerate all affine eigenpairs of (A, b).

Working in the eigenbasis of A, the affine eigenvalues with eigenvector
component along b are the roots mu of

    s(mu) = sum_i beta_i^2 / (lambda_i - mu)^2 - 1 = 0,

where beta = Q'b.  Root structure: at most one root below the smallest
pole, at most two between consecutive poles, exactly one above the largest
pole.  Eigenvalues whose eigenspace is orthogonal to b contribute extra
pairs whenever the particular solution has norm at most one.

Intentionally dense and slow-but-sure; this module is the verification
backbone for everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.optimize

from .btrs import EPS_HARD, AffineEigenpair, BtrsProblem

_WEIGHT_TINY = 1e-24  # squared coefficient below which a pole is inactive


@dataclass(frozen=True)
class OracleReport:
    lambda_: np.ndarray  # sorted eigenvalues of A
    affine_eigs: List[AffineEigenpair]  # sorted by mu
    global_: AffineEigenpair
    local_nonglobal: Optional[AffineEigenpair]
    mu_max: float
    case: str  # "easy" | "hard"
    min_eigvecs: List[np.ndarray]  # orthonormal basis of the minimal eigenspace


def _secular(mu: float, lam: np.ndarray, w: np.ndarray) -> float:
    return float(np.sum(w / (lam - mu) ** 2) - 1.0)


def _secular_prime(mu: float, lam: np.ndarray, w: np.ndarray) -> float:
    return float(2.0 * np.sum(w / (lam - mu) ** 3))


def _refine_root(lo: float, hi: float, lam: np.ndarray, w: np.ndarray) -> float:
    """Safeguarded bisection followed by Newton polish on s(mu) = 0.

    Requires sign(s(lo)) != sign(s(hi)); the endpoints may arrive in
    either order.
    """
    if lo > hi:
        lo, hi = hi, lo
    f_lo = _secular(lo, lam, w)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = _secular(mid, lam, w)
        if f_mid == 0.0:
            lo = hi = mid
            break
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, abs(lo), abs(hi)):
            break
    mu = 0.5 * (lo + hi)
    for _ in range(20):
        f = _secular(mu, lam, w)
        fp = _secular_prime(mu, lam, w)
        if fp == 0.0:
            break
        step = f / fp
        nxt = mu - step
        if not (lo <= nxt <= hi):
            break
        mu = nxt
        if abs(step) <= 1e-16 * max(1.0, abs(mu)):
            break
    return mu


def _cluster(lam: np.ndarray, tol: float) -> List[np.ndarray]:
    """Group sorted eigenvalues into clusters of near-equal values."""
    groups: List[List[int]] = [[0]]
    for i in range(1, lam.shape[0]):
        if lam[i] - lam[groups[-1][0]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return [np.asarray(g) for g in groups]


def _pair_from_root(
    mu: float, lam: np.ndarray, beta: np.ndarray, q: np.ndarray, p: BtrsProblem
) -> AffineEigenpair:
    coeffs = -beta / (lam - mu)
    x = q @ coeffs
    nrm = np.linalg.norm(x)
    if nrm > 0:
        x = x / nrm
    res = float(np.linalg.norm(mu * x - p.a.apply(x) - p.b))
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

    spread = max(float(lam[-1] - lam[0]), 1.0)
    clusters = _cluster(lam, 1e-10 * max(1.0, float(np.abs(lam).max())))
    c_lam = np.array([lam[g[0]] for g in clusters])
    c_w = np.array([float(np.sum(beta[g] ** 2)) for g in clusters])
    active = c_w > _WEIGHT_TINY * max(1.0, p.b_norm**2)

    pairs: List[AffineEigenpair] = []

    # Roots of the secular equation between/around the active poles.
    act_lam = c_lam[active]
    act_w = c_w[active]
    if act_lam.size > 0:
        total_w = float(np.sum(act_w))

        def eval_edge(pole: float, side: int) -> float:
            # Offset from a pole at which s is safely positive.
            delta = 1e-12 * spread
            while _secular(pole + side * delta, act_lam, act_w) <= 0:
                delta *= 4.0
                if delta > spread:
                    break
            return pole + side * delta

        # One root below the smallest active pole.
        hi = eval_edge(act_lam[0], -1)
        lo = act_lam[0] - np.sqrt(total_w) - 1.0
        while _secular(lo, act_lam, act_w) >= 0:
            lo -= spread + 1.0
        if _secular(hi, act_lam, act_w) > 0:
            mu = _refine_root(lo, hi, act_lam, act_w)
            pairs.append(_pair_from_root(mu, lam, beta, q, p))

        # Zero or two roots between consecutive active poles.
        for i in range(act_lam.size - 1):
            left = eval_edge(act_lam[i], +1)
            right = eval_edge(act_lam[i + 1], -1)
            if left >= right:
                continue
            # s -> +inf at both poles; find the interior minimum, then
            # bracket a root on each side if the minimum dips below zero.
            res = scipy.optimize.minimize_scalar(
                lambda mu: _secular(mu, act_lam, act_w),
                bounds=(left, right),
                method="bounded",
                options={"xatol": 1e-14 * max(1.0, spread)},
            )
            m_at, m_val = float(res.x), float(res.fun)
            if m_val < 0.0:
                mu1 = _refine_root(m_at, left, act_lam, act_w)  # descending side
                mu2 = _refine_root(m_at, right, act_lam, act_w)
                pairs.append(_pair_from_root(mu1, lam, beta, q, p))
                pairs.append(_pair_from_root(mu2, lam, beta, q, p))
            elif m_val == 0.0:
                pairs.append(_pair_from_root(m_at, lam, beta, q, p))

        # Exactly one root above the largest active pole.
        lo = eval_edge(act_lam[-1], +1)
        hi = act_lam[-1] + np.sqrt(total_w) + 1.0
        while _secular(hi, act_lam, act_w) >= 0:
            hi += spread + 1.0
        if _secular(lo, act_lam, act_w) > 0:
            mu = _refine_root(lo, hi, act_lam, act_w)
            pairs.append(_pair_from_root(mu, lam, beta, q, p))

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
            nrm = np.linalg.norm(x)
            if nrm > 0:
                x = x / nrm
            res = float(np.linalg.norm(mu * x - p.a.apply(x) - p.b))
            pairs.append(AffineEigenpair(float(mu), x, res))

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


def global_solve(p: BtrsProblem, dense_limit: int = 2000) -> AffineEigenpair:
    """The global minimizer as an affine eigenpair (smallest affine eigenvalue)."""
    return enumerate_affine_eigenvalues(p, dense_limit=dense_limit).global_
