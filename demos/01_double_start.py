"""Globally solving the sphere-constrained quadratic with two cold starts.

The problem is min 0.5*x'Ax + b'x over the unit sphere.  Every stationary
point is an affine eigenvector (Ax + b = mu*x with ||x|| = 1), and the
global minimizer is the one with the smallest mu.  Gradient descent from
x0 = -b/||b|| finds it whenever some bottom eigenvector of A overlaps b
(the easy case); a random start covers the remaining hard case.  Running
both and keeping the better objective is therefore globally correct.

A stationary point is global exactly when mu <= lambda_min(A).  So when the
first run converges, double_start runs one eigensolve from a random block:
if it certifies mu below lambda_min, the first run is returned and the
random start is skipped; if it refutes that, the random start runs.
"""

import numpy as np

from spheretrs import (
    GenSpec,
    SolverConfig,
    double_start,
    enumerate_affine_eigenvalues,
    generate,
    objective,
)

# An easy instance: the gap lambda_1(A) - mu_star is large, so the bottom
# eigenspace of A sees b and the deterministic start suffices.  The
# eigensolve certifies it, so the trace holds a single cold start.
p_easy, planted = generate(GenSpec(n=40, gap=2.0, seed=0))
res = double_start(p_easy, SolverConfig(rng_seed=0))
print("easy case:")
print("  planted optimum   q =", objective(p_easy, planted.x))
print("  double start      q =", res.q, f"({res.status})")
print("  cold start markers  :", res.trace.markers)

# A hard instance: b is orthogonal to the bottom eigenspace.  The start
# -b/||b|| is then trapped away from the optimum, with mu above
# lambda_min; the eigensolve refutes it, and only the random start reaches
# the optimum.  The trace marks each cold start so both runs are visible
# in one record.
p_hard, planted = generate(GenSpec(n=40, gap=0.0, seed=1))
rep = enumerate_affine_eigenvalues(p_hard)
res = double_start(p_hard, SolverConfig(rng_seed=1))
print("hard case:")
print("  oracle optimum    q =", objective(p_hard, rep.global_.x))
print("  double start      q =", res.q, f"({res.status})")
print("  cold start markers  :", res.trace.markers[:2], "...")

# The dense oracle enumerates every affine eigenvalue, so the solver's
# multiplier mu can be matched against the full list.
mus = np.array([pair.mu for pair in rep.affine_eigs])
print("  affine eigenvalues  :", np.round(mus[:4], 4), "...")
print("  solver mu           :", res.mu)
