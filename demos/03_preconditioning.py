"""Variable-metric preconditioning on an almost-hard instance.

As the gap lambda_1(A) - mu_star shrinks, the Riemannian Hessian at the
optimum becomes ill conditioned and first-order methods slow down.  The
cure is a variable metric M_x = M + phi(-mu_x) I, where M is a fixed
low-rank sketch of A and phi is a smooth positive filter; the whitened
Hessian spectrum then clusters and conjugate gradient converges in a few
iterations regardless of the gap.
"""

import numpy as np

from spheretrs import (
    GenSpec,
    SeededMetric,
    SolverConfig,
    StandardMetric,
    build_eig_seed,
    generate,
    kappa_bound,
    make_phi,
    objective,
    rcg,
)

# The conditioning bound explodes as the gap closes ...
print("condition number bound at the optimum (identity metric):")
for gap in (1.0, 1e-2, 1e-4, 1e-6):
    p, planted = generate(GenSpec(n=40, gap=gap, seed=0))
    kappa = kappa_bound(StandardMetric(), p, planted.x, planted.mu)
    print(f"  gap {gap:8.0e}  kappa <= {kappa:10.3e}")

# ... so compare plain and preconditioned conjugate gradient on a large
# almost-hard instance (gap 1e-8, spectrum mixing equispaced signal with
# a tight noise cluster).
p, planted = generate(GenSpec(n=500, gap=1e-8, seed=0))
q_star = objective(p, planted.x)
x0 = -p.b / p.b_norm
cfg = SolverConfig(rng_seed=0)

plain = rcg(StandardMetric(), p, x0, cfg)

pre = build_eig_seed(p.a, rank=50, seed=0)
metric = SeededMetric(pre, make_phi(pre, p))
prc = rcg(metric, p, x0, cfg)


def iters_to(trace, tol=1e-6):
    scale = max(1.0, abs(q_star))
    for i, qv in enumerate(trace.q):
        if abs(qv - q_star) / scale <= tol:
            return i
    return None


print("iterations to relative objective error 1e-6 (n=500, gap 1e-8):")
print("  plain RCG          :", iters_to(plain.trace), f"(total {len(plain.trace.q)})")
print("  preconditioned RCG :", iters_to(prc.trace), f"(total {len(prc.trace.q)})")
