"""Solving the ball-constrained problem through the sphere solver.

min 0.5*x'Ax + b'x over ||x|| <= 1 either has an interior solution (A
positive definite with ||A^{-1}b|| < 1) or its solution sits on the
boundary.  Appending a zero row and column to A and a zero entry to b
embeds the ball problem into a sphere problem one dimension up, so the
boundary machinery covers the interior case too.  The "decide" strategy
instead tries the interior directly and only falls back when needed.
"""

import numpy as np

from spheretrs import (
    BtrsProblem,
    DiagonalOp,
    augment,
    classify,
    min_eigpair,
    solve_trs,
)

# Interior optimum: A = diag(2,2) is positive definite and -A^{-1}b is
# strictly inside the ball.
p = BtrsProblem(a=DiagonalOp(np.array([2.0, 2.0])), b=np.array([0.5, 0.0]))
res = solve_trs(p, strategy="decide")
print("interior case :", res.x, "route:", res.route)

# Boundary optimum: same A, larger b pushes the unconstrained minimizer
# outside the ball.
p = BtrsProblem(a=DiagonalOp(np.array([2.0, 2.0])), b=np.array([4.0, 0.0]))
res = solve_trs(p, strategy="decide")
print("boundary case :", res.x, "route:", res.route)

# The always-augment strategy lifts every instance.  solve_trs runs its
# eigensolve from b; at n = 2 it ends after one step, so the lift's
# lpr_solve opens at the optimum projected onto that Krylov space (the
# banded kernel's answer) and reports the lift's case.  For positive
# definite A the lifted problem is a hard-case sphere problem whose minimal
# eigenvector is e_1.  On a larger problem the certified stop can end the
# eigensolve early and return a boundary answer that no classification
# produced: its case is None.
res = solve_trs(p, strategy="always_augment")
print("lifted        :", res.x, "route:", res.route, "case:", res.case_kind)

p_hat = augment(p)
case = classify(p_hat, min_eigpair(p_hat.a))
print("lifted case   :", case.kind, "(lambda_min:", case.lambda_min, ")")
