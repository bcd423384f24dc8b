"""Matrix-free solvers for trust region subproblems on the unit sphere.

Minimize q(x) = 0.5 x'Ax + b'x subject to ||x|| = 1 (sphere) or
||x|| <= 1 (ball), through Riemannian first-order methods with optional
variable-metric preconditioning, plus a dense ground-truth oracle based
on the secular equation.
"""

__version__ = "1.0.0"

from .btrs import (
    EPS_HARD,
    AffineEigenpair,
    BtrsProblem,
    CaseInfo,
    affine_rayleigh,
    classify,
    in_SE,
    objective,
    residual,
)
from .eigmin import MinEigResult, min_eigpair
from .gen import GenSpec, generate
from .geometry import (
    LocalMetric,
    MetricScheme,
    SeededMetric,
    StandardMetric,
    hess_apply_stationary,
    kappa_bound,
    metric_inner,
    metric_matrix,
    project_tangent,
    retract,
    rgrad,
    tangent_basis,
    transport,
)
from .linop import (
    CallbackOp,
    DenseOp,
    DiagonalOp,
    DimensionMismatchError,
    EigLowRankOp,
    SymOp,
)
from .oracle import OracleReport, enumerate_affine_eigenvalues, global_solve
from .precond import (
    EigSeedPrecond,
    PhiFilter,
    Preconditioner,
    build_eig_seed,
    make_phi,
)
from .probio import (
    problem_from_dict,
    problem_to_dict,
    ProblemFormatError,
    load_planted,
    load_problem,
    save_planted,
    save_problem,
)
from .solvers import (
    SolveResult,
    SolverConfig,
    SolveTrace,
    double_start,
    haar_unit,
    lpr_solve,
    lpr_transform,
    naive_rgd,
    rcg,
    rgd,
)
from .trs import TrsResult, augment, solve_trs

__all__ = [
    "AffineEigenpair",
    "BtrsProblem",
    "CallbackOp",
    "CaseInfo",
    "DenseOp",
    "DiagonalOp",
    "DimensionMismatchError",
    "EPS_HARD",
    "EigLowRankOp",
    "EigSeedPrecond",
    "GenSpec",
    "LocalMetric",
    "MetricScheme",
    "MinEigResult",
    "OracleReport",
    "PhiFilter",
    "Preconditioner",
    "ProblemFormatError",
    "SeededMetric",
    "SolveResult",
    "SolveTrace",
    "SolverConfig",
    "StandardMetric",
    "SymOp",
    "TrsResult",
    "affine_rayleigh",
    "augment",
    "build_eig_seed",
    "classify",
    "double_start",
    "enumerate_affine_eigenvalues",
    "generate",
    "global_solve",
    "haar_unit",
    "hess_apply_stationary",
    "in_SE",
    "kappa_bound",
    "problem_from_dict",
    "problem_to_dict",
    "load_planted",
    "load_problem",
    "lpr_solve",
    "lpr_transform",
    "make_phi",
    "metric_matrix",
    "metric_inner",
    "min_eigpair",
    "naive_rgd",
    "objective",
    "project_tangent",
    "rcg",
    "residual",
    "retract",
    "rgd",
    "rgrad",
    "save_planted",
    "save_problem",
    "solve_trs",
    "tangent_basis",
    "transport",
]
