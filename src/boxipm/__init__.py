"""boxipm: numerically stable short-step interior-point solver for
box-constrained convex quadratic programs.

The target problem minimizes q(x) = 0.5 x'Qx + c'x over ||x||_inf <= 1
subject to ||Ax - b||_2 attaining its box-minimal value, so infeasible
equality constraints are handled as interior least-squares problems.
Standard-form CQPs (equality constraints, nonnegative variables) map onto
the box form through an affine rescaling; see :func:`solve_standard`.
"""

from .errors import (
    BoxIpmError,
    BracketFailed,
    DimensionError,
    InvalidProblem,
    IterationBudgetExceeded,
    OutOfDomain,
    ParamOverflow,
    ParseError,
    PiCapExceeded,
    PrimalInitFailed,
    SingularSystem,
    StepRejected,
    TooLarge,
)
from .kkt import Iterate, Residual
from .oracle import OracleSolution, oracle_min_residual, oracle_min_box, oracle_solve_boxqp
from .params import MethodParams, compute_params, compute_params_practical, validate_params
from .probfile import ProblemFile, parse_problem, serialize_problem
from .problem import (
    BoxQP,
    StandardQP,
    eval_q,
    grow_pi_schedule,
    problem_factor,
    transform_standard,
)
from .solver import (
    SolveReport,
    StandardReport,
    TraceEntry,
    solve,
    solve_standard,
)

__version__ = "0.1.0"

__all__ = [
    "BoxIpmError", "BracketFailed", "DimensionError", "InvalidProblem",
    "IterationBudgetExceeded", "OutOfDomain", "ParamOverflow", "ParseError",
    "PiCapExceeded", "PrimalInitFailed", "SingularSystem", "StepRejected",
    "TooLarge",
    "Iterate", "Residual",
    "OracleSolution", "oracle_min_residual", "oracle_min_box", "oracle_solve_boxqp",
    "MethodParams", "compute_params", "compute_params_practical", "validate_params",
    "ProblemFile", "parse_problem", "serialize_problem",
    "BoxQP", "StandardQP", "eval_q", "grow_pi_schedule",
    "problem_factor", "transform_standard",
    "SolveReport", "StandardReport", "TraceEntry", "solve", "solve_standard",
    "__version__",
]
