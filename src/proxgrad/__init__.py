"""Composite-optimization solver: backtracking proximal gradient methods that
need no Lipschitz constants, with oracle libraries, trace diagnostics, and a
CLI for reproducible desk-scale experiments."""

from .core import (
    CompositeProblem,
    ProxOracle,
    SmoothOracle,
    as_vector,
    make_problem,
)
from .diagnostics import (
    GammaBoundReport,
    IterateRecord,
    Trace,
    TraceFormatError,
    Violation,
    check_acceptance,
    check_envelope,
    check_gamma_step_product,
    check_level_set,
    check_vanishing_steps,
    gamma_bound_report,
    read_trace_csv,
    write_trace_csv,
)
from .prox_oracles import (
    PROX_REGISTRY,
    brute_force_prox,
    build_prox,
    make_box,
    make_l0,
    make_l1,
    make_lp_half,
    make_sphere,
    make_zero,
)
from .smooth_oracles import (
    SMOOTH_REGISTRY,
    build_smooth,
    fd_gradient_check,
    make_logistic,
    make_quadratic,
    make_quartic,
)
from .solver import (
    InnerCapExceeded,
    SolveReport,
    SolverConfig,
    backtrack,
    gamma0_select,
    outer_residual,
    solve,
    solve_monotone,
    subproblem_solve,
)

__version__ = "0.1.0"
