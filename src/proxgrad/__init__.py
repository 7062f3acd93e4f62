"""Composite-optimization solver: backtracking proximal gradient methods that
need no Lipschitz constants, with oracle libraries, trace diagnostics, and a
CLI for reproducible desk-scale experiments."""

from .core import (
    CompositeProblem,
    ProxOracle,
    SmoothOracle,
    SolverConfig,
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
    brute_force_prox,
    make_box,
    make_l0,
    make_l1,
    make_lp_half,
    make_sphere,
    make_zero,
)
from .smooth_oracles import (
    fd_gradient_check,
    make_logistic,
    make_quadratic,
    make_quartic,
)
from .solver import (
    SolveReport,
    solve,
)

__version__ = "0.1.0"
