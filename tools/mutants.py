"""Mutation harness: every listed mutant of the sources must fail tier-1.

Run from the repository root:

    python tools/mutants.py

Each entry is ``(file, old text, new text, killed by)``.  For each one the
working tree is copied to a temporary directory, ``old`` is replaced by
``new`` in ``file``, and tier-1 runs there with ``-x``.  The mutant is killed
when pytest reports a failing test.  ``killed by`` names a test known to
kill it; the report prints the first failing test next to it.

Before any mutant, tier-1 runs once on an unmutated copy made the same way;
a failure there, or a run past ``TIMEOUT_S``, is a harness error, since a
suite that already fails would "kill" every mutant.  Its wall time sets each
mutant's bound, ``max(MUTANT_FLOOR_S, MUTANT_FACTOR * that time)``: a mutant
that runs past it, say one that hangs a thread the suite waits on, is
"killed (timeout)".  An ``old`` text that does not occur exactly once in its
file, or a pytest exit other than pass or fail, is a harness error too: a
stale entry can never count as killed.  All entries are matched before any
suite runs.  Exit status: 0 when every mutant is killed, 1 when one
survives, 2 on a harness error.  The harness is not part of tier-1: it runs
the suite once unmutated and once per mutant, up to about 12 s each on a
2-core host (about 13 min in all, since ``-x`` stops at the first failure).
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SOLVER = "src/proxgrad/solver.py"
CLI = "src/proxgrad/cli.py"
PROX = "src/proxgrad/prox_oracles.py"
DIAGNOSTICS = "src/proxgrad/diagnostics.py"
CORE = "src/proxgrad/core.py"
SMOOTH = "src/proxgrad/smooth_oracles.py"
INIT = "src/proxgrad/__init__.py"

MUTANTS = [
    # the stationarity residual, computed once per trial and carried
    (SOLVER, "r = grad_cand - gamma * d - grad", "r = grad_cand - gamma0 * d - grad",
     "tests/test_acceptance.py::test_criterion_08_monotone_nonmonotone_coincidence"),
    (SOLVER, "grad_prev, residual = grad, res_cand", "grad_prev, residual = grad, residual",
     "tests/test_acceptance.py::test_criterion_03_inner_loop_finiteness"),
    (SOLVER, "r = grad_cand - gamma * d - grad", "r = grad_cand - grad - gamma * d",
     "tests/test_acceptance.py::test_criterion_08_monotone_nonmonotone_coincidence"),
    (SOLVER, "if math.isfinite(psi_cand) and (\n"
             "                        math.isfinite(res_cand) or np.isfinite(grad_cand).all()):",
     "if True:",
     "tests/test_solver.py::TestNonFiniteTrial::test_rejected_and_gamma_grows[nan-0.0]"),
    (SOLVER, "math.isfinite(res_cand) or np.isfinite(grad_cand).all()", "math.isfinite(res_cand)",
     "tests/test_solver.py::TestNonFiniteTrial"
     "::test_finite_gradient_with_overflowing_residual_is_a_trial[0]"),
    (SOLVER, "elif k == 0:", "elif k == 1:",
     "tests/test_acceptance.py::test_criterion_03_inner_loop_finiteness"),
    # each array parameter of a config oracle is converted under the catch
    (CLI, '("A", "labels"), ("A", "labels")', '("A", "labels"), ("A",)',
     "tests/test_cli.py::TestRun::test_bad_config_exits_1_with_one_line_error[labels_ragged]"),
    (CLI, '("lo", "hi"), ("lo", "hi")', '("lo", "hi"), ("lo",)',
     "tests/test_cli.py::TestRun::test_bad_config_exits_1_with_one_line_error[hi_ragged]"),
    # the brute-force grid: shared, read-only, with 0 snapped onto it
    (PROX, "grid.flags.writeable = False", "grid.flags.writeable = True",
     "tests/test_prox_oracles.py::TestBruteForce::test_grid_is_shared_read_only_and_snaps_zero"),
    (PROX, "@functools.lru_cache(maxsize=8)\n", "",
     "tests/test_prox_oracles.py::TestBruteForce::test_grid_is_shared_read_only_and_snaps_zero"),
    (PROX, "grid[zero_idx] = 0.0", "grid[zero_idx] = grid[zero_idx]",
     "tests/test_prox_oracles.py::TestBruteForce::test_grid_is_shared_read_only_and_snaps_zero"),
    # facts stated once: the row count, the quartic's parameters, compare's m rule
    (SOLVER, "len(self.trace.records))", "len(self.trace.records) - 1)",
     "tests/test_cli.py::TestRun::test_half_open_box"),
    (CLI, 'configs = [replace(cfg["config"], m=m) for m in args.m]',
     'configs = (replace(cfg["config"], m=m) for m in args.m)',
     "tests/test_cli.py::TestCompare::test_negative_m_exits_1_before_any_solve"),
    (CLI, '"quartic": (make_quartic, (), ()),', '"quartic": (make_quartic, ("dimension",), ()),',
     "tests/test_acceptance.py::test_criterion_03_inner_loop_finiteness"),
    (CLI, "_STATUS_EXIT[report.status] == _EXIT_OK",
     "_STATUS_EXIT[report.status] in (_EXIT_OK, _EXIT_INNER_CAP)",
     "tests/test_cli.py::TestCompare::test_unconverged_window_exits_2[inner_cap]"),
    (SOLVER, "f\"f(x0) = {f_x} (x0 or the term's data may be too large \"",
     'f"f(x0) = {f_x} (x0 may be too large "',
     "tests/test_cli.py::TestRun::test_bad_config_exits_1_with_one_line_error[A_nan]"),
    (SOLVER, "gamma = gamma * tau", "gamma = gamma * tau * tau",
     "tests/test_acceptance.py::test_criterion_08_monotone_nonmonotone_coincidence"),
    # a record's index is its position: written from it, checked on read
    (DIAGNOSTICS, "if k != str(len(records)):", "if False:",
     "tests/test_diagnostics.py::TestTraceCsv::test_rejects_noncontiguous_indices"),
    (DIAGNOSTICS, "for k, r in enumerate(trace.records):",
     "for k, r in enumerate(trace.records, 1):",
     "tests/test_diagnostics.py::TestTraceCsv::test_round_trip_identity"),
    # the grid oracle has one code path, and a huge x0 is a config error
    (PROX, "if phi_vals.shape != grid.shape:", "if False:",
     "tests/test_prox_oracles.py::TestBruteForce::test_phi_must_map_the_grid_elementwise"),
    (CLI, "except MemoryError:", "except ZeroDivisionError:",
     "tests/test_cli.py::TestRun::test_bad_config_exits_1_with_one_line_error[dimension_huge]"),
    # the stepsize rule and the acceptance window
    (SOLVER, "if sy > 0.0 and step_sq > 0.0 else gamma", "if sy > 0.0 else gamma",
     "tests/test_solver.py::TestGamma0Select::test_bb_zero_step_falls_back"),
    (SOLVER, "if sy > 0.0 and step_sq > 0.0 else gamma", "if sy > 0.0 and step_sq > 0.0 else gamma0",
     "tests/test_solver.py::TestGamma0Select::test_fallback_after_backtracking_takes_the_accepted_gamma"),
    (SOLVER, "if window[0][0] < k - m:", "if window[0][0] <= k - m:",
     "tests/test_solver.py::TestAcceptanceReference::test_buffer_growth_matches_min_k_m"),
    (SOLVER, "psi_ref = window[0][1]", "psi_ref = window[-1][1]",
     "tests/test_solver.py::TestWindowedAcceptance::test_reference_uses_window_maximum"),
    (SOLVER, "gamma0 = min(max(gamma0, gamma_min), gamma_max)", "gamma0 = gamma0",
     "tests/test_solver.py::TestGamma0Select::test_constant_clamped"),
    (SOLVER, "gamma0 = 1.0", "gamma0 = 0.5",
     "tests/test_solver.py::TestGamma0Select::test_first_iteration_default"),
    (SOLVER, "early_exit = True", "pass",
     "tests/test_solver.py::TestEarlyInnerExit::test_near_stationary_candidate_accepted_and_flagged"),
    # the box: np.clip's bits, and membership of every coordinate
    (PROX, "np.asarray(v).clip(lo_v, hi_v)", "np.fmin(np.fmax(v, lo_v), hi_v)",
     "tests/test_prox_oracles.py::TestBox::test_prox_is_np_clip_bit_for_bit[-0.0--0.0]"),
    (PROX, "inside = bool(((x >= lo_v) & (x <= hi_v)).all())",
     "inside = bool(((x >= lo_v) & (x <= hi_v)).any())",
     "tests/test_prox_oracles.py::TestBox::test_eval_matches_two_reductions[0.0-0.0]"),
    # every exit tolerance is inclusive, and the outer loop runs max_outer steps
    (SOLVER, "if residual <= tau_abs:", "if residual < tau_abs:",
     "tests/test_solver.py::TestSolve::test_exit_tolerances_are_inclusive[residual]"),
    (SOLVER, "if step_norm <= eps_step and", "if step_norm < eps_step and",
     "tests/test_solver.py::TestSolve::test_exit_tolerances_are_inclusive[step]"),
    (SOLVER, "if res_cand <= tau_abs:", "if res_cand < tau_abs:",
     "tests/test_solver.py::TestEarlyInnerExit::test_inner_tolerance_is_inclusive"),
    (SOLVER, "for k in range(config.max_outer):", "for k in range(config.max_outer + 1):",
     "tests/test_solver.py::TestSolve::test_max_outer_status"),
    (SOLVER, "for k in range(config.max_outer):", "for k in range(1, config.max_outer):",
     "tests/test_acceptance.py::test_criterion_03_inner_loop_finiteness"),
    # input checks: a vector's shape, a problem's dimension, a prox's gamma,
    # and the shapes of a smooth term's data
    (CORE, "if v.ndim != 1:", "if v.ndim == 0:",
     "tests/test_core.py::test_as_vector_rejects_a_non_vector[matrix]"),
    (CORE, "if v.size == 0:", "if False:",
     "tests/test_core.py::test_as_vector_rejects_a_non_vector[empty]"),
    (CORE, "if self.dimension < 1:", "if self.dimension < 0:",
     "tests/test_core.py::test_problem_dimension_must_be_positive[0]"),
    (PROX, "if not g > 0:", "if g < 0:",
     "tests/test_prox_oracles.py::test_prox_rejects_non_positive_gamma[zero-0.0]"),
    (SMOOTH, "if y.shape != (A.shape[0],):", "if y.ndim != 1:",
     "tests/test_smooth_oracles.py::test_data_shapes_are_checked[logistic_label_count]"),
    # the checker's window maxima: a monotone deque that keeps the oldest of
    # tied values and skips NaN unless it is the oldest
    (DIAGNOSTICS, "while window and window[-1] < value:", "while window and window[-1] <= value:",
     "tests/test_diagnostics.py::test_window_maxima_keep_the_oldest_of_tied_zeros[1-want1]"),
    (DIAGNOSTICS, "if value == value:", "if True:",
     "tests/test_diagnostics.py::test_window_maxima_are_the_slice_maxima[0]"),
    (DIAGNOSTICS, "window[0] if oldest == oldest else oldest", "window[0]",
     "tests/test_diagnostics.py::test_window_maxima_are_the_slice_maxima[1]"),
    (DIAGNOSTICS, "window[0] == psi[k - m - 1]", "window[0] == psi[k - m]",
     "tests/test_diagnostics.py::test_window_maxima_are_the_slice_maxima[1]"),
    # PROXGRAD_LOG is read on every call, and each level prints its own lines
    (CLI, '{"info": ("info", "debug"), "debug": ("debug",)}',
     '{"info": ("debug",), "debug": ("debug",)}',
     "tests/test_cli.py::test_env_var_controls_logging"),
    (CLI, '{"info": ("info", "debug"), "debug": ("debug",)}',
     '{"info": ("info", "debug"), "debug": ("info", "debug")}',
     "tests/test_cli.py::test_env_var_controls_logging"),
    # the checkers' bound, rows and window, and the trace reader's columns
    (DIAGNOSTICS, "bound = env[k] - delta * (rec.gamma / 2.0)",
     "bound = env[k] + delta * (rec.gamma / 2.0)",
     "tests/test_diagnostics.py::TestCheckAcceptance::test_bound_subtracts_the_decrease_term"),
    (DIAGNOSTICS, "for k in range(len(trace.records) - trace.early_exit):",
     "for k in range(len(trace.records) - 2):",
     "tests/test_diagnostics.py::TestCheckAcceptance::test_last_certified_row_is_checked"),
    (DIAGNOSTICS, "for k in range(len(env) - 1)", "for k in range(len(env) - 2)",
     "tests/test_diagnostics.py::TestCheckEnvelope::test_rise_at_the_last_pair_is_flagged"),
    (DIAGNOSTICS, "float(gamma0), float(gamma)", "float(gamma), float(gamma0)",
     "tests/test_diagnostics.py::TestTraceCsv::test_gamma0_is_read_from_its_own_column"),
    (DIAGNOSTICS, "if k > m and window", "if k >= m and window",
     "tests/test_diagnostics.py::test_window_keeps_its_front_until_it_leaves"),
    (DIAGNOSTICS, "if not psi[k + 1] <= bound + _PSI_TOL:", "if psi[k + 1] > bound + _PSI_TOL:",
     "tests/test_cli.py::TestCheck::test_nan_in_a_certified_column_exits_4_naming_the_row[gamma]"),
    (DIAGNOSTICS, "        if operator.index(m) < 0:\n", "        if False:\n",
     "tests/test_diagnostics.py::test_negative_window_is_a_value_error[check_envelope]"),
    (DIAGNOSTICS, "if operator.index(m) < 0:", "if m < 0:",
     "tests/test_diagnostics.py::test_negative_window_is_a_value_error[check_envelope-float]"),
    (DIAGNOSTICS, "max_gamma=math.nan if any(map(math.isnan, gammas)) else max(gammas),",
     "max_gamma=max(gammas),",
     "tests/test_diagnostics.py::TestGammaBoundReport::test_nan_gamma_makes_max_gamma_nan"
     "[nan_inside]"),
    # the stepsize rule's fallback, the step-norm exit's gamma guard, and
    # where the window warning points
    (SOLVER, "if sy > 0.0 and step_sq", "if sy >= 0.0 and step_sq",
     "tests/test_solver.py::TestGamma0Select::test_bb_step_in_the_null_space_falls_back"),
    (SOLVER, "gamma <= gamma_max * tau", "gamma < gamma_max * tau",
     "tests/test_solver.py::TestSolve"
     "::test_small_step_at_gamma_max_times_tau_ends_converged_step"),
    (SOLVER, "stacklevel=2", "stacklevel=3",
     "tests/test_solver.py::TestSolve::test_window_warning_points_at_the_caller"),
    # the trace states how the run ended, and the checker certifies its last row
    (DIAGNOSTICS, "range(len(trace.records) - trace.early_exit)", "range(len(trace.records) - 1)",
     "tests/test_diagnostics.py::TestCheckAcceptance::test_last_row_is_certified_by_psi_final"),
    (DIAGNOSTICS, "if trace.early_exit and not trace.final_residual <= tau_abs:", "if False:",
     "tests/test_diagnostics.py::TestCheckAcceptance"
     "::test_early_exit_row_is_certified_by_its_residual[above_tau_abs]"),
    (DIAGNOSTICS, " + [trace.psi_final]", "",
     "tests/test_diagnostics.py::TestCheckAcceptance::test_last_row_is_certified_by_psi_final"),
    (DIAGNOSTICS, 'or type(early_exit := meta["early_exit"]) is not bool',
     'or (early_exit := meta["early_exit"]) is None',
     "tests/test_diagnostics.py::TestTraceCsv::test_rejects_metadata_without_config"
     "[string_early_exit]"),
    (SOLVER, "(self.iterations - 1,) if", "(self.iterations,) if",
     "tests/test_solver.py::TestEarlyInnerExit::test_near_stationary_candidate_accepted_and_flagged"),
    (CLI, 'print(f"status: {trace.status}")', "pass",
     "tests/test_cli.py::TestCheck::test_first_line_is_the_status[converged]"),
    (CLI, "config.max_inner if report.status == STATUS_INNER_CAP", "0 if report.status",
     "tests/test_cli.py::TestCompare::test_total_inner_counts_prox_calls[quartic_box_inner_cap]"),
    # each module's __all__ is its list of public names
    (CORE, '__all__ = [\n    "as_vector",', '__all__ = [\n    "Vector",\n    "as_vector",',
     "tests/test_core.py::test_public_names_are_pinned"),
    (PROX, '    "make_box",\n', "",
     "tests/test_core.py::test_public_names_are_pinned"),
    (CLI, '"load_run_config", "build_smooth"',
     '"load_run_config", "shipped_config_names", "build_smooth"',
     "tests/test_core.py::test_every_export_has_a_caller_in_another_module"),
    # the engine's window: a monotone deque of (index, psi), written apart
    # from the checker's, that keeps the oldest of tied values and drops at
    # most one value per step
    (SOLVER, "while window and window[-1][1] < psi_x:", "while window and window[-1][1] <= psi_x:",
     "tests/test_solver.py::TestWindowedAcceptance"
     "::test_tied_zeros_in_the_window_give_the_older_sign[zero_then_minus_zero]"),
    (SOLVER, "if window[0][0] < k - m:", "if window[0][0] < k - m - 1:",
     "tests/test_solver.py::TestAcceptanceReference::test_buffer_growth_matches_min_k_m"),
    # a trace's run end is one the solver can give
    (DIAGNOSTICS, "if status not in _STATUSES:", "if False:",
     "tests/test_diagnostics.py::TestTraceCsv::test_rejects_metadata_without_config"
     "[unknown_status]"),
    (DIAGNOSTICS, "if early_exit and status != STATUS_CONVERGED_RESIDUAL:", "if False:",
     "tests/test_diagnostics.py::TestTraceCsv::test_rejects_metadata_without_config"
     "[early_exit_with_another_status]"),
    # the sphere's membership band and the tail checkers' rows
    (PROX, "if abs(nrm - r) <= _SPHERE", "if abs(nrm - r) < _SPHERE",
     "tests/test_prox_oracles.py::TestSphere::test_membership_boundary_is_inclusive"),
    (PROX, "_SPHERE_MEMBERSHIP_RTOL * max(1.0, r)", "_SPHERE_MEMBERSHIP_RTOL / max(1.0, r)",
     "tests/test_prox_oracles.py::TestSphere"
     "::test_membership_tolerance_grows_with_a_radius_above_one"),
    (PROX, "_SPHERE_MEMBERSHIP_RTOL * max(1.0, r)", "_SPHERE_MEMBERSHIP_RTOL * max(2.0, r)",
     "tests/test_prox_oracles.py::TestSphere::test_membership_tolerance_is_1e_9_below_radius_one"),
    (DIAGNOSTICS, "if len(values) < 10:", "if len(values) <= 10:",
     "tests/test_diagnostics.py::TestCheckVanishingSteps::test_ten_rows_are_enough"),
    (DIAGNOSTICS, "int(len(values) * fraction)", "int(len(values) / fraction)",
     "tests/test_diagnostics.py::TestCheckVanishingSteps"
     "::test_steps_before_the_last_tenth_do_not_count"),
    # the grid oracle's argument check, grid count and default bounds
    (PROX, "if not (lo < hi) or step <= 0:", "if not (lo < hi) and step <= 0:",
     "tests/test_prox_oracles.py::TestBruteForce::test_argument_check_names_the_bad_grid"
     "[negative_step]"),
    (PROX, "or step <= 0:", "or step < 0:",
     "tests/test_prox_oracles.py::TestBruteForce::test_argument_check_names_the_bad_grid"
     "[zero_step]"),
    (PROX, "if not (lo < hi)", "if not (lo <= hi)",
     "tests/test_prox_oracles.py::TestBruteForce::test_argument_check_names_the_bad_grid"
     "[lo_equal_hi]"),
    (PROX, "+ 1e-9)) + 1", "+ 1e-9)) - 1",
     "tests/test_prox_oracles.py::TestBruteForce::test_grid_count_ends_at_hi"),
    (PROX, "lo: float = -10.0,", "lo: float = -9.0,",
     "tests/test_prox_oracles.py::TestBruteForce::test_default_bounds_are_plus_minus_ten[lo]"),
    (PROX, "hi: float = 10.0,", "hi: float = 11.0,",
     "tests/test_prox_oracles.py::TestBruteForce::test_default_bounds_are_plus_minus_ten[hi]"),
    # the growth report's tail: a quarter of the rows, at least one, strictly above
    (DIAGNOSTICS, "_tail(gammas, fraction=0.25)", "_tail(gammas, fraction=1.25)",
     "tests/test_diagnostics.py::TestGammaBoundReport::test_trend_reads_only_the_last_quarter"),
    (DIAGNOSTICS, "g > tau * gamma_max", "g >= tau * gamma_max",
     "tests/test_diagnostics.py::TestGammaBoundReport"
     "::test_gamma_at_tau_times_gamma_max_is_not_a_trend"),
    (DIAGNOSTICS, "n = max(1, int(", "n = max(2, int(",
     "tests/test_diagnostics.py::TestGammaBoundReport::test_short_trace_trend_reads_its_last_row"),
    # no recorded row passed the engine's stop test
    (DIAGNOSTICS, "if rec.residual <= tau_abs]", "if rec.residual < tau_abs]",
     "tests/test_diagnostics.py::TestCheckAcceptance"
     "::test_row_whose_residual_passed_the_stop_test_is_flagged"),
    (DIAGNOSTICS, "if rec.residual <= tau_abs]", "if False]",
     "tests/test_cli.py::TestCheck::test_residual_within_tau_abs_exits_4_naming_the_row"),
    # one name for the problem type, and one writer of the comparison table
    (CORE, "make_problem = CompositeProblem",
     "make_problem = lambda *args, **kwargs: CompositeProblem(*args, **kwargs)",
     "tests/test_core.py::test_make_problem_is_the_dataclass"),
    (CLI, "    p_cmp.set_defaults(func=cmd_compare)",
     '    p_cmp.add_argument("--output")\n    p_cmp.set_defaults(func=cmd_compare)',
     "tests/test_cli.py::TestCompare::test_output_flag_is_a_usage_error"),
    # the three psi comparisons accept an exact tie at _PSI_TOL
    (DIAGNOSTICS, "if not psi[k + 1] <= bound + _PSI_TOL:", "if not psi[k + 1] < bound + _PSI_TOL:",
     "tests/test_diagnostics.py::TestCheckAcceptance::test_psi_tol_tie_passes_acceptance"),
    (DIAGNOSTICS, "env[k + 1] <= env[k] + _PSI_TOL", "env[k + 1] < env[k] + _PSI_TOL",
     "tests/test_diagnostics.py::TestCheckEnvelope::test_psi_tol_tie_passes_envelope"),
    (DIAGNOSTICS, "p <= psi[0] + _PSI_TOL", "p < psi[0] + _PSI_TOL",
     "tests/test_diagnostics.py::TestCheckLevelSet::test_psi_tol_tie_passes_level_set"),
    # a row's gamma is its gamma0 after inner_iters multiplications by tau,
    # in the engine's order, and inner_iters lies in [0, max_inner)
    (DIAGNOSTICS, "counted = 0 <= trials < max_inner", "counted = 0 <= trials <= max_inner",
     "tests/test_diagnostics.py::TestCheckAcceptance"
     "::test_inner_iters_lies_below_max_inner[max_inner]"),
    (DIAGNOSTICS, "counted = 0 <= trials < max_inner", "counted = trials < max_inner",
     "tests/test_diagnostics.py::TestCheckAcceptance"
     "::test_inner_iters_lies_below_max_inner[negative]"),
    (DIAGNOSTICS, "counted and gamma == rec.gamma",
     "counted and rec.gamma0 * tau**trials == rec.gamma",
     "tests/test_diagnostics.py::TestCheckAcceptance"
     "::test_gamma_is_gamma0_times_tau_per_trial_in_the_engines_order"),
    (DIAGNOSTICS, "gamma = gamma * tau\n", "gamma = gamma * tau\n            break\n",
     "tests/test_diagnostics.py::TestCheckAcceptance"
     "::test_gamma_is_gamma0_times_tau_per_trial_in_the_engines_order"),
    # each row's gamma0 lies in the range the engine clamps it to
    (DIAGNOSTICS, "if not gamma_min <= rec.gamma0", "if not -math.inf <= rec.gamma0",
     "tests/test_diagnostics.py::TestCheckAcceptance"
     "::test_gamma0_lies_in_its_clamp_range[below_gamma_min]"),
    (DIAGNOSTICS, "rec.gamma0 <= gamma_max:", "rec.gamma0 <= math.inf:",
     "tests/test_diagnostics.py::TestCheckAcceptance"
     "::test_gamma0_lies_in_its_clamp_range[above_gamma_max]"),
    # `check` imports neither numpy nor the engine, and `import proxgrad`
    # resolves each public name on first use
    (CORE, "from typing import Callable\n", "from typing import Callable\n\nimport numpy as np\n",
     "tests/test_cli.py::test_check_loads_neither_numpy_nor_the_engine"),
    (CLI, "                          STATUS_MAX_OUTER, TraceFormatError, read_trace_csv, "
          "write_trace_csv)\n",
     "                          STATUS_MAX_OUTER, TraceFormatError, read_trace_csv, "
     "write_trace_csv)\nfrom .solver import solve\n",
     "tests/test_cli.py::test_check_loads_neither_numpy_nor_the_engine"),
    (INIT, 'if not (name.startswith("_") or name in _MODULES or name == "cli"):', "if True:",
     "tests/test_cli.py::test_check_loads_neither_numpy_nor_the_engine"),
    (INIT, '*__getattr__("__all__")})', '*__getattr__("__all__")[:-2]})',
     "tests/test_core.py::test_each_public_name_resolves_in_a_fresh_interpreter"),
    # the split matvecs: aligned output splits, the band's upper edge, each
    # product's kernel (np.dot copies A^T's strided parts, with other bits;
    # np.matmul holds the GIL on A's row parts), and the per-call reply queue:
    # the caller waits for the helper's part, which the helper writes into the
    # caller's buffer, and a fault in the helper's part is put and raised
    (SMOOTH, "(m // 32 * 16, n // 32 * 16)", "(m // 2, n // 2)",
     "tests/test_smooth_oracles.py::test_split_points_follow_the_band[200x2000-C-2-96x992]"),
    (SMOOTH, "m * n < 460_800", "m * n < 470_000",
     "tests/test_smooth_oracles.py::test_split_points_follow_the_band[200x2304-C-2-0x0]"),
    (SMOOTH, "kernel=np.matmul) if cols", "kernel=np.dot) if cols",
     "tests/test_smooth_oracles.py::test_split_products_equal_the_whole_products_bitwise"
     "[200-2000]"),
    (SMOOTH, "kernel=np.dot) if rows", "kernel=np.matmul) if rows",
     "tests/test_smooth_oracles.py::test_split_products_release_the_gil"),
    (SMOOTH, "(fault := done.get())", "(fault := None)",
     "tests/test_smooth_oracles.py::test_product_is_whole_after_the_callers_part_raised"),
    (SMOOTH, "kernel(M, v, out)", "kernel(M, v)",
     "tests/test_smooth_oracles.py::test_split_products_equal_the_whole_products_bitwise"
     "[200-2000]"),
    (SMOOTH, "    if (fault := done.get()) is not None:\n        raise fault\n",
     "    done.get()\n",
     "tests/test_smooth_oracles.py"
     "::test_helpers_fault_is_raised_by_its_caller_and_the_helper_lives_on"),
    (SMOOTH, "done.put(exc)", "raise",
     "tests/test_smooth_oracles.py"
     "::test_helpers_fault_is_raised_by_its_caller_and_the_helper_lives_on"),
    # NaN handling in the independent verifiers and the tail checkers
    (SMOOTH, "float(np.max(errs, initial=0.0))", "max([0.0, *errs])",
     "tests/test_smooth_oracles.py::TestFdGradientCheck::test_a_nan_deviation_is_the_result"
     "[nan_gradient]"),
    (DIAGNOSTICS, "not any(map(math.isnan, tail)) and min(tail) <= tol", "min(tail) <= tol",
     "tests/test_diagnostics.py::test_a_nan_in_the_tail_fails_wherever_it_sits"
     "[nan_last-check_vanishing_steps]"),
    (PROX, "not math.isfinite(v) or np.isnan(phi_vals).any()", "not math.isfinite(v)",
     "tests/test_prox_oracles.py::TestBruteForce::test_nan_phi_is_rejected[part_of_the_grid]"),
    # check's default steps band follows the tail's gamma
    (CLI, "max(tau_abs, 1e-6) / gamma", "max(tau_abs, 1e-6)",
     "tests/test_cli.py::TestCheck::test_default_steps_band_follows_the_tail_gamma"),
    # the slotted record sets each field by name, the reader takes each column
    # once, only +inf is the empty residual field, and the config echo is whole
    (DIAGNOSTICS, '_set(self, "step_norm", step_norm)\n        _set(self, "residual", residual)',
     '_set(self, "step_norm", residual)\n        _set(self, "residual", step_norm)',
     "tests/test_diagnostics.py::TestIterateRecord"
     "::test_positional_and_keyword_records_are_equal_field_for_field"),
    (DIAGNOSTICS, "f_val, phi_val = float(f_val), float(phi_val)",
     "f_val, phi_val = float(phi_val), float(f_val)",
     "tests/test_diagnostics.py::TestTraceCsv::test_round_trip_identity"),
    (DIAGNOSTICS, 'residual = "" if r.residual == math.inf else',
     'residual = "" if math.isinf(r.residual) else',
     "tests/test_diagnostics.py::TestTraceCsv::test_row_and_x0_bytes_match_format_spec"),
    (DIAGNOSTICS, '"config": vars(trace.config_echo)',
     '"config": {k: v for k, v in vars(trace.config_echo).items() if k != "eps_step"}',
     "tests/test_diagnostics.py::TestTraceCsv"
     "::test_metadata_config_is_every_field_of_the_config[every_field_set]"),
]

# the tier-1 command, stopping at the first failure
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "--continue-on-collection-errors",
          "-p", "no:cacheprovider"]
# the unmutated run's bound, and each mutant's: a floor, or a multiple of the
# unmutated run's wall time
TIMEOUT_S = 900
MUTANT_FLOOR_S = 60
MUTANT_FACTOR = 10
_COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                      ".perfbench-*")
_FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", re.MULTILINE)


def check_entries(root: Path, mutants: list) -> list[str]:
    """Every entry's old text occurs exactly once in its file."""
    errors = []
    for n, (file, old, _, _) in enumerate(mutants, 1):
        count = (root / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            errors.append(f"mutant {n}: old text occurs {count} times in {file}: {old!r}")
    return errors


def run_tier1(root: Path, mutant: tuple[str, str, str, str] | None,
              timeout_s: float) -> tuple[str, str]:
    """Run tier-1 on a copy of the tree, with ``mutant`` applied unless it is
    None; returns (outcome, first failing test or detail).  A run past
    ``timeout_s`` is stopped, and its outcome is "killed (timeout)"."""
    with tempfile.TemporaryDirectory(prefix="proxgrad-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=_COPY_IGNORE)
        if mutant is not None:
            file, old, new, _ = mutant
            target = tree / file
            target.write_text(target.read_text(encoding="utf-8").replace(old, new),
                              encoding="utf-8")
        pythonpath = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
        try:
            proc = subprocess.run(PYTEST, cwd=tree, env={**os.environ, "PYTHONPATH": pythonpath},
                                  capture_output=True, text=True, timeout=timeout_s)
        except subprocess.TimeoutExpired:
            return "killed (timeout)", f"tier-1 ran past {timeout_s:.3g} s"
    if proc.returncode == 0:
        return "survived", ""
    first = _FIRST_FAILURE.search(proc.stdout)
    if proc.returncode == 1 and first:
        return "killed", first.group(1)
    tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
    return "error", f"pytest exit {proc.returncode}: {' '.join(tail)}"


def main(root: Path | None = None, mutants: list = MUTANTS) -> int:
    root = root or Path(__file__).resolve().parent.parent
    errors = check_entries(root, mutants)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    if errors:
        return 2
    start = time.monotonic()
    outcome, detail = run_tier1(root, None, TIMEOUT_S)
    elapsed = time.monotonic() - start
    if outcome != "survived":
        print(f"error: tier-1 does not pass on the unmutated tree: {detail}", file=sys.stderr)
        return 2
    bound = max(MUTANT_FLOOR_S, MUTANT_FACTOR * elapsed)
    print(f"unmutated tree: tier-1 passes in {elapsed:.1f} s; each mutant's bound is "
          f"{bound:.3g} s", flush=True)
    outcomes = []
    for n, mutant in enumerate(mutants, 1):
        file, old, new, killed_by = mutant
        outcome, detail = run_tier1(root, mutant, bound)
        outcomes.append(outcome)
        print(f"[{n:2d}] {outcome:8} {file}: {old.strip()!r} -> {new.strip()!r}", flush=True)
        print(f"     listed: {killed_by}")
        if detail:
            print(f"     {'first failure' if outcome == 'killed' else 'detail'}: {detail}",
                  flush=True)
    killed = sum(outcome.startswith("killed") for outcome in outcomes)
    print(f"killed {killed}/{len(outcomes)}")
    if "error" in outcomes:
        return 2
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
