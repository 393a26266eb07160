"""A catalogue of named source mutants, each with the tests that must kill it.

Usage::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Each mutant is one exact ``(file, old, new)`` patch of a file under
``src/depmark``.  The script copies the repository (without ``.git``) to a
temporary directory, applies one patch at a time there, runs the mutant's
tests with pytest in a child process and restores the file.  A mutant is
killed when its tests fail, and survived when they pass; the last line gives
the kill count, and the exit status is 1 if any mutant survived or could not
be applied.  The working tree is never written.

A full run takes over a minute, so it is not part of the test suite;
``tests/test_mutants.py`` only checks that every ``old`` text occurs exactly
once in today's source and that every test a mutant names (file, class and
function) exists, so the catalogue cannot go stale.  Standard library only.
"""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/depmark
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS: tuple[Mutant, ...] = (
    # the expm branch read from each slice, and the chunk cap in floats
    Mutant(
        "expm_branch_one_band_side", "solve.py",
        "stack[:, below].any(axis=1) & stack[:, below.T].any(axis=1)",
        "stack[:, below].any(axis=1) & stack[:, below].any(axis=1)",
        ("tests/test_solver.py::TestExpmBranch",),
    ),
    Mutant(
        "expm_chunk_counts_slices_not_floats", "solve.py",
        "rows = min(_EXPM_ROWS, max(1, _CHUNK_FLOATS // n**2))",
        "rows = _EXPM_ROWS",
        ("tests/test_solver.py::TestExpmBranch",),
    ),
    # the literal update equations, their defects and their grid path
    Mutant(
        "literal_repair_from_3_at_mu", "solve.py",
        "repair, repair2 = mu * dt, 2 * mu * dt",
        "repair, repair2 = mu * dt, mu * dt",
        ("tests/test_literal.py::test_rows_and_defects_equal_the_tuple_replay",),
    ),
    Mutant(
        "literal_keep2_without_coverage", "solve.py",
        "keep2 = 1 - (lam2 + mu) * c * dt",
        "keep2 = 1 - (lam2 * c + mu) * dt",
        ("tests/test_literal.py::test_rows_and_defects_equal_the_tuple_replay",),
    ),
    Mutant(
        "literal_unsafe_state_loses_its_mass", "solve.py",
        "unsafe4 * p4 + unsafe5 * p5 + p7,",
        "unsafe4 * p4 + unsafe5 * p5,",
        ("tests/test_literal.py::test_rows_and_defects_equal_the_tuple_replay",
         "tests/test_solver.py::TestPaperLiteral"),
    ),
    Mutant(
        "literal_defect_without_the_unsafe_state", "solve.py",
        "p[3] + p[4] + p[5] + p[6])",
        "p[3] + p[4] + p[5])",
        ("tests/test_literal.py::test_rows_and_defects_equal_the_tuple_replay",
         "tests/test_solver.py::TestPaperLiteral"),
    ),
    Mutant(
        "literal_step_times_from_zero", "solve.py",
        "steps = config.dt * np.arange(1, len(defects) + 1, dtype=float)",
        "steps = config.dt * np.arange(len(defects), dtype=float)",
        ("tests/test_literal.py::test_rows_and_defects_equal_the_tuple_replay",),
    ),
    Mutant(
        "literal_stack_takes_the_first_generator", "solve.py",
        "[_literal_run(p0, _extract_literal_rates(model, q), config, times)[0] for q in gens]",
        "[_literal_run(p0, _extract_literal_rates(model, gens[0]), config, times)[0] for q in gens]",
        ("tests/test_literal.py::test_rows_and_defects_equal_the_tuple_replay",),
    ),
    Mutant(
        "literal_takes_no_remainder_check", "solve.py",
        "    if rem.any():\n",
        "    if False:\n",
        ("tests/test_solver.py::TestPaperLiteral::test_misaligned_time_rejected",),
    ),
    Mutant(
        "literal_checks_the_grid_before_the_shape", "solve.py",
        "    rates = _extract_literal_rates(model, build_generator(model).entries)\n"
        "    times = _check_grid(_horizon_times(model, config) if grid is None else grid)\n",
        "    times = _check_grid(_horizon_times(model, config) if grid is None else grid)\n"
        "    rates = _extract_literal_rates(model, build_generator(model).entries)\n",
        ("tests/test_solver.py::TestPaperLiteral::test_error_precedence_of_both_entry_points",),
    ),
    # one clamp, in the dispatcher, after the method runs
    Mutant(
        "clamp_inside_uniformization", "solve.py",
        "    return out.reshape(len(gens), times, n)\n",
        "    return _finalize(out).reshape(len(gens), times, n)\n",
        ("tests/test_clamp.py::test_kernels_carry_a_start_vector_that_is_not_a_distribution",),
    ),
    Mutant(
        "literal_rows_clamped", "solve.py",
        "    return np.array(rows).reshape(len(gens), len(times), model.n)\n",
        "    return _finalize(np.array(rows).reshape(len(gens), len(times), model.n))\n",
        ("tests/test_literal.py::test_overflow_leaves_the_states_no_equation_names_at_zero",),
    ),
    Mutant(
        "clamp_band_below_at_one", "solve.py",
        "float(probs.min(initial=0.0)) >= -_BAND",
        "float(probs.min(initial=0.0)) >= -1.0",
        ("tests/test_solver.py::TestGridArrays::test_finalize_block_with_one_bad_row",),
    ),
    # the Poisson windows and their a priori span
    Mutant(
        "window_stops_at_half_eps", "solve.py",
        "below = weights[:, span - 1::-1] / ratio[:, span - 1::-1] < eps / 4.0",
        "below = weights[:, span - 1::-1] / ratio[:, span - 1::-1] < eps / 2.0",
        ("tests/test_windows.py",),
    ),
    Mutant(
        "span_one_term_fewer", "solve.py",
        "return np.ceil(lam / 3.0 + np.sqrt(lam * lam / 9.0 + 2.0 * q * lam)) + 3",
        "return np.ceil(lam / 3.0 + np.sqrt(lam * lam / 9.0 + 2.0 * q * lam)) + 2",
        ("tests/test_windows.py",),
    ),
    Mutant(
        "span_without_the_stop_factor", "solve.py",
        "    lam = lam + np.log1p(q / x0)\n",
        "",
        ("tests/test_windows.py",),
    ),
    # one Poisson window per distinct L*t, held across chunks
    Mutant(
        "held_windows_reused_past_their_range", "solve.py",
        "if not (kept[0] <= low and high <= kept[1] and",
        "if not (kept[0] <= low and low < kept[1] and",
        ("tests/test_solver.py::TestStacks::test_stiff_coverage_sweep_makes_one_window_per_distinct_lt",
         "tests/test_solver.py::TestStacks::test_stacks_with_repeated_lt_equal_pointwise_solves"),
    ),
    Mutant(
        "row_reads_its_neighbours_window", "solve.py",
        "(part[at - kept[0]] for part in windows)",
        "(part[at - kept[0] - 1] for part in windows)",
        ("tests/test_solver.py::TestStacks::test_coverage_sweep_makes_one_window_per_distinct_lt",
         "tests/test_solver.py::TestStacks::test_stacks_with_repeated_lt_equal_pointwise_solves"),
    ),
    Mutant(
        "slice_path_when_rows_share_windows", "solve.py",
        "ids = ids if len(distinct) < len(live) else None",
        "ids = None",
        ("tests/test_solver.py::TestStacks::test_coverage_sweep_makes_one_window_per_distinct_lt",
         "tests/test_solver.py::TestStacks::test_stiff_coverage_sweep_makes_one_window_per_distinct_lt"),
    ),
    Mutant(
        "held_windows_read_by_too_many_rows", "solve.py",
        " and rows * windows[2].shape[1] * (n + 1) <= _CHUNK_FLOATS):",
        "):",
        ("tests/test_solver.py::TestStacks::test_held_windows_wider_than_a_chunk_are_made_again",),
    ),
    Mutant(
        "sparse_distinct_range_taken", "solve.py",
        "if at is None or high - low > rows:",
        "if at is None:",
        ("tests/test_solver.py::TestStacks::test_sparse_distinct_range_keeps_the_budget",),
    ),
    # model copies and parameter equality
    Mutant(
        "with_params_lists_fields_without_horizon", "model.py",
        "return replace(self, params=self.params.updated(overrides))",
        "return MarkovModel(self.states, self.transitions, self.params.updated(overrides), self.initial, "
        "self.coverage)",
        ("tests/test_model.py::TestOwnedRules",),
    ),
    Mutant(
        "parameter_set_identity_equality", "model.py",
        '    def updated(self, overrides: Mapping[str, float]) -> "ParameterSet":',
        '    __eq__ = object.__eq__\n\n    def updated(self, overrides: Mapping[str, float]) -> "ParameterSet":',
        ("tests/test_model.py::TestOwnedRules",),
    ),
    # one tuple of metric columns
    Mutant(
        "table_columns_swapped", "analysis.py",
        '_TABLE_COLUMNS = ("param", "R", "S", "Pfs", "Pfu")',
        '_TABLE_COLUMNS = ("param", "R", "S", "Pfu", "Pfs")',
        ("tests/test_cli.py::TestSweep", "tests/test_cli.py::TestAudit"),
    ),
    # the first-column rule and whole ints in CSV
    Mutant(
        "first_column_rule_off", "cli.py",
        "if len(set(map(_cell, firsts))) < len(firsts):",
        "if False:",
        ("tests/test_cli.py::TestFirstColumn",),
    ),
    Mutant(
        "first_column_always_exact", "cli.py",
        "if len(set(map(_cell, firsts))) < len(firsts):",
        "if True:",
        ("tests/test_cli.py::TestFirstColumn",),
    ),
    Mutant(
        "int_cells_at_nine_digits", "cli.py",
        'if line is None or "e+" in line:',
        "if line is None:",
        ("tests/test_cli.py::TestFirstColumn",),
    ),
    # the whole-array grid check
    Mutant(
        "grid_check_allows_repeats", "solve.py",
        "ok[1:] &= times[1:] > times[:-1]",
        "ok[1:] &= times[1:] >= times[:-1]",
        ("tests/test_grid.py",),
    ),
    Mutant(
        "grid_check_takes_strings", "solve.py",
        'if times.dtype.kind not in "biuf" or times.ndim != 1:',
        'if times.dtype.kind not in "biufU" or times.ndim != 1:',
        ("tests/test_grid.py",),
    ),
    # the step lattice
    Mutant(
        "lattice_tolerance_1e-8", "solve.py",
        "off = np.abs(whole * dt - times) > 1e-9 * np.maximum(times, dt)",
        "off = np.abs(whole * dt - times) > 1e-8 * np.maximum(times, dt)",
        ("tests/test_lattice.py",),
    ),
    Mutant(
        "lattice_tolerance_without_dt_floor", "solve.py",
        "off = np.abs(whole * dt - times) > 1e-9 * np.maximum(times, dt)",
        "off = np.abs(whole * dt - times) > 1e-9 * times",
        ("tests/test_lattice.py",),
    ),
    Mutant(
        "lattice_rint_off_the_lattice", "solve.py",
        "whole[off] = np.floor(times[off] / dt)",
        "whole[off] = np.rint(times[off] / dt)",
        ("tests/test_lattice.py",),
    ),
    # the keyed Monte Carlo jump
    Mutant(
        "keyed_jump_side_right", "simulate.py",
        "return succ[np.searchsorted(keys, raw)]",
        'return succ[np.searchsorted(keys, raw, side="right")]',
        ("tests/test_simulate.py::TestKeyedJump", "tests/test_simulate.py::TestGoldenCounts"),
    ),
    Mutant(
        "keyed_jump_without_row_offset", "simulate.py",
        "        raw += rows[state]\n",
        "",
        ("tests/test_simulate.py::TestKeyedJump", "tests/test_simulate.py::TestGoldenCounts"),
    ),
    Mutant(
        "keyed_jump_ceil_keys", "simulate.py",
        "keys = np.concatenate([np.floor(cum * 2.0**53)",
        "keys = np.concatenate([np.ceil(cum * 2.0**53)",
        ("tests/test_simulate.py::TestKeyedJump", "tests/test_simulate.py::TestGoldenCounts"),
    ),
    Mutant(
        "keyed_jump_key_spacing_2_53", "simulate.py",
        "+ (i << 54)",
        "+ (i << 53)",
        ("tests/test_simulate.py::TestKeyedJump", "tests/test_simulate.py::TestGoldenCounts"),
    ),
    # more of the step lattice and the uniformization ring
    Mutant(
        "lattice_remainder_one_ulp_up", "solve.py",
        "return whole.astype(int), np.where(off, times - whole * dt, 0.0)",
        "return whole.astype(int), np.where(off, np.nextafter(times - whole * dt, 1.0), 0.0)",
        ("tests/test_lattice.py",),
    ),
    Mutant(
        "ring_bases_without_clamp", "solve.py",
        "bases = np.maximum(tops - size, 0)",
        "bases = tops - size",
        ("tests/test_power_ring.py", "tests/test_solver.py::TestStacks"),
    ),
    # model and parameter domains
    Mutant(
        "state_cap_off_by_one", "model.py",
        "if n > STATE_CAP:",
        "if n >= STATE_CAP:",
        ("tests/test_model.py::TestStateCap",),
    ),
    Mutant(
        "parameter_keeps_negative_zero", "model.py",
        "return v + 0.0",
        "return v",
        ("tests/test_model.py", "tests/test_lang.py", "tests/test_cli.py"),
    ),
    # the model language
    Mutant(
        "plus_parses_as_minus", "lang.py",
        'node = Sum(node, rhs) if op.text == "+" else Difference(node, rhs)',
        'node = Difference(node, rhs) if op.text == "+" else Sum(node, rhs)',
        ("tests/test_lang.py",),
    ),
    Mutant(
        "serialize_drops_horizon", "lang.py",
        "if model.horizon is not None:",
        "if False:",
        ("tests/test_lang.py", "tests/test_lang_golden.py"),
    ),
    Mutant(
        "state_id_takes_any_number", "lang.py",
        "if not self._peek().text.isdecimal():",
        "if False:",
        ("tests/test_lang.py", "tests/test_lang_golden.py"),
    ),
    # the semantic pass over the parser's statement tuples
    Mutant(
        "default_init_takes_the_highest_operational", "lang.py",
        "initial[operational[0]] = 1.0",
        "initial[operational[-1]] = 1.0",
        ("tests/test_lang.py::TestBundledModels::test_default_initial_is_the_lowest_id_operational_state",),
    ),
    Mutant(
        "label_carriage_return_accepted", "lang.py",
        'elif "\\r" in label:',
        "elif False:",
        ("tests/test_lang.py::TestParseErrors::test_carriage_return_in_label_is_semantic",),
    ),
    Mutant(
        "trans_target_checked_as_source", "lang.py",
        "if tr.target not in states:",
        "if tr.source not in states:",
        ("tests/test_lang.py::TestParseErrors::test_undeclared_trans_endpoint",),
    ),
    Mutant(
        "init_of_an_undeclared_state_accepted", "lang.py",
        "elif sid not in states:",
        "elif False:",
        ("tests/test_lang.py::TestParseErrors::test_undeclared_init_state",),
    ),
    Mutant(
        "rate_references_unchecked", "lang.py",
        "if name not in param_values:",
        "if False:",
        ("tests/test_lang.py::TestParseErrors::test_undeclared_param_in_rate",),
    ),
    Mutant(
        "coverage_flag_ignored", "lang.py",
        "if is_coverage:",
        "if False:",
        ("tests/test_lang.py::TestGrammar::test_coverage_flag",),
    ),
    # the process entry point: collector off, objects frozen, main's code
    Mutant(
        "run_keeps_the_collector", "cli.py",
        "    gc.disable()\n",
        "",
        ("tests/test_cli.py::TestRun",),
    ),
    Mutant(
        "run_skips_the_freeze", "cli.py",
        "    gc.freeze()\n",
        "",
        ("tests/test_cli.py::TestRun",),
    ),
    Mutant(
        "run_drops_the_exit_code", "cli.py",
        "raise SystemExit(code)",
        "raise SystemExit(0)",
        ("tests/test_cli.py::TestRun",),
    ),
    # the binary rate nodes inherit _Binary's slots and methods
    Mutant(
        "sum_without_slots", "model.py",
        '    __slots__ = ()\n    _PREC, _SYMBOL, _OP = 1, "+", operator.add\n',
        '    _PREC, _SYMBOL, _OP = 1, "+", operator.add\n',
        ("tests/test_model.py::TestRateExpressions::test_expression_nodes_have_no_instance_dict",),
    ),
    # SciPy's expm scratch: every slice on a 16-byte boundary
    Mutant(
        "expm_scratch_unaligned", "solve.py",
        "works = np.empty((len(index), 6, *stack.shape[1:]))[:, :5]",
        "works = np.empty((len(index), 5, *stack.shape[1:]))",
        ("tests/test_solver.py::TestExpmKernels::test_grid_rows_equal_expm_under_the_avx_kernel",),
    ),
    # each decision said once: the service classes, the solver defaults, the invalid-model exit
    Mutant(
        "service_map_drops_fail_operational", "model.py",
        "return self in (StateClass.OPERATIONAL, StateClass.FAIL_OPERATIONAL)",
        "return self in (StateClass.OPERATIONAL,)",
        ("tests/test_analysis.py::TestMetrics::test_hand_distribution",
         "tests/test_model.py::TestValidate::test_outflow_warning_only_for_classes_out_of_service"),
    ),
    Mutant(
        "cli_eps_default_spelled_out", "cli.py",
        "default=defaults.eps,",
        "default=1e-11,",
        ("tests/test_cli.py::TestSolverDefaults",),
    ),
    Mutant(
        "invalid_model_runs_on", "cli.py",
        "        raise _InvalidModel\n",
        "        pass\n",
        ("tests/test_cli.py::TestSolve::test_fatal_validation_blocks_solve",),
    ),
    # each manifest entry recorded where its value is learnt, in a fixed order
    Mutant(
        "manifest_set_after_solver", "cli.py",
        'manifest.append(("solver", " ".join(bits)))',
        'manifest.insert(3, ("solver", " ".join(bits)))',
        ("tests/test_cli.py::TestManifestOrder",),
    ),
)


def source(mutant: Mutant, root: pathlib.Path = REPO_ROOT) -> pathlib.Path:
    return root / "src" / "depmark" / mutant.file


def run(mutant: Mutant, root: pathlib.Path) -> str:
    """'killed', 'survived' or 'not applied' for one mutant in a copy at root."""
    path = source(mutant, root)
    original = path.read_text(encoding="utf-8")
    if original.count(mutant.old) != 1:
        return "not applied"
    path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=root, capture_output=True, text=True,
        )
    finally:
        path.write_text(original, encoding="utf-8")
    # exit status 1 is a failing test; any other (usage, collection) is no verdict
    return {0: "survived", 1: "killed"}.get(proc.returncode, "not applied")


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp) / "repo"
        shutil.copytree(REPO_ROOT, root, symlinks=True,
                        ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench"))
        verdicts = []
        for mutant in chosen:
            verdicts.append(run(mutant, root))
            print(f"{verdicts[-1]:>11}  {mutant.name}", flush=True)
    print(f"{verdicts.count('killed')} of {len(verdicts)} mutants killed")
    return 0 if verdicts.count("killed") == len(verdicts) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
