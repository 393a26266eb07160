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
once in today's source, so the catalogue cannot go stale.  Standard library
only.
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
        "rows = min(_EXPM_ROWS, max(1, _CHUNK_FLOATS // model.n**2))",
        "rows = _EXPM_ROWS",
        ("tests/test_solver.py::TestExpmBranch",),
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
