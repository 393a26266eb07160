"""The literal update mode against its tuple step kept verbatim
(``tests/reference_literal.py``): rows and defects equal bit for bit, from
``solve_paper_literal``, ``solve_at``, a stack of generators and the CLI's
JSON output alike.

Two cases are pinned on their own, because a rewrite of the mode as a
matrix product would change them while the bundled model's hourly run stays
the same: an initial law that puts mass on states 2 to 6 (``dfwcs_pid.mdl``
or any other), where an equation sums three to six nonzero terms and the
order of the sum shows in the last bits, and a march that overflows, after
which the states an equation does not name stay exactly 0."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import depmark
import depmark.solve as solve_module
import reference_literal
from depmark import Method, SolverConfig, build_generators, solve_at, solve_paper_literal
from depmark.cli import main

DTS = (0.25, 0.5, 1.0, 2.0, 3.0)
# the bundled initial law, the PID chain's, one draw over all seven states
# and one on states 1, 2, 3 and 5
LAWS = ({1: 1.0}, {4: 1.0}, dict(enumerate(np.random.default_rng(26).dirichlet(np.ones(7)).tolist(), 1)),
        {1: 0.25, 2: 0.25, 3: 0.25, 5: 0.25})


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def decades(low: int, high: int):
    return st.floats(low, high).map(lambda e: 10.0 ** e)


@seed(26)
@settings(max_examples=40)
@given(
    coverage=st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, 0.999, 1.0]),
    mu=decades(-4, 2) | st.just(6.0),
    lams=st.tuples(decades(-8, 1), decades(-8, 1), decades(-8, 1), decades(-8, 1)),
    law=st.sampled_from(LAWS),
    dt=st.sampled_from(DTS),
    steps=st.integers(0, 600),
    stride=st.integers(2, 9),
)
def test_rows_and_defects_equal_the_tuple_replay(dfwcs, coverage, mu, lams, law, dt, steps, stride):
    params = {"C": coverage, "MU": mu, **{f"LAMBDA{i}": lam for i, lam in enumerate(lams, 1)}}
    model = dataclasses.replace(dfwcs, initial=law).with_params(params)
    config = SolverConfig(Method.PAPER_LITERAL, dt=dt)
    lattice = dt * np.arange(steps + 1, dtype=float)
    # the full lattice, every stride-th time, the empty grid and t = 0 alone
    for grid in (lattice, lattice[::stride], np.array([]), np.array([0.0])):
        traj, report = solve_paper_literal(model, config, grid)
        rows, defects = reference_literal.solve_paper_literal(model, config, grid)
        assert_same_bits(traj.probs, rows)
        assert_same_bits(report.defects, defects)
        assert_same_bits(report.step_times, dt * np.arange(1, len(defects) + 1, dtype=float))
    # the grid-solver path: one generator at one time, and a stack of
    # coverages on the subsampled grid
    want, _ = reference_literal.solve_paper_literal(model, config, lattice)
    assert_same_bits(solve_at(model, config, lattice[-1]), want[-1])
    values, grid = [coverage, 0.0, 0.9, 1.0], lattice[::stride]
    stack = solve_module._solve_stack(model, build_generators(model, "C", values), config, grid)
    for value, rows in zip(values, stack):
        want, _ = reference_literal.solve_paper_literal(model.with_params({"C": value}), config, grid)
        assert_same_bits(rows, want)


def test_overflow_leaves_the_states_no_equation_names_at_zero(dfwcs):
    # 1 - LAMBDA1 * C * dt = -2: state 1 doubles in size each step and
    # overflows after about 1024 steps, and state 7 turns NaN (0 x inf, its
    # unsafe coefficient being 0 at C = 1).  The equations drop the 1 -> 2
    # inflow, so states 2 to 6 hold exactly 0 throughout
    model = dfwcs.with_params({"LAMBDA1": 1.0, "C": 1.0})
    config = SolverConfig(Method.PAPER_LITERAL, dt=3.0)
    traj, report = solve_paper_literal(model, config)
    rows, defects = reference_literal.solve_paper_literal(model, config)
    assert_same_bits(traj.probs, rows)
    assert_same_bits(report.defects, defects)
    assert not np.isfinite(rows[-1, 0]) and np.all(rows[:, 1:6] == 0.0)
    assert_same_bits(solve_at(model, config, 4380.0), rows[-1])


def test_json_output_of_the_pid_chain_replays_the_equations(capsys, dfwcs_pid):
    # JSON prints every float with repr, so it reads back to the same bits
    # the tuple step gives; states 4, 5, 6 and 7 hold mass from the first hour
    code = main(["solve", str(depmark.bundled_model_path("dfwcs_pid.mdl")),
                 "--method", "paper-literal", "--dt", "1", "--grid", "0:4380:24", "--output", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    labels = [state.label for state in dfwcs_pid.states]
    got = np.array([[row[label] for label in labels] for row in doc["rows"]])
    grid = np.arange(0.0, 4381.0, 24.0)
    want, defects = reference_literal.solve_paper_literal(dfwcs_pid, SolverConfig(Method.PAPER_LITERAL, dt=1.0), grid)
    assert_same_bits(got, want)
    assert np.count_nonzero(want[-1]) == 4
    assert [row["mass_defect"] for row in doc["rows"][1:]] == defects[23::24].tolist()


def test_json_output_of_an_overflowing_march_is_pinned(capsys):
    # the march of the test above through the CLI: its rows hold inf and NaN
    # from hour 3072 on, where its mass_defect column reads -inf, then NaN.
    # The digest covers every byte after the manifest, which names the
    # input's path
    code = main(["solve", str(depmark.bundled_model_path("dfwcs.mdl")), "--method", "paper-literal", "--dt", "3",
                 "--grid", "0:4380:3", "--set", "LAMBDA1=1", "--set", "C=1", "--output", "json"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["manifest"]["max_mass_defect"] == "nan"
    rows = out[out.index('\n  "columns"'):].encode()
    assert (len(rows), hashlib.sha256(rows).hexdigest()) == (
        551873, "ae98e010b9eeccea57cc272ec63f7d3bd231bc0e8a88bdafa1432fc571cc494a")
