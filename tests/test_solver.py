"""Transient solvers: closed forms, cross-checks, stepping, literal mode."""

import dataclasses
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernels
import oracle_expm
import depmark
import depmark.solve as solve_module
from conftest import REPO_ROOT
from depmark import (
    Constant,
    MarkovModel,
    Method,
    NumericFailureError,
    ParameterSet,
    SIX_MONTHS_HOURS,
    ShapeMismatchError,
    SolverConfig,
    State,
    StateClass,
    StepTooLargeError,
    Transition,
    TransitionKind,
    build_generator,
    build_generators,
    parse,
    solve_at,
    solve_euler,
    solve_grid,
    solve_paper_literal,
)

UNI = SolverConfig(Method.UNIFORMIZATION)
EXPM = SolverConfig(Method.MATRIX_EXP)

# three verbatim update steps from all mass on state 1, C = 0.9, dt = 1,
# iterated by hand before the solver existed
LITERAL_STEPS = {
    1: (0.99999703, 3.2999999999999996e-07, 2.6400000000537105e-06),
    2: (0.9999940600088209, 6.599990198999999e-07, 5.279992159268332e-06),
    3: (0.9999910900264626, 9.899970597029108e-07, 7.919976477754886e-06),
}

# uniformization answer for the bundled model at the six-month horizon,
# frozen from a from-scratch computation (dense series evaluation)
DFWCS_AT_4380 = np.array([
    0.9983421354970837,
    0.00021348547737517842,
    2.2823426960199277e-08,
    0.0,
    0.0,
    2.8978506132942396e-10,
    0.0014443559123176355,
])


class TestClosedForms:
    def test_toy_two_state(self, toy):
        exact = 1.0 - math.exp(-1.0)
        for cfg in (UNI, EXPM):
            p = solve_at(toy, cfg, 2.0)
            assert abs(p[1] - exact) <= 1e-12
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_time_zero_returns_initial(self, dfwcs):
        for cfg in (UNI, EXPM, SolverConfig(Method.EULER, dt=0.5)):
            assert np.array_equal(solve_at(dfwcs, cfg, 0.0), dfwcs.initial_vector())

    def test_all_rates_zero_is_constant(self, toy):
        frozen = toy.with_params({"L": 0.0})
        p = solve_at(frozen, UNI, 1000.0)
        assert np.array_equal(p, frozen.initial_vector())

    def test_negative_time_rejected(self, toy):
        with pytest.raises(ValueError):
            solve_at(toy, UNI, -1.0)

    def test_unsorted_grid_rejected(self, toy):
        with pytest.raises(ValueError):
            solve_grid(toy, UNI, [0.0, 2.0, 1.0])


class TestCrossSolver:
    def test_dfwcs_frozen_distribution(self, dfwcs):
        p = solve_at(dfwcs, UNI, 4380.0)
        assert np.max(np.abs(p - DFWCS_AT_4380)) <= 1e-10

    def test_uniformization_vs_package_expm(self, dfwcs):
        grid = [0.0, 100.0, 500.0, 1000.0, 4380.0]
        uni = solve_grid(dfwcs, UNI, grid)
        exp = solve_grid(dfwcs, EXPM, grid)
        assert np.max(np.abs(uni.probs - exp.probs)) <= 1e-10

    def test_uniformization_vs_independent_oracle(self, dfwcs):
        q = build_generator(dfwcs).entries
        p0 = dfwcs.initial_vector()
        for t in (0.0, 50.0, 400.0, 4000.0, 4380.0):
            mine = solve_at(dfwcs, UNI, t)
            ref = oracle_expm.transient_distribution(q, p0, t)
            assert np.max(np.abs(mine - ref)) <= 1e-10

    def test_grid_rows_equal_pointwise_solves(self, dfwcs):
        grid = [0.0, 123.0, 1000.0, 4380.0]
        traj = solve_grid(dfwcs, UNI, grid)
        for k, t in enumerate(grid):
            assert np.array_equal(traj.probs[k], solve_at(dfwcs, UNI, t))

    def test_absorbing_mass_nondecreasing(self, dfwcs):
        traj = solve_grid(dfwcs, UNI, [0.0, 400.0, 4000.0])
        p7 = traj.probs[:, 6]
        assert np.all(np.diff(p7) >= 0.0)

    def test_empty_grid(self, dfwcs):
        for method in Method:
            cfg = SolverConfig(method, dt=0.5)
            traj = solve_grid(dfwcs, cfg, [])
            assert len(traj) == 0
            assert traj.probs.shape == (0, 7)

    def test_exact_rate_time_rescaling(self, toy):
        # doubling every rate and halving the time gives the bit-identical
        # answer: the uniformization series sees the same L*t and P matrix
        doubled = toy.with_params({"L": 1.0})
        assert np.array_equal(solve_at(doubled, UNI, 1.0), solve_at(toy, UNI, 2.0))

    @given(
        rates=st.lists(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            min_size=6, max_size=6,
        ),
        t=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    )
    def test_matches_oracle_on_random_chains(self, rates, t):
        doc_lines = [
            'state 1 "a" class = operational;',
            'state 2 "b" class = fail_operational;',
            'state 3 "c" class = fail_safe;',
        ]
        pairs = [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
        for (a, b), r in zip(pairs, rates):
            doc_lines.append(f"trans {a} -> {b} rate = {r!r};")
        model = parse("\n".join(doc_lines) + "\n")
        mine = solve_at(model, UNI, t)
        ref = oracle_expm.transient_distribution(
            build_generator(model).entries, model.initial_vector(), t
        )
        assert np.max(np.abs(mine - ref)) <= 1e-9
        assert abs(mine.sum() - 1.0) <= 1e-9

    def test_term_cap_refuses_absurd_horizon(self, toy):
        with pytest.raises(NumericFailureError):
            solve_at(toy, UNI, 1e9)


class TestEuler:
    def test_stability_guard(self, toy):
        with pytest.raises(StepTooLargeError):
            solve_euler(toy, SolverConfig(Method.EULER, dt=4.0, horizon=8.0))
        with pytest.raises(StepTooLargeError):
            solve_at(toy, SolverConfig(Method.EULER, dt=4.0), 8.0)

    def test_first_order_convergence(self, toy):
        exact = 1.0 - math.exp(-1.0)
        errors = []
        for dt in (0.1, 0.05, 0.025):
            traj = solve_euler(toy, SolverConfig(Method.EULER, dt=dt, horizon=2.0))
            errors.append(abs(traj.probs[-1, 1] - exact))
        expected = [0.009393518762900621, 0.004647001283561991, 0.0023112971243242075]
        assert np.allclose(errors, expected, rtol=1e-10, atol=0.0)
        for coarse, fine in zip(errors, errors[1:]):
            assert 1.8 <= coarse / fine <= 2.2

    def test_trajectory_covers_the_step_lattice(self, toy):
        traj = solve_euler(toy, SolverConfig(Method.EULER, dt=0.5, horizon=2.0))
        assert np.array_equal(traj.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert np.array_equal(traj.probs[0], [1.0, 0.0])
        assert np.max(np.abs(traj.probs.sum(axis=1) - 1.0)) <= 1e-12

    def test_remainder_step_lands_on_horizon(self, toy):
        # 0.9 hours with dt = 0.4: two whole steps and one 0.1 remainder
        traj = solve_euler(toy, SolverConfig(Method.EULER, dt=0.4, horizon=0.9))
        assert np.array_equal(traj.times, [0.0, 0.4, 0.8, 0.9])
        up = (1 - 0.5 * 0.4) ** 2 * (1 - 0.5 * 0.1)
        assert abs(traj.probs[-1, 0] - up) <= 1e-15

    def test_march_matches_pointwise_grid(self, dfwcs):
        cfg = SolverConfig(Method.EULER, dt=0.5, horizon=10.0)
        marched = solve_euler(dfwcs, cfg)
        pointwise = solve_grid(dfwcs, cfg, list(marched.times))
        assert np.array_equal(marched.probs, pointwise.probs)

    def test_horizon_fallbacks(self, toy):
        assert toy.horizon is None
        traj = solve_euler(toy, SolverConfig(Method.EULER, dt=1.0))
        assert traj.times[-1] == SIX_MONTHS_HOURS
        short = dataclasses.replace(toy, horizon=2.0)
        traj = solve_euler(short, SolverConfig(Method.EULER, dt=1.0))
        assert np.array_equal(traj.times, [0.0, 1.0, 2.0])
        traj = solve_euler(short, SolverConfig(Method.EULER, dt=1.0, horizon=4.0))
        assert np.array_equal(traj.times, [0.0, 1.0, 2.0, 3.0, 4.0])

    def test_euler_approaches_truth(self, dfwcs):
        ref = solve_at(dfwcs, UNI, 400.0)
        p = solve_at(dfwcs, SolverConfig(Method.EULER, dt=0.1), 400.0)
        assert np.max(np.abs(p - ref)) <= 1e-6


class TestGridPaths:
    """Grid solves share work across times (one power block, one march);
    every row must still equal the pointwise solve bit for bit."""

    @staticmethod
    def _euler_loop(model, t, dt):
        # the step-by-step march from 0 to t, kept as the reference
        q = build_generator(model).entries
        whole = int(t // dt)
        rem = t - whole * dt
        p = model.initial_vector()
        for _ in range(whole):
            p = p @ (np.eye(model.n) + q * dt)
        if rem > 0.0:
            p = p @ (np.eye(model.n) + q * rem)
        return np.clip(p, 0.0, 1.0)

    @staticmethod
    def _uniformization_loop(model, t, eps):
        # the doubling recipe step by step: rows [m, 2m) of the powers are
        # rows [0, m) times stoch^m, then the weighted terms summed in order
        q = build_generator(model).entries
        rate = float(np.max(np.abs(np.diag(q))))
        (lo,), _, (weights,) = solve_module._poisson_windows(np.array([rate * t]), eps)
        jump = np.eye(model.n) + q / rate
        powers = model.initial_vector()[np.newaxis, :]
        while len(powers) < lo + len(weights):
            powers = np.concatenate([powers, powers @ jump])
            jump = jump @ jump
        acc = np.zeros(model.n)
        for w, power in zip(weights, powers[lo:]):
            acc += w * power
        return np.clip(acc, 0.0, 1.0)

    @staticmethod
    def _uniformization_sequential(model, t, eps):
        # term-by-term accumulation of the powers made one step at a time
        q = build_generator(model).entries
        rate = float(np.max(np.abs(np.diag(q))))
        (lo,), _, (weights,) = solve_module._poisson_windows(np.array([rate * t]), eps)
        stoch = np.eye(model.n) + q / rate
        power = model.initial_vector()
        for _ in range(lo):
            power = power @ stoch
        acc = np.zeros(model.n)
        for w in weights:
            acc += w * power
            power = power @ stoch
        return np.clip(acc, 0.0, 1.0)

    def test_euler_grid_with_remainder_steps(self, dfwcs):
        # 0.3 and 2.7 are off the dt = 0.5 lattice: their remainder steps
        # must not leak into the rows after them
        cfg = SolverConfig(Method.EULER, dt=0.5)
        grid = [0.0, 0.3, 1.0, 2.7, 4.0]
        traj = solve_grid(dfwcs, cfg, grid)
        for k, t in enumerate(grid):
            assert np.array_equal(traj.probs[k], solve_at(dfwcs, cfg, t))
            assert np.array_equal(traj.probs[k], self._euler_loop(dfwcs, t, 0.5))

    def test_uniformization_power_block_growth(self, dfwcs):
        # L*t is about 0.03, 1.4 and 122: the shorter windows read the
        # block sized for the last time
        grid = [0.0, 1.0, 50.0, 4380.0]
        traj = solve_grid(dfwcs, UNI, grid)
        for k, t in enumerate(grid):
            assert np.array_equal(traj.probs[k], solve_at(dfwcs, UNI, t))
        for k, t in enumerate(grid[1:], start=1):
            assert np.array_equal(traj.probs[k], self._uniformization_loop(dfwcs, t, UNI.eps))

    def test_uniformization_drift_from_sequential_powers(self, dfwcs):
        # doubling forms the powers in another order than one step at a
        # time; the rows may differ only at the level of rounding
        grid = [1.0, 50.0, 4380.0]
        traj = solve_grid(dfwcs, UNI, grid)
        for k, t in enumerate(grid):
            ref = self._uniformization_sequential(dfwcs, t, UNI.eps)
            assert np.max(np.abs(traj.probs[k] - ref)) <= 1e-14

    def test_uniformization_stiff_chain(self, dfwcs):
        # MU = 6 puts L*t near 5.3e4 at six months
        stiff = dfwcs.with_params({"MU": 6.0})
        q = build_generator(stiff).entries
        ref = oracle_expm.transient_distribution(q, stiff.initial_vector(), 4380.0)
        assert np.max(np.abs(solve_at(stiff, UNI, 4380.0) - ref)) <= 1e-10
        # both windows end in (2^15, 2^16], so both rows read one block
        # of the same size whether solved together or apart
        rate = float(np.max(np.abs(np.diag(q))))
        grid = [4000.0, 4380.0]
        for t in grid:
            (lo,), _, (weights,) = solve_module._poisson_windows(np.array([rate * t]), UNI.eps)
            assert 2**15 < lo + len(weights) <= 2**16
        traj = solve_grid(stiff, UNI, grid)
        for k, t in enumerate(grid):
            assert np.array_equal(traj.probs[k], solve_at(stiff, UNI, t))

    def test_time_zero_grid_every_method(self, dfwcs):
        for method in Method:
            traj = solve_grid(dfwcs, SolverConfig(method, dt=0.5), [0.0])
            assert np.array_equal(traj.probs, [dfwcs.initial_vector()])

    def test_uniformization_does_not_import_scipy(self):
        code = (
            "import sys, depmark\n"
            "m = depmark.load_model(depmark.bundled_model_path('dfwcs.mdl'))\n"
            "depmark.solve_at(m, depmark.SolverConfig(), 4380.0)\n"
            "assert 'scipy' not in sys.modules, sorted(sys.modules)\n"
        )
        path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


class TestStepCap:
    @pytest.fixture(autouse=True)
    def cap_at_ten(self, monkeypatch):
        monkeypatch.setattr(solve_module, "EULER_STEP_CAP", 10)

    def test_euler_boundary(self, dfwcs):
        cfg = SolverConfig(Method.EULER, dt=1.0)
        solve_at(dfwcs, cfg, 10.0)
        solve_grid(dfwcs, cfg, [0.0, 9.5, 10.0])
        assert len(solve_euler(dfwcs, dataclasses.replace(cfg, horizon=10.0))) == 11
        # a remainder step counts as a step
        for t in (11.0, 10.5):
            with pytest.raises(NumericFailureError):
                solve_at(dfwcs, cfg, t)
        with pytest.raises(NumericFailureError):
            solve_grid(dfwcs, cfg, [0.0, 11.0])
        with pytest.raises(NumericFailureError):
            solve_euler(dfwcs, dataclasses.replace(cfg, horizon=10.5))

    def test_literal_boundary(self, dfwcs):
        cfg = SolverConfig(Method.PAPER_LITERAL, dt=1.0)
        traj, report = solve_paper_literal(dfwcs, dataclasses.replace(cfg, horizon=10.0))
        assert len(traj) == 11 and len(report.defects) == 10
        solve_at(dfwcs, cfg, 10.0)
        with pytest.raises(NumericFailureError):
            solve_paper_literal(dfwcs, dataclasses.replace(cfg, horizon=11.0))
        with pytest.raises(NumericFailureError):
            solve_paper_literal(dfwcs, cfg, grid=[0.0, 11.0])
        with pytest.raises(NumericFailureError):
            solve_at(dfwcs, cfg, 11.0)


class TestTermCap:
    @pytest.fixture(autouse=True)
    def cap_at_64(self, monkeypatch):
        monkeypatch.setattr(solve_module, "UNIFORMIZATION_TERM_CAP", 64)

    def test_power_block_boundary(self, toy):
        # toy L = 0.5: the window at t = 43 ends at term 64, a 64-row
        # block; at t = 44 it ends at 65, which needs 128 rows
        for t, end in ((43.0, 64), (44.0, 65)):
            (lo,), _, (weights,) = solve_module._poisson_windows(np.array([0.5 * t]), UNI.eps)
            assert lo + len(weights) == end
        solve_at(toy, UNI, 43.0)
        solve_grid(toy, UNI, [0.0, 10.0, 43.0])
        with pytest.raises(NumericFailureError):
            solve_at(toy, UNI, 44.0)
        with pytest.raises(NumericFailureError):
            solve_grid(toy, UNI, [0.0, 44.0])


class TestPaperLiteral:
    def test_three_steps_match_hand_iteration(self, dfwcs):
        cfg = SolverConfig(Method.PAPER_LITERAL, dt=1.0, horizon=3.0)
        traj, report = solve_paper_literal(dfwcs, cfg)
        assert np.array_equal(traj.times, [0.0, 1.0, 2.0, 3.0])
        for step, (p1, p7, defect) in LITERAL_STEPS.items():
            assert traj.probs[step][0] == p1
            assert traj.probs[step][6] == p7
            assert report.defects[step - 1] == defect

    def test_step_one_defect_value(self, dfwcs):
        # from all mass on state 1 the first step loses
        # LAMBDA1 * dt * (2C - 1): the P1 row sheds LAMBDA1*C*dt while
        # the unsafe state only gains LAMBDA1*(1-C)*dt
        cfg = SolverConfig(Method.PAPER_LITERAL, dt=1.0, horizon=1.0)
        _, report = solve_paper_literal(dfwcs, cfg)
        assert abs(report.defects[0] - 2.6400000000537105e-06) <= 1e-15

    def test_defect_report_is_read_only(self, dfwcs):
        _, report = solve_paper_literal(dfwcs, SolverConfig(Method.PAPER_LITERAL, dt=1.0, horizon=3.0))
        with pytest.raises(ValueError):
            report.step_times[0] = 5.0
        with pytest.raises(ValueError):
            report.defects[0] = 5.0

    def test_defect_grows_roughly_linearly_early(self, dfwcs):
        cfg = SolverConfig(Method.PAPER_LITERAL, dt=1.0, horizon=3.0)
        _, report = solve_paper_literal(dfwcs, cfg)
        d = report.defects
        assert d[1] == pytest.approx(2 * d[0], rel=1e-4)
        assert d[2] == pytest.approx(3 * d[0], rel=1e-4)

    def test_missing_inflow_keeps_repair_chain_empty(self, dfwcs):
        # the second update equation drops the 1 -> 2 inflow, so from
        # all mass on state 1 nothing ever reaches states 2..6
        cfg = SolverConfig(Method.PAPER_LITERAL, dt=1.0, horizon=50.0)
        traj, _ = solve_paper_literal(dfwcs, cfg)
        assert np.all(traj.probs[:, 1:6] == 0.0)
        assert traj.probs[-1][6] > 0.0

    def test_grid_sampling(self, dfwcs):
        cfg = SolverConfig(Method.PAPER_LITERAL, dt=1.0)
        traj, report = solve_paper_literal(dfwcs, cfg, grid=[0.0, 2.0, 3.0])
        full, _ = solve_paper_literal(
            dfwcs, SolverConfig(Method.PAPER_LITERAL, dt=1.0, horizon=3.0)
        )
        assert np.array_equal(traj.probs[0], full.probs[0])
        assert np.array_equal(traj.probs[1], full.probs[2])
        assert np.array_equal(traj.probs[2], full.probs[3])
        assert len(report.defects) == 3

    def test_solve_at_matches_grid(self, dfwcs):
        cfg = SolverConfig(Method.PAPER_LITERAL, dt=1.0)
        p = solve_at(dfwcs, cfg, 3.0)
        traj, _ = solve_paper_literal(dfwcs, cfg, grid=[3.0])
        assert np.array_equal(p, traj.probs[0])

    def test_misaligned_time_rejected(self, dfwcs):
        cfg = SolverConfig(Method.PAPER_LITERAL, dt=1.0)
        with pytest.raises(ValueError):
            solve_paper_literal(dfwcs, cfg, grid=[0.5])

    @pytest.mark.parametrize("name, grid, from_literal, from_grid", [
        ("toy", [0.5], (ShapeMismatchError, "^literal mode needs states"), (ShapeMismatchError, "^literal mode needs")),
        ("toy", [2.0, 1.0], (ShapeMismatchError, "^literal mode needs states"), (ValueError, "^time grid must be")),
        ("dfwcs", [0.5, 2e6], (NumericFailureError, "takes more than"), (NumericFailureError, "takes more than")),
        ("dfwcs", [], None, None),
    ])
    def test_error_precedence_of_both_entry_points(self, request, name, grid, from_literal, from_grid):
        # solve_paper_literal checks the shape before the grid, solve_grid the
        # grid first; both split the grid with the step cap before they
        # refuse a time off the lattice
        model, cfg = request.getfixturevalue(name), SolverConfig(Method.PAPER_LITERAL, dt=1.0)
        for solve, expected in ((lambda: solve_paper_literal(model, cfg, grid)[0], from_literal),
                                (lambda: solve_grid(model, cfg, grid), from_grid)):
            if expected is None:
                assert len(solve()) == 0
            else:
                with pytest.raises(expected[0], match=expected[1]):
                    solve()

    def test_default_horizon_is_model_option(self, dfwcs):
        traj, _ = solve_paper_literal(dfwcs, SolverConfig(Method.PAPER_LITERAL, dt=1.0))
        assert traj.times[-1] == 4380.0

    def test_perfect_coverage_defect(self, dfwcs):
        # with C = 1 the only leak is the undamped P1 outflow LAMBDA1*dt
        perfect = dfwcs.with_params({"C": 1.0})
        _, report = solve_paper_literal(
            perfect, SolverConfig(Method.PAPER_LITERAL, dt=1.0, horizon=1.0)
        )
        assert report.defects[0] == pytest.approx(3.3e-6, rel=1e-9)

    def test_rejects_other_state_count(self, toy):
        with pytest.raises(ShapeMismatchError):
            solve_paper_literal(toy, SolverConfig(Method.PAPER_LITERAL))

    def test_rejects_wrong_class_map(self, dfwcs):
        relabeled = dataclasses.replace(
            dfwcs,
            states=tuple(
                dataclasses.replace(s, state_class=depmark.StateClass.FAIL_SAFE)
                if s.id == 7 else s
                for s in dfwcs.states
            ),
        )
        with pytest.raises(ShapeMismatchError):
            solve_paper_literal(relabeled, SolverConfig(Method.PAPER_LITERAL))

    def test_wrong_class_message_names_the_state(self, dfwcs):
        states = tuple(dataclasses.replace(s, state_class=depmark.StateClass.OPERATIONAL) for s in dfwcs.states)
        message = "^literal mode expects state 2 to be fail_operational, got operational$"
        with pytest.raises(ShapeMismatchError, match=message):
            solve_paper_literal(dataclasses.replace(dfwcs, states=states), SolverConfig(Method.PAPER_LITERAL))

    def test_rejects_extra_edge(self, dfwcs):
        extra = dataclasses.replace(
            dfwcs,
            transitions=dfwcs.transitions
            + (depmark.Transition(6, 1, depmark.Constant(0.1)),),
        )
        with pytest.raises(ShapeMismatchError):
            solve_paper_literal(extra, SolverConfig(Method.PAPER_LITERAL))

    def test_rejects_missing_edge(self, dfwcs):
        pruned = dataclasses.replace(
            dfwcs, transitions=dfwcs.transitions[:-1]
        )
        with pytest.raises(ShapeMismatchError):
            solve_paper_literal(pruned, SolverConfig(Method.PAPER_LITERAL))

    def test_rejects_inconsistent_coverage(self, dfwcs):
        # replace the detected 1 -> 2 branch with a rate implying a
        # different coverage split than every other failure pair
        new_transitions = tuple(
            dataclasses.replace(tr, rate=depmark.Constant(1e-6))
            if (tr.source, tr.target) == (1, 2) else tr
            for tr in dfwcs.transitions
        )
        skewed = dataclasses.replace(dfwcs, transitions=new_transitions)
        with pytest.raises(ShapeMismatchError):
            solve_paper_literal(skewed, SolverConfig(Method.PAPER_LITERAL))

    def test_rejects_unpatterned_repair(self, dfwcs):
        # 3 -> 2 repairs at MU, not the 2 * MU the equations assume
        new_transitions = tuple(
            dataclasses.replace(tr, rate=depmark.ParamRef("MU"))
            if (tr.source, tr.target) == (3, 2) else tr
            for tr in dfwcs.transitions
        )
        skewed = dataclasses.replace(dfwcs, transitions=new_transitions)
        with pytest.raises(ShapeMismatchError, match="repair rates are not in the 1x / 2x / 1x pattern"):
            solve_paper_literal(skewed, SolverConfig(Method.PAPER_LITERAL))

    def test_rejects_unequal_backup_rates(self, dfwcs):
        # row 3 fails at twice row 2's backup rate, with the same coverage
        new_transitions = tuple(
            dataclasses.replace(tr, rate=depmark.Product(depmark.Constant(2.0), tr.rate))
            if (tr.source, tr.target) in ((3, 6), (3, 7)) else tr
            for tr in dfwcs.transitions
        )
        skewed = dataclasses.replace(dfwcs, transitions=new_transitions)
        with pytest.raises(ShapeMismatchError, match="rows 2 and 3 imply different backup failure rates"):
            solve_paper_literal(skewed, SolverConfig(Method.PAPER_LITERAL))


class TestTrajectoryType:
    def test_rows_are_read_only(self, dfwcs):
        traj = solve_grid(dfwcs, UNI, [0.0, 1.0])
        with pytest.raises(ValueError):
            traj.probs[0, 0] = 2.0

    def test_len_and_row(self, dfwcs):
        traj = solve_grid(dfwcs, UNI, [0.0, 1.0, 2.0])
        assert len(traj) == 3
        assert np.array_equal(traj.row(0), dfwcs.initial_vector())
        assert traj.ids == (1, 2, 3, 4, 5, 6, 7)

    def test_caller_grid_stays_writable(self, dfwcs):
        # a trajectory freezes its own copy of the times, not the caller's
        grid = np.array([0.0, 1.0, 2.0])
        literal, _ = solve_paper_literal(dfwcs, SolverConfig(Method.PAPER_LITERAL, dt=1.0), grid)
        for traj in (solve_grid(dfwcs, UNI, grid), literal):
            assert not traj.times.flags.writeable
        assert grid.flags.writeable


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(eps=0.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.0)
        with pytest.raises(ValueError):
            SolverConfig(horizon=-1.0)

    def test_eps_floor(self):
        # below about 1e-305 the weights at a stop are subnormal and no span
        # fixed in advance holds them; the floor leaves five orders of margin
        for eps in (5e-324, 1e-301, 1.0, math.nan):
            with pytest.raises(ValueError, match=r"eps must be in \[1e-300, 1\)"):
                SolverConfig(eps=eps)
        assert SolverConfig(eps=1e-300).eps == 1e-300

    def test_non_finite_step_and_horizon(self):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                SolverConfig(dt=value)
            with pytest.raises(ValueError, match="finite"):
                SolverConfig(horizon=value)

    def test_non_finite_model_horizon(self, dfwcs):
        # a model built in code can carry any horizon; the march refuses it
        # as it refuses such a grid time, before splitting it into steps
        endless = dataclasses.replace(dfwcs, horizon=math.inf)
        with pytest.raises(ValueError, match="finite"):
            solve_euler(endless, SolverConfig(Method.EULER))
        with pytest.raises(ValueError, match="finite"):
            solve_paper_literal(endless, SolverConfig(Method.PAPER_LITERAL))

    def test_lattice_steps(self):
        # within 1e-9 of the lattice a time is whole steps; off it, whole
        # steps plus a remainder
        whole, rem = solve_module._lattice_steps(np.array([0.0, 1.0, 1.5, 3.0 + 1e-12, 3.7]), 0.5)
        assert whole.tolist() == [0, 2, 3, 6, 7]
        assert rem[:4].tolist() == [0.0, 0.0, 0.0, 0.0] and rem[4] == pytest.approx(0.2)

    def test_method_names(self):
        assert Method("uniformization") is Method.UNIFORMIZATION
        assert Method("expm") is Method.MATRIX_EXP
        assert Method("euler") is Method.EULER
        assert Method("paper-literal") is Method.PAPER_LITERAL
        with pytest.raises(ValueError):
            Method("magic")


class TestOracleSanity:
    """The from-scratch matrix exponential used as the independent
    reference route, checked only against pencil-and-paper cases so the
    routes stay decoupled."""

    def test_scalar(self):
        assert oracle_expm.expm_taylor(np.array([[0.7]]))[0, 0] == pytest.approx(
            math.exp(0.7), rel=1e-14
        )

    def test_nilpotent(self):
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(oracle_expm.expm_taylor(n), [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    def test_rotation(self):
        a = np.array([[0.0, 2.0], [-2.0, 0.0]])
        expected = [
            [math.cos(2.0), math.sin(2.0)],
            [-math.sin(2.0), math.cos(2.0)],
        ]
        assert np.allclose(oracle_expm.expm_taylor(a), expected, atol=1e-13)

    def test_two_state_generator(self):
        q = np.array([[-0.5, 0.5], [0.0, 0.0]])
        p = oracle_expm.transient_distribution(q, np.array([1.0, 0.0]), 2.0)
        assert abs(p[1] - (1 - math.exp(-1.0))) <= 1e-13


class TestGridArrays:
    """The grid paths work on whole arrays: Poisson windows for many times
    at once, one in-order weighted sum per chunk of rows, and batched
    matrix exponentials.  None of it may change a row's bits."""

    QS = (1e-6, 0.3, 1.0, 1.19, 121.7, 5.3e4)
    # (lo, end) of each window at eps = 1e-12 as the scalar, one-term-at-a-
    # time recurrence gave them
    BOUNDS = ((0, 3), (0, 11), (0, 16), (0, 17), (51, 211), (51345, 54673))

    def test_batch_windows_equal_one_row_windows(self):
        for qs in (np.array(self.QS), np.array(self.QS[::-1]), np.array(self.QS[1:4])):
            first, end, weights = solve_module._poisson_windows(qs, UNI.eps)
            for r, q in enumerate(qs):
                (lo,), _, (row,) = solve_module._poisson_windows(np.array([q]), UNI.eps)
                assert end[r] == lo + len(row)
                start = lo - first[r]
                assert start >= 0
                assert np.array_equal(weights[r, start:start + len(row)], row)
                assert not weights[r, :start].any() and not weights[r, start + len(row):].any()

    def test_window_bounds_and_neglected_mass(self):
        for q, bounds in zip(self.QS, self.BOUNDS):
            (lo,), _, (weights,) = solve_module._poisson_windows(np.array([q]), UNI.eps)
            assert (lo, lo + len(weights)) == bounds
            # the tails a window drops, measured on a far wider window
            # from the same recurrence
            (wide_lo,), _, (wide,) = solve_module._poisson_windows(np.array([q]), 1e-30)
            for eps in (1e-12, 1e-6):
                (lo,), _, (weights,) = solve_module._poisson_windows(np.array([q]), eps)
                kept = wide[lo - wide_lo:lo - wide_lo + len(weights)]
                assert np.array_equal(kept, weights)
                assert math.fsum(wide) - math.fsum(weights) < eps * math.fsum(wide)
                if q < 200.0:
                    # the mode weight is accurate here, so the whole mass is
                    # within eps of one; at large q its rounding dominates
                    assert 1.0 - math.fsum(weights) < eps

    def test_hourly_grid_rows_equal_pointwise_solves(self, dfwcs):
        # 4381 rows span many chunks; sample rows across all of them
        grid = [float(k) for k in range(4381)]
        traj = solve_grid(dfwcs, UNI, grid)
        for k in list(range(0, 4381, 97)) + [4379, 4380]:
            assert np.array_equal(traj.probs[k], solve_at(dfwcs, UNI, grid[k]))

    def test_underflowing_times_return_initial(self, dfwcs):
        # L * 5e-324 rounds to 0: such a row is the initial vector
        grid = [0.0, 5e-324, 1.0]
        traj = solve_grid(dfwcs, UNI, grid)
        assert np.array_equal(traj.probs[1], dfwcs.initial_vector())
        for k, t in enumerate(grid):
            assert np.array_equal(traj.probs[k], solve_at(dfwcs, UNI, t))

    def test_wider_earlier_chunk_rebuilds_block(self, dfwcs, monkeypatch):
        # pad the window of t = 1 (L*t < 1) with zero terms so that it ends
        # past the ring built for t = 4380; the padding must not change a bit
        plain = [solve_at(dfwcs, UNI, t) for t in (1.0, 4380.0)]
        windows = solve_module._poisson_windows
        ring = solve_module._power_ring
        rings = []

        def padded(qs, eps):
            first, end, weights = windows(qs, eps)
            if qs.max() < 1.0:
                end = end + 300
                weights = np.pad(weights, ((0, 0), (0, 300)))
            return first, end, weights

        def counted(p0, stochs, base, size, end):
            rings.append((base.tolist(), size))
            return ring(p0, stochs, base, size, end)

        monkeypatch.setattr(solve_module, "_poisson_windows", padded)
        monkeypatch.setattr(solve_module, "_power_ring", counted)
        traj = solve_grid(dfwcs, UNI, [1.0, 4380.0])
        assert rings == [([0], 256), ([0], 512)]
        for row, expected in zip(traj.probs, plain):
            assert np.array_equal(row, expected)

    def test_expm_grid_rows_equal_pointwise_and_per_row_expm(self, dfwcs):
        import scipy.linalg

        # more rows than one stack of exponentials holds
        grid = list(np.linspace(0.0, 4380.0, 150))
        traj = solve_grid(dfwcs, EXPM, grid)
        q = build_generator(dfwcs).entries
        p0 = dfwcs.initial_vector()
        for k, t in enumerate(grid):
            row = np.clip(p0 @ scipy.linalg.expm(q * t), 0.0, 1.0)
            assert np.array_equal(traj.probs[k], row)
            if k % 50 == 0:
                assert np.array_equal(traj.probs[k], solve_at(dfwcs, EXPM, t))

    def test_finalize_block_with_one_bad_row(self):
        block = np.full((5, 3), 1.0 / 3.0)
        block[2, 0] = -1e-12
        clamped = solve_module._finalize(block.copy())
        assert clamped[2, 0] == 0.0 and np.array_equal(clamped[[0, 1, 3, 4]], block[[0, 1, 3, 4]])
        for bad in (-1e-6, 1.0 + 1e-6):
            block[2, 0] = bad
            with pytest.raises(NumericFailureError):
                solve_module._finalize(block)

    def test_finalize_refuses_nan_row(self):
        # every comparison with NaN is false, so the check must pass only
        # when the bounds hold, not fail only when they are broken
        block = np.full((3, 3), 1.0 / 3.0)
        block[1] = np.nan
        with pytest.raises(NumericFailureError):
            solve_module._finalize(block)
        with pytest.raises(NumericFailureError):
            solve_module._finalize(np.array([np.nan, 1.0]))

    def test_axis0_sum_adds_in_term_order(self):
        # the grid rows equal pointwise solves only because numpy sums a
        # (terms, rows, n) block over axis 0 one term after another; zero
        # padding then adds exact zeros.  A numpy that changes this order
        # fails here first.
        rng = np.random.default_rng(5)
        for shape in ((1, 1, 7), (150, 1, 7), (150, 31, 7), (3400, 2, 7), (8, 3, 1), (1000, 64, 7)):
            block = rng.random(shape) * 10.0 ** rng.uniform(-18.0, 0.0, shape)
            acc = np.zeros(shape[1:])
            for term in block:
                acc += term
            assert np.array_equal(block.sum(axis=0), acc)
        # the data is order sensitive: summing backwards differs
        backwards = np.zeros(shape[1:])
        for term in block[::-1]:
            backwards += term
        assert not np.array_equal(backwards, acc)


class TestStacks:
    """A grid (one generator, many times) and a sweep (many generators, one
    time) are one kernel on a stack of generators.  Stacking may not change
    a bit."""

    @pytest.mark.parametrize("m", [1, 7, 64, 1024])
    @pytest.mark.parametrize("n", [2, 7, 13])
    def test_stacked_matmul_equals_per_slice_products(self, m, n):
        # the doubling writes rows [m, 2m) of every slice from its rows
        # [0, m) as one stacked product into the same block, and squares
        # the stack of jumps; each slice must get the 2-D product's bits
        rng = np.random.default_rng(1000 * m + n)
        jumps = rng.random((5, n, n)) / n
        block = np.empty((5, 2 * m, n))
        block[:, :m] = rng.random((5, m, n)) * 10.0 ** rng.uniform(-12.0, 0.0, (5, m, n))
        np.matmul(block[:, :m], jumps, out=block[:, m:2 * m])
        squares = jumps @ jumps
        for b in range(5):
            assert np.array_equal(block[b, m:], block[b, :m] @ jumps[b])
            assert np.array_equal(squares[b], jumps[b] @ jumps[b])

    def test_build_generators_equal_per_value_generators(self, dfwcs, dfwcs_pid, toy):
        for model in (dfwcs, dfwcs_pid, toy):
            assert build_generators(model).tobytes() == build_generator(model).entries.tobytes()
            for param, base in model.params.items():
                if param in model.coverage:
                    values = [0.0, 0.5, base, 0.999, 1.0, 0.5]
                else:
                    values = [0.0, base, 2.5 * base, base / 3.0, 1.0, 6.0]
                stack = build_generators(model, param, values)
                assert stack.shape == (len(values), model.n, model.n)
                for value, q in zip(values, stack):
                    expected = build_generator(model.with_params({param: value})).entries
                    assert q.tobytes() == expected.tobytes()
            assert build_generators(model, "C", []).shape == (0, model.n, model.n)

    @pytest.mark.parametrize(
        "config, grid",
        [
            (UNI, [0.0, 1.0, 50.0, 4380.0]),
            (EXPM, [0.0, 1.0, 50.0, 4380.0]),
            (SolverConfig(Method.EULER, dt=0.5), [0.0, 0.3, 1.0, 40.0]),
            (SolverConfig(Method.PAPER_LITERAL, dt=1.0), [0.0, 1.0, 40.0]),
        ],
        ids=lambda x: x.method.value if isinstance(x, SolverConfig) else "",
    )
    def test_stack_rows_equal_pointwise_solves(self, dfwcs, config, grid):
        # many generators at many times: entry [b, k] is the solve of the
        # b-th value at the k-th time, whatever else is in the stack
        values = [0.9, 0.0, 1.0, 0.95]
        probs = solve_module._solve_stack(dfwcs, build_generators(dfwcs, "C", values), config, grid)
        assert probs.shape == (len(values), len(grid), dfwcs.n)
        for b, value in enumerate(values):
            model = dfwcs.with_params({"C": value})
            for k, t in enumerate(grid):
                assert np.array_equal(probs[b, k], solve_at(model, config, t))

    def test_zero_rate_generator_in_a_stack(self, toy):
        # L = 0 between live values: its rows are the initial vector, and
        # the block the others read must stay finite
        values = [0.25, 0.0, 0.5, 0.0, 2.0]
        probs = solve_module._solve_stack(toy, build_generators(toy, "L", values), UNI, [0.0, 3.0])
        for b, value in enumerate(values):
            assert np.array_equal(probs[b, 0], toy.initial_vector())
            assert np.array_equal(probs[b, 1], solve_at(toy.with_params({"L": value}), UNI, 3.0))

    # a sweep whose L falls as the value rises: 100 at C = 0, 0.001 at C = 1
    FALLING = (
        "param C = 0.5 coverage;\n"
        'state 1 "up" class = operational;\nstate 2 "down" class = fail_safe;\n'
        "trans 1 -> 2 rate = (1 - C) * 100;\ntrans 2 -> 1 rate = 0.001;\n"
    )

    def _record_chunks(self, monkeypatch):
        """Record (rows, width) of every window call and (generators, size,
        bases, window calls before it) of every power ring the
        uniformization kernel makes."""
        windows, rings = [], []
        poisson_windows, power_ring = solve_module._poisson_windows, solve_module._power_ring

        def record_windows(qs, eps):
            first, end, weights = poisson_windows(qs, eps)
            windows.append(weights.shape)
            return first, end, weights

        def record_ring(p0, stochs, base, size, end):
            rings.append((len(stochs), size, base.tolist(), len(windows)))
            return power_ring(p0, stochs, base, size, end)

        monkeypatch.setattr(solve_module, "_poisson_windows", record_windows)
        monkeypatch.setattr(solve_module, "_power_ring", record_ring)
        return windows, rings

    def test_chunks_fit_the_budget_when_l_falls_along_a_sweep(self, monkeypatch):
        # each chunk is sized from its own rows: a chunk after the tiny-L
        # last value may not take the wide windows before it, and its rings
        # follow its own windows, not the L*t of the widest
        model = parse(self.FALLING)
        values = [k / 100.0 for k in range(101)]
        windows, rings = self._record_chunks(monkeypatch)
        rows = depmark.sweep(model, "C", values, 43.8)
        budget = solve_module._CHUNK_FLOATS
        assert len(rings) > 1 and max(width for _, width in windows) > 900
        assert any(min(bases) > 0 for _, _, bases, _ in rings)  # lifted past term 0
        for count, width in windows:
            assert count == 1 or count * width * (model.n + 1) <= budget
        for gens, size, _, made in rings:
            # a ring serves the chunk of the window call just before it
            count, width = windows[made - 1]
            assert gens <= count and size < 2 * width
            assert gens * size * model.n <= 2 * budget
        monkeypatch.undo()
        for row, value in zip(rows, values):
            alone = solve_at(model.with_params({"C": value}), UNI, 43.8)
            assert row.metrics == depmark.metrics(alone, model, 43.8)

    def test_wide_windows_fit_their_chunk(self, dfwcs, monkeypatch):
        # at eps = 1e-50 the windows are far wider than at 1e-12; the chunks
        # are sized by their span, so each window call fits the budget at once
        config = SolverConfig(eps=1e-50)
        grid = [float(t) for t in range(0, 4381, 3)]
        windows, _ = self._record_chunks(monkeypatch)
        traj = solve_grid(dfwcs, config, grid)
        monkeypatch.undo()
        for count, width in windows:
            assert count == 1 or count * width * (dfwcs.n + 1) <= solve_module._CHUNK_FLOATS
        for k in (0, 1, 500, len(grid) - 1):
            assert np.array_equal(traj.probs[k], solve_at(dfwcs, config, grid[k]))

    @staticmethod
    def _lts(model, param, values, t):
        """The L*t of each value's generator at time t."""
        gens = build_generators(model, param, values)
        return -gens.diagonal(axis1=1, axis2=2).min(axis=1) * t

    def test_coverage_sweep_makes_one_window_per_distinct_lt(self, dfwcs, monkeypatch):
        # L is state 3's exit rate 2 MU + LAMBDA2 C + LAMBDA2 (1 - C), which
        # rounds two ways across C: 1001 rows, two L*t, interleaved
        values = [k / 1000.0 for k in range(1001)]
        lts = self._lts(dfwcs, "C", values, 4380.0)
        assert len(set(lts.tolist())) == 2
        windows, rings = self._record_chunks(monkeypatch)
        probs = solve_module._solve_stack(dfwcs, build_generators(dfwcs, "C", values), UNI, [4380.0])[:, 0]
        monkeypatch.undo()
        assert len(rings) > 20  # many chunks
        assert sum(count for count, _ in windows) <= 4
        # rows spread over every chunk, covering both L*t
        picked = list(range(0, 1001, 40)) + [999, 1000]
        assert len(set(lts[picked].tolist())) == 2
        for k in picked:
            assert np.array_equal(probs[k], solve_at(dfwcs.with_params({"C": values[k]}), UNI, 4380.0))

    def test_stiff_coverage_sweep_makes_one_window_per_distinct_lt(self, dfwcs, monkeypatch):
        # at MU = 6 a window spans thousands of terms, so a chunk holds one
        # or two rows, and the held windows must serve the later chunks
        stiff = dfwcs.with_params({"MU": 6.0})
        values = [0.9 + k / 100.0 for k in range(11)]
        assert len(set(self._lts(stiff, "C", values, 4380.0).tolist())) == 2
        windows, rings = self._record_chunks(monkeypatch)
        probs = solve_module._solve_stack(stiff, build_generators(stiff, "C", values), UNI, [4380.0])[:, 0]
        monkeypatch.undo()
        assert len(rings) > 4 and sum(count for count, _ in windows) <= 4
        for value, row in zip(values, probs):
            assert np.array_equal(row, solve_at(stiff.with_params({"C": value}), UNI, 4380.0))

    def test_hourly_grid_asks_for_each_lt_once(self, dfwcs, monkeypatch):
        # no two L*t of a one-generator grid are equal: each row makes its
        # own window, in the chunk that reads it
        asked = []
        poisson_windows = solve_module._poisson_windows

        def record_values(qs, eps):
            asked.extend(qs.tolist())
            return poisson_windows(qs, eps)

        monkeypatch.setattr(solve_module, "_poisson_windows", record_values)
        solve_grid(dfwcs, UNI, range(4381))
        expected = self._lts(dfwcs, "C", [dfwcs.params["C"]], 1.0)[0] * np.arange(1.0, 4381.0)
        assert sorted(asked) == expected.tolist()

    def test_stack_of_repeated_generators_equals_pointwise_solves(self, dfwcs):
        values = [0.9, 0.95, 0.9, 1.0, 0.95, 0.9]
        grid = [0.0, 1.0, 50.0, 4380.0]
        probs = solve_module._solve_stack(dfwcs, build_generators(dfwcs, "C", values), UNI, grid)
        for b, value in enumerate(values):
            model = dfwcs.with_params({"C": value})
            for k, t in enumerate(grid):
                assert np.array_equal(probs[b, k], solve_at(model, UNI, t))

    def test_repair_rate_sweep_with_distinct_l_equals_pointwise_solves(self, dfwcs):
        values = [k / 100.0 for k in range(101)]
        assert len(set(self._lts(dfwcs, "MU", values, 1.0).tolist())) == 101
        probs = solve_module._solve_stack(dfwcs, build_generators(dfwcs, "MU", values), UNI, [4380.0])[:, 0]
        for value, row in zip(values, probs):
            assert np.array_equal(row, solve_at(dfwcs.with_params({"MU": value}), UNI, 4380.0))

    def test_held_windows_wider_than_a_chunk_are_made_again(self, dfwcs, monkeypatch):
        # the windows held for a chunk with a stiff row (thousands of terms)
        # cover the 299 narrow rows before it, but read by all of them they
        # would hold tens of megabytes; the chunk makes its own narrow ones
        import tracemalloc

        values = [0.001] * 300 + [6.0, 0.001]
        gens = build_generators(dfwcs, "MU", values)
        windows, _ = self._record_chunks(monkeypatch)
        tracemalloc.start()
        try:
            probs = solve_module._solve_stack(dfwcs, gens, UNI, [4380.0])[:, 0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert peak < 8 * 8 * solve_module._CHUNK_FLOATS
        assert sum(count for count, _ in windows) <= 4
        narrow, stiff = (solve_at(dfwcs.with_params({"MU": mu}), UNI, 4380.0) for mu in (0.001, 6.0))
        assert all(np.array_equal(row, stiff if value == 6.0 else narrow) for value, row in zip(values, probs))

    def test_sparse_distinct_range_keeps_the_budget(self, dfwcs, monkeypatch):
        # MU = 1/72 twice around MU = 0.014 on a grid: L differs by 0.8 %, so
        # in sorted order the L*t of a chunk of one generator alternate with
        # those of the other, and the chunk's range holds about twice its
        # rows; it makes its own windows
        values = [1 / 72, 0.014, 1 / 72]
        grid = [float(t) for t in range(0, 4381, 10)]
        windows, _ = self._record_chunks(monkeypatch)
        probs = solve_module._solve_stack(dfwcs, build_generators(dfwcs, "MU", values), UNI, grid)
        monkeypatch.undo()
        for count, width in windows:
            assert count == 1 or count * width * (dfwcs.n + 1) <= solve_module._CHUNK_FLOATS
        for b, value in enumerate(values):
            model = dfwcs.with_params({"MU": value})
            for k in (1, 200, len(grid) - 1):
                assert np.array_equal(probs[b, k], solve_at(model, UNI, grid[k]))

    def test_stacks_with_repeated_lt_equal_pointwise_solves(self, dfwcs, monkeypatch):
        # seeded differential: up to 40 values drawn from a pool of at most
        # 6, so rows share L*t within and across chunks.  Some runs read
        # held windows in a later chunk, others make them again, and no row
        # may change a bit
        falling = parse(self.FALLING)
        cases = {
            "dfwcs C": (dfwcs, "C", st.floats(0.0, 1.0)),
            "dfwcs MU": (dfwcs, "MU", st.floats(0.0, 6.0)),
            "falling C": (falling, "C", st.floats(0.0, 1.0)),
        }
        windows, rings = self._record_chunks(monkeypatch)
        seen = set()

        @settings(max_examples=40)
        @given(
            case=st.sampled_from(sorted(cases)),
            data=st.data(),
            grid=st.lists(st.floats(0.0, 4380.0), min_size=1, max_size=6, unique=True).map(sorted),
            eps=st.sampled_from([1e-12, 1e-30]),
        )
        def check(case, data, grid, eps):
            model, param, value = cases[case]
            pool = data.draw(st.lists(value, min_size=1, max_size=6))
            values = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
            config = SolverConfig(eps=eps)
            gens = build_generators(model, param, values)
            windows.clear()
            rings.clear()
            probs = solve_module._solve_stack(model, gens, config, grid)
            live = int(np.count_nonzero(self._lts(model, param, values, 1.0)[:, np.newaxis] * grid))
            made = [calls for *_, calls in rings]
            if any(a == b for a, b in zip(made, made[1:])):
                seen.add("reused")  # a chunk read only held windows
            if len(windows) > 1 and sum(count for count, _ in windows) < live:
                seen.add("recomputed")
            alone = {}
            for b, v in enumerate(values):
                for k, t in enumerate(grid):
                    if (v, t) not in alone:
                        alone[v, t] = solve_at(model.with_params({param: v}), config, t)
                    assert np.array_equal(probs[b, k], alone[v, t])

        check()
        assert seen == {"reused", "recomputed"}

    def test_finalize_names_the_first_bad_row(self):
        block = np.full((1001, 7), 1.0 / 7.0)
        block[300, 3] = -1e-6
        block[700, 1] = 2.0
        for stack in (block, block.reshape(7, 143, 7)):
            with pytest.raises(NumericFailureError) as exc:
                solve_module._finalize(stack.copy())
            message = str(exc.value)
            assert message.endswith(f"in row 300: {block[300]!r}")
            assert len(message) < 300


class TestExpmKernels:
    """``MATRIX_EXP`` runs SciPy's own Pade step on each slice and squares the
    slices in stacks; the slices SciPy sends down its diagonal or triangular
    branch, and every slice where the kernels are missing, take the public
    ``scipy.linalg.expm``.  No route may change a bit."""

    HOURLY = [float(t) for t in range(4381)]
    KERNELS = "scipy.linalg._matfuncs_expm"
    # a model whose generator is [[-100, 100], [5e-324, -5e-324]]: at t = 0.4
    # the second row underflows to 0 while SciPy still squares 4 times; at
    # t = 0.6 it rounds up to 5e-324
    UNDERFLOW = (
        'state 1 "a" class = operational;\nstate 2 "b" class = fail_safe;\n'
        "trans 1 -> 2 rate = 100;\ntrans 2 -> 1 rate = 5e-324;\n"
    )

    def _stacks(self, request):
        dfwcs, toy = request.getfixturevalue("dfwcs"), request.getfixturevalue("toy")
        mu = [0.0, 0.5, 6.0]  # MU = 0 makes Q upper triangular
        return {
            "mu_sweep": ([dfwcs.with_params({"MU": v}) for v in mu], build_generators(dfwcs, "MU", mu), [4380.0]),
            # 14, 11, 18 and 8 squarings: the stacked squarings sort them
            "mu_unsorted": (
                [dfwcs.with_params({"MU": v}) for v in (6.0, 0.5, 60.0, 0.1)],
                build_generators(dfwcs, "MU", [6.0, 0.5, 60.0, 0.1]),
                [4380.0],
            ),
            "dfwcs_pid": ([request.getfixturevalue("dfwcs_pid")], None, self.HOURLY),
            "toy": ([toy], None, self.HOURLY),
            # 0, 6 and 10 of the 18 nonzero entries survive the products
            "tiny_times": ([dfwcs], None, [0.0, 5e-324, 1e-320, 1e-318]),
            "underflow": ([parse(self.UNDERFLOW)], None, [0.4, 0.6]),
        }

    def _count_public(self, monkeypatch) -> list[int]:
        """Record the slices of every call to the public scipy.linalg.expm."""
        import scipy.linalg

        calls, expm = [], scipy.linalg.expm

        def counted(a):
            calls.append(len(a))
            return expm(a)

        monkeypatch.setattr(scipy.linalg, "expm", counted)
        return calls

    @pytest.mark.parametrize("name", ["mu_sweep", "mu_unsorted", "dfwcs_pid", "toy", "tiny_times", "underflow"])
    def test_rows_equal_public_expm_and_solve_at(self, request, name):
        import scipy.linalg

        models, gens, grid = self._stacks(request)[name]
        gens = build_generators(models[0]) if gens is None else gens
        probs = solve_module._solve_stack(models[0], gens, EXPM, grid)
        for model, q, rows in zip(models, gens, probs):
            p0 = model.initial_vector()
            for t, row in zip(grid, rows):
                assert np.array_equal(row, np.clip(p0 @ scipy.linalg.expm(q * t), 0.0, 1.0)), t
            for t, row in zip(grid, rows):
                assert np.array_equal(row, solve_at(model, EXPM, t)), t

    def test_public_route_only_where_scipy_branches(self, dfwcs, dfwcs_pid, toy, monkeypatch):
        calls = self._count_public(monkeypatch)
        for model in (dfwcs, dfwcs_pid):
            solve_grid(model, EXPM, self.HOURLY[1:])
        assert calls == []
        for model, grid, public in (
            (toy, [1.0, 2.0], [2]),
            (dfwcs.with_params({"MU": 0.0}), [4379.0, 4380.0], [2]),
            (dfwcs, [0.0, 1.0], [1]),
            (dfwcs, [4380.0], []),  # a lone slice
        ):
            solve_grid(model, EXPM, grid)
            assert calls == public, (model, grid)
            calls.clear()

    @pytest.mark.parametrize("kernels", ["blocked", "two_arguments", "three_results"])
    def test_public_route_without_the_kernels(self, dfwcs, monkeypatch, kernels):
        grid = [0.0, 1.0, 50.0] + [float(t) for t in range(100, 200)] + [4380.0]
        expected = solve_grid(dfwcs, EXPM, grid).probs
        stub = None
        if kernels != "blocked":
            stub = types.ModuleType(self.KERNELS)
            if kernels == "two_arguments":
                stub.pick_pade_structure = lambda am, n: (13, 0)
            else:
                stub.pick_pade_structure = lambda am: (13, 0, 0)
            stub.pade_UV_calc = lambda am, m: 0
        monkeypatch.setitem(sys.modules, self.KERNELS, stub)
        calls = self._count_public(monkeypatch)
        probs = solve_grid(dfwcs, EXPM, grid).probs
        assert sum(calls) == len(grid)
        assert np.array_equal(probs, expected)

    @pytest.mark.parametrize(
        "pick, code, error",
        [((-1, 0), 0, MemoryError), ((13, 0), -3, RuntimeError), ((13, 0), -11, MemoryError)],
    )
    def test_kernel_failures_raise_as_scipy_does(self, dfwcs, monkeypatch, pick, code, error):
        stub = types.ModuleType(self.KERNELS)
        stub.pick_pade_structure = lambda am: pick
        stub.pade_UV_calc = lambda am, m: code
        monkeypatch.setitem(sys.modules, self.KERNELS, stub)
        with pytest.raises(error, match="error code"):
            solve_grid(dfwcs, EXPM, [1.0, 2.0])

    def test_stacks_hold_at_most_one_chunk(self, dfwcs, monkeypatch):
        # one stack of all 4381 slices, or gathers of it, would add ~2 MB of
        # peak RSS per grid; every stack the route builds is one chunk
        sizes = []
        slices, matmul = solve_module._expm_slices, np.matmul

        def record_slices(stack, generic):
            sizes.append(len(stack))
            return slices(stack, generic)

        def record_matmul(a, b, **kwargs):
            sizes.extend(len(x) for x in (a, b) if np.ndim(x) == 3)
            return matmul(a, b, **kwargs)

        public = self._count_public(monkeypatch)
        monkeypatch.setattr(solve_module, "_expm_slices", record_slices)
        monkeypatch.setattr(np, "matmul", record_matmul)
        solve_grid(dfwcs, EXPM, self.HOURLY)
        monkeypatch.undo()
        assert len(sizes) > 4381 // solve_module._EXPM_ROWS and public == [1]
        assert max(sizes + public) == solve_module._EXPM_ROWS

    # OpenBLAS picks its kernels when it loads, so only a child can run another
    ROWS_UNDER_A_KERNEL = (
        "import numpy as np, scipy.linalg, depmark\n"
        "from depmark import Method, SolverConfig, build_generator, solve_at, solve_grid\n"
        "model = depmark.load_model(depmark.bundled_model_path('dfwcs.mdl'))\n"
        "config, grid = SolverConfig(Method.MATRIX_EXP), np.linspace(0.0, 4380.0, 150)\n"
        "q, p0 = build_generator(model).entries, model.initial_vector()\n"
        "for t, row in zip(grid.tolist(), solve_grid(model, config, grid).probs):\n"
        "    assert np.array_equal(row, np.clip(p0 @ scipy.linalg.expm(q * t), 0.0, 1.0)), t\n"
        "    assert np.array_equal(row, solve_at(model, config, t)), t\n"
    )

    def test_grid_rows_equal_expm_under_the_avx_kernel(self):
        # Sandybridge's kernels round SciPy's Pade step differently on a
        # scratch slice that starts off a 16-byte boundary; a CPU without
        # AVX cannot run them and checks its own kernels
        path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        if "avx" in kernels.cpu_flags():
            env["OPENBLAS_CORETYPE"] = "Sandybridge"
        subprocess.run([sys.executable, "-c", self.ROWS_UNDER_A_KERNEL], env=env, check=True, timeout=120)


def _birth_death(n: int) -> MarkovModel:
    """A chain 1 -> 2 -> ... -> n with repairs back down; state n is fail-safe."""
    states = [State(i, f"s{i}", StateClass.OPERATIONAL if i < n else StateClass.FAIL_SAFE) for i in range(1, n + 1)]
    transitions = [Transition(i, i + 1, Constant(0.01)) for i in range(1, n)]
    transitions += [Transition(i + 1, i, Constant(0.5), TransitionKind.REPAIR) for i in range(1, n - 1)]
    return MarkovModel(tuple(states), tuple(transitions), ParameterSet(), {1: 1.0})


class TestExpmBranch:
    """Each slice's route follows SciPy's own test on that slice."""

    @staticmethod
    def _generic(monkeypatch, model, gens, grid):
        """The ``generic`` flags of the one chunk that _expm_rows builds."""
        seen = []

        class Stop(Exception):
            pass

        def record(stack, generic):
            seen.append((stack.copy(), generic.copy()))
            raise Stop

        monkeypatch.setattr(solve_module, "_expm_slices", record)
        with pytest.raises(Stop):
            solve_module._expm_rows(model.initial_vector(), gens, EXPM, np.asarray(grid, dtype=float))
        return seen[0]

    @pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")  # inf * 0.0
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_branch_is_scipy_bandwidth_per_slice(self, monkeypatch, seed):
        import scipy.linalg

        rng = np.random.default_rng(seed)
        n = 5
        full = rng.uniform(0.1, 2.0, (n, n))
        one_band = np.diag(rng.uniform(0.1, 2.0, n - 1), k=1) + np.diag(rng.uniform(-2.0, -0.1, n))
        corner = np.zeros((n, n))
        corner[n - 1, 0] = 3.0
        tiny = full * 10.0 ** rng.uniform(-320, -300, (n, n))  # at t = 1e-14 some products underflow
        one_inf = np.triu(full)
        one_inf[2, 1] = np.inf
        gens = np.stack([
            full, np.zeros((n, n)), np.triu(full), np.tril(full), one_band, one_band.T,
            np.diag(np.diag(full)), corner, corner.T + corner, tiny, one_inf, np.full((n, n), np.inf),
        ])
        gens[rng.integers(len(gens))] *= -1.0
        grid = [1.0, 1e-14, 0.0]
        stack, generic = self._generic(monkeypatch, _birth_death(n), gens, grid)
        assert len(stack) == len(gens) * len(grid)
        expected = [min(scipy.linalg.bandwidth(s)) > 0 for s in stack]
        assert generic.tolist() == expected
        assert 0 < sum(expected) < len(expected)

    def test_public_expm_gets_the_banded_slices_only(self, dfwcs, monkeypatch):
        import scipy.linalg

        calls, expm = [], scipy.linalg.expm

        def counted(a):
            calls.append(a.copy())
            return expm(a)

        monkeypatch.setattr(scipy.linalg, "expm", counted)
        grid = [0.0, 5e-324, 1e-320, 1e-318]
        q = build_generator(dfwcs).entries
        rows = solve_grid(dfwcs, EXPM, grid).probs
        # t = 1e-318 keeps 10 of the 18 entries, above and below the diagonal
        assert [len(a) for a in calls] == [3]
        assert all(min(scipy.linalg.bandwidth(s)) == 0 for s in calls[0])
        assert np.array_equal(calls[0], np.stack([q * t for t in grid[:3]]))
        monkeypatch.undo()
        for t, row in zip(grid, rows):
            assert np.array_equal(row, np.clip(dfwcs.initial_vector() @ scipy.linalg.expm(q * t), 0.0, 1.0))

    @pytest.mark.parametrize("n, points, sizes", [(40, 64, [40, 24]), (300, 3, [1, 1, 1])])
    def test_chunks_hold_at_most_chunk_floats(self, monkeypatch, n, points, sizes):
        # 64 slices of a 500-state chain held about 440 MB at once
        model = _birth_death(n)
        grid = np.linspace(1.0, 100.0, points)
        seen, slices = [], solve_module._expm_slices

        def record(stack, generic):
            seen.append(len(stack))
            return slices(stack, generic)

        monkeypatch.setattr(solve_module, "_expm_slices", record)
        probs = solve_grid(model, EXPM, grid).probs
        monkeypatch.undo()
        assert seen == sizes
        assert max(seen) * n * n <= max(n * n, solve_module._CHUNK_FLOATS)
        for row in (0, -1):
            assert np.array_equal(probs[row], solve_at(model, EXPM, grid[row]))
