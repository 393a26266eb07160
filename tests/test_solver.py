"""Transient solvers: closed forms, cross-checks, stepping, literal mode."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle_expm
import depmark
import depmark.solve as solve_module
from conftest import REPO_ROOT
from depmark import (
    MarkovModel,
    Method,
    NumericFailureError,
    SIX_MONTHS_HOURS,
    ShapeMismatchError,
    SolverConfig,
    StepTooLargeError,
    build_generator,
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
        lo, weights = solve_module._poisson_window(rate * t, eps)
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
        lo, weights = solve_module._poisson_window(rate * t, eps)
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
            lo, weights = solve_module._poisson_window(rate * t, UNI.eps)
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
            lo, weights = solve_module._poisson_window(0.5 * t, UNI.eps)
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


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(eps=0.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.0)
        with pytest.raises(ValueError):
            SolverConfig(horizon=-1.0)

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
        steps = solve_module._lattice_steps([0.0, 1.0, 1.5, 3.0 + 1e-12, 3.7], 0.5)
        assert steps[:4] == [(0, 0.0), (2, 0.0), (3, 0.0), (6, 0.0)]
        assert steps[4][0] == 7 and steps[4][1] == pytest.approx(0.2)

    def test_method_names(self):
        assert Method.from_name("uniformization") is Method.UNIFORMIZATION
        assert Method.from_name("expm") is Method.MATRIX_EXP
        assert Method.from_name("euler") is Method.EULER
        assert Method.from_name("paper-literal") is Method.PAPER_LITERAL
        with pytest.raises(ValueError):
            Method.from_name("magic")


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
                lo, row = solve_module._poisson_window(q, UNI.eps)
                assert end[r] == lo + len(row)
                start = lo - first[r]
                assert start >= 0
                assert np.array_equal(weights[r, start:start + len(row)], row)
                assert not weights[r, :start].any() and not weights[r, start + len(row):].any()

    def test_window_bounds_and_neglected_mass(self):
        for q, bounds in zip(self.QS, self.BOUNDS):
            lo, weights = solve_module._poisson_window(q, UNI.eps)
            assert (lo, lo + len(weights)) == bounds
            # the tails a window drops, measured on a far wider window
            # from the same recurrence
            wide_lo, wide = solve_module._poisson_window(q, 1e-30)
            for eps in (1e-12, 1e-6):
                lo, weights = solve_module._poisson_window(q, eps)
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
        # past the block sized for t = 4380; the padding must not change a bit
        plain = [solve_at(dfwcs, UNI, t) for t in (1.0, 4380.0)]
        windows = solve_module._poisson_windows
        block = solve_module._power_block
        sizes = []

        def padded(qs, eps):
            first, end, weights = windows(qs, eps)
            if qs.max() < 1.0:
                end = end + 300
                weights = np.pad(weights, ((0, 0), (0, 300)))
            return first, end, weights

        def counted(p0, stoch, end):
            powers = block(p0, stoch, end)
            sizes.append(len(powers))
            return powers

        monkeypatch.setattr(solve_module, "_poisson_windows", padded)
        monkeypatch.setattr(solve_module, "_power_block", counted)
        traj = solve_grid(dfwcs, UNI, [1.0, 4380.0])
        assert sizes == [256, 512]
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
