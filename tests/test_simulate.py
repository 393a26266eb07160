"""Monte Carlo estimator: reproducibility and statistical soundness."""

import importlib
import math

import numpy as np
import pytest

import oracle_expm
import depmark
from depmark import BATCH_SIZE, SimulationResult, Z99, build_generator, simulate


class TestDeterminism:
    def test_same_seed_same_counts(self, dfwcs):
        a = simulate(dfwcs, 4380.0, 30_000, seed=7)
        b = simulate(dfwcs, 4380.0, 30_000, seed=7)
        assert np.array_equal(a.counts, b.counts)

    def test_different_seeds_differ(self, dfwcs):
        a = simulate(dfwcs, 4380.0, 30_000, seed=7)
        b = simulate(dfwcs, 4380.0, 30_000, seed=8)
        assert not np.array_equal(a.counts, b.counts)

    def test_batch_boundary_reproducible(self, toy):
        # one more trial than a full Philox batch
        trials = BATCH_SIZE + 1
        a = simulate(toy, 2.0, trials, seed=3)
        b = simulate(toy, 2.0, trials, seed=3)
        assert np.array_equal(a.counts, b.counts)
        assert int(a.counts.sum()) == trials


class TestBasicShape:
    def test_counts_partition_trials(self, dfwcs):
        res = simulate(dfwcs, 4380.0, 10_000, seed=1)
        assert int(res.counts.sum()) == 10_000
        assert res.estimates.sum() == pytest.approx(1.0, abs=1e-12)
        assert res.ids == (1, 2, 3, 4, 5, 6, 7)

    def test_time_zero_stays_in_initial_state(self, dfwcs):
        res = simulate(dfwcs, 0.0, 5_000, seed=0)
        assert res.counts[0] == 5_000

    def test_unreachable_states_never_hit(self, dfwcs):
        res = simulate(dfwcs, 4380.0, 50_000, seed=11)
        # states 4 and 5 carry no initial mass and no inbound path from 1
        assert res.counts[3] == 0 and res.counts[4] == 0

    def test_interval_clamps(self):
        res = SimulationResult(
            t=1.0, trials=4, seed=0, ids=(1, 2),
            counts=np.array([4, 0]),
            estimates=np.array([1.0, 0.0]),
            ci99_half_widths=np.array([0.2, 0.0]),
        )
        assert res.interval(1) == (0.8, 1.0)
        assert res.interval(2) == (0.0, 0.0)

    def test_input_validation(self, toy):
        with pytest.raises(ValueError):
            simulate(toy, -1.0, 10)
        with pytest.raises(ValueError):
            simulate(toy, 1.0, 0)
        with pytest.raises(ValueError):
            simulate(toy, 1.0, 10, seed=-1)

    def test_seed_spans_the_philox_key_word(self, toy):
        assert int(simulate(toy, 1.0, 10, seed=2**64 - 1).counts.sum()) == 10
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            simulate(toy, 1.0, 10, seed=2**64)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, False, "1", None])
    def test_seed_must_be_an_integer(self, toy, seed):
        # int(seed) would quietly run seed 1 (or 0) for these
        with pytest.raises(TypeError, match="seed must be an integer"):
            simulate(toy, 2.0, 1000, seed=seed)

    def test_numpy_integer_seed_is_that_seed(self, toy):
        plain = simulate(toy, 2.0, 1000, seed=1)
        for seed in (np.int64(1), np.uint64(1)):
            result = simulate(toy, 2.0, 1000, seed=seed)
            assert np.array_equal(result.counts, plain.counts) and result.seed == 1

    def test_no_initial_mass_refused(self):
        chain = depmark.parse(TestJumpRoundCap.CYCLE + "init 2 = 0;\n")
        with pytest.raises(ValueError, match="no positive initial mass"):
            simulate(chain, 1.0, 1000)

    def test_z99_quantile(self):
        assert Z99 == 2.5758293035489004


class TestAgainstClosedForm:
    def test_toy_estimate_brackets_truth(self, toy):
        truth = 1.0 - math.exp(-1.0)
        res = simulate(toy, 2.0, 100_000, seed=5)
        lo, hi = res.interval(2)
        assert lo <= truth <= hi

    def test_dfwcs_z_test_against_oracle(self, dfwcs):
        """Two-sided z-test per state at the 99% level computed from the
        TRUE probability, which stays valid even when an expected count
        is far below one (unlike the empirical interval, which collapses
        to a point at zero observed hits)."""
        trials = 200_000
        res = simulate(dfwcs, 4380.0, trials, seed=42)
        truth = oracle_expm.transient_distribution(
            build_generator(dfwcs).entries, dfwcs.initial_vector(), 4380.0
        )
        for k in range(dfwcs.n):
            p = float(truth[k])
            sd = math.sqrt(p * (1.0 - p) / trials)
            slack = Z99 * sd + 1.0 / trials
            assert abs(float(res.estimates[k]) - p) <= slack, (
                f"state {dfwcs.ids[k]}: estimate {res.estimates[k]} vs "
                f"analytic {p} beyond z-test slack {slack}"
            )

    def test_ci_coverage_across_seeds(self, toy):
        """Nominal 99% intervals should contain the truth for the vast
        majority of seeds; with 200 seeds the miss count is binomial
        with mean 2."""
        truth = 1.0 - math.exp(-1.0)
        hits = 0
        for seed in range(200):
            res = simulate(toy, 2.0, 10_000, seed=seed)
            lo, hi = res.interval(2)
            hits += lo <= truth <= hi
        assert hits >= 190


class TestJumpRoundCap:
    """Each batch stops after JUMP_ROUND_CAP rounds; the check draws no
    random numbers, so a run under the cap keeps its seeded counts."""

    CHAIN = (
        'state 1 "a" class = operational;\n'
        'state 2 "b" class = fail_operational;\n'
        'state 3 "c" class = fail_safe;\n'
        "trans 1 -> 2 rate = 1e6;\n"
        "trans 2 -> 3 rate = 1e6;\n"
    )
    CYCLE = (
        'state 1 "up" class = operational;\n'
        'state 2 "down" class = fail_safe;\n'
        "trans 1 -> 2 rate = 1;\n"
        "trans 2 -> 1 rate = 1;\n"
    )

    @pytest.fixture
    def sim_module(self):
        return importlib.import_module("depmark.simulate")

    def test_boundary(self, sim_module, monkeypatch):
        # two jumps, far inside t, then absorbed: every trial of every
        # batch takes exactly three rounds
        chain = depmark.parse(self.CHAIN)
        monkeypatch.setattr(sim_module, "JUMP_ROUND_CAP", 3)
        res = simulate(chain, 1000.0, 1000, seed=1)
        assert res.counts.tolist() == [0, 0, 1000]
        monkeypatch.setattr(sim_module, "JUMP_ROUND_CAP", 2)
        with pytest.raises(depmark.NumericFailureError):
            simulate(chain, 1000.0, 1000, seed=1)

    def test_cap_keeps_seeded_counts(self, sim_module, monkeypatch):
        cycle = depmark.parse(self.CYCLE)
        free = simulate(cycle, 5.0, 2000, seed=3)
        for cap in range(1, 200):
            monkeypatch.setattr(sim_module, "JUMP_ROUND_CAP", cap)
            try:
                capped = simulate(cycle, 5.0, 2000, seed=3)
            except depmark.NumericFailureError:
                continue
            break
        else:
            pytest.fail("no cap below 200 rounds lets the run finish")
        assert cap > 5
        assert np.array_equal(capped.counts, free.counts)

    def test_published_coverages_far_below_cap(self, dfwcs, sim_module, monkeypatch):
        # the cap sits more than 100x above the rounds these runs need
        monkeypatch.setattr(sim_module, "JUMP_ROUND_CAP", sim_module.JUMP_ROUND_CAP // 100)
        for c in (0.9, 0.99, 1.0):
            simulate(dfwcs.with_params({"C": c}), 4380.0, BATCH_SIZE, seed=2)


class TestGoldenCounts:
    """Seeded counts recorded from the simulator before its batch loop
    carried only the running trials; any change to the draw order, the
    batching or the tables shows here."""

    THREE = (
        'state 1 "a" class = operational;\n'
        'state 2 "b" class = fail_operational;\n'
        'state 3 "c" class = fail_safe;\n'
        "trans 1 -> 2 rate = 0.5;\n"
        "trans 2 -> 1 rate = 0.5;\n"
        "trans 2 -> 3 rate = 0.25;\n"
        "init 1 = 0.25; init 2 = 0.75;\n"
    )

    def test_dfwcs_two_batches(self, dfwcs):
        res = simulate(dfwcs.with_params({"C": 0.9}), 4380.0, BATCH_SIZE + 1, seed=7)
        assert res.counts.tolist() == [65431, 11, 0, 0, 0, 0, 95]

    def test_cycle(self):
        res = simulate(depmark.parse(TestJumpRoundCap.CYCLE), 5.0, 2000, seed=3)
        assert res.counts.tolist() == [964, 1036]

    def test_two_initial_states(self):
        res = simulate(depmark.parse(self.THREE), 3.0, 10_000, seed=5)
        assert res.counts.tolist() == [3581, 3049, 3370]
