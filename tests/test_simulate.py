"""Monte Carlo estimator: reproducibility and statistical soundness."""

import importlib
import math

import numpy as np
import pytest

import oracle_expm
import reference_batch
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

    def test_seeded_run_reads_no_os_entropy(self, dfwcs, monkeypatch):
        # numpy draws a seed sequence's OS entropy through this one function
        def refuse(bits):
            raise AssertionError(f"drew {bits} bits of OS entropy")

        monkeypatch.setattr("numpy.random.bit_generator.randbits", refuse)
        with pytest.raises(AssertionError, match="128 bits"):
            np.random.Philox(key=np.array([7, 0], dtype=np.uint64))
        res = simulate(dfwcs.with_params({"C": 0.9}), 4380.0, BATCH_SIZE + 1, seed=7)
        assert res.counts.tolist() == [65431, 11, 0, 0, 0, 0, 95]  # as TestGoldenCounts pins them


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

    # recorded before the batches counted settled trials per state and
    # skipped the draws of a single initial state
    def test_two_initial_states_one_absorbing(self):
        chain = depmark.parse(
            'state 1 "a" class = operational;\n'
            'state 2 "b" class = fail_safe;\n'
            "trans 1 -> 2 rate = 0.5;\n"
            "init 1 = 0.5; init 2 = 0.5;\n"
        )
        res = simulate(chain, 2.0, 70_001, seed=9)
        assert res.counts.tolist() == [12692, 57309]

    def test_dfwcs_pid(self, dfwcs_pid):
        res = simulate(dfwcs_pid, 4380.0, 200_000, seed=11)
        assert res.counts.tolist() == [0, 0, 0, 199791, 27, 0, 182]

    def test_dfwcs_long_mission(self, dfwcs):
        res = simulate(dfwcs, 1e7, 70_000, seed=4)
        assert res.counts.tolist() == [2575, 2, 0, 0, 0, 0, 67423]


    # recorded before round one compared raw Philox outputs
    def test_two_initial_states_one_with_bound_one(self):
        # state 2 at rate 51 over t = 2 outlives its first holding time
        # with probability e**-102: every raw output is a candidate
        chain = depmark.parse(
            'state 1 "a" class = operational;\n'
            'state 2 "b" class = fail_operational;\n'
            'state 3 "c" class = fail_safe;\n'
            "trans 1 -> 2 rate = 0.01;\n"
            "trans 2 -> 1 rate = 1;\n"
            "trans 2 -> 3 rate = 50;\n"
            "init 1 = 0.5; init 2 = 0.5;\n"
        )
        res = simulate(chain, 2.0, 70_001, seed=12)
        assert res.counts.tolist() == [35024, 7, 34970]

    def test_time_zero(self):
        res = simulate(depmark.parse(self.THREE), 0.0, 10_001, seed=6)
        assert res.counts.tolist() == [2438, 7563, 0]

    def test_three_initial_states_one_absorbing(self):
        chain = depmark.parse(
            'state 1 "a" class = operational;\n'
            'state 2 "b" class = fail_operational;\n'
            'state 3 "c" class = fail_safe;\n'
            "trans 1 -> 2 rate = 0.3;\n"
            "trans 2 -> 1 rate = 2;\n"
            "trans 2 -> 3 rate = 0.7;\n"
            "init 1 = 0.5; init 2 = 0.25; init 3 = 0.25;\n"
        )
        res = simulate(chain, 1.5, 30_000, seed=21)
        assert res.counts.tolist() == [17093, 2050, 10857]

    def test_absorbing_initial_state(self):
        chain = depmark.parse(
            'state 1 "a" class = operational;\n'
            'state 2 "b" class = fail_safe;\n'
            "trans 1 -> 2 rate = 1;\n"
            "init 2 = 1;\n"
        )
        res = simulate(chain, 3.0, 1001, seed=2)
        assert res.counts.tolist() == [0, 1001]

    @pytest.mark.parametrize(
        "trials, counts",
        [(4095, [4087, 1, 0, 0, 0, 0, 7]), (BATCH_SIZE + 4095, [69533, 18, 0, 0, 0, 0, 80])],
    )
    def test_batch_size_not_divisible_by_4(self, dfwcs, trials, counts):
        res = simulate(dfwcs.with_params({"C": 0.9}), 4380.0, trials, seed=13)
        assert res.counts.tolist() == counts


class TestPhiloxAdvance:
    """A batch with one initial state skips its initial uniforms by
    advancing the Philox counter by k // 4 steps and drawing k % 4
    doubles; that must leave a fresh generator where k doubles do."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 16960, 65535, 65536])
    def test_advance_then_draw_equals_drawing(self, k):
        def fresh():
            return np.random.Generator(np.random.Philox(key=np.array([7, 3], dtype=np.uint64)))

        drawn, skipped = fresh(), fresh()
        drawn.random(k)
        skipped.bit_generator.advance(k // 4)
        skipped.random(k % 4)
        a, b = drawn.bit_generator.state, skipped.bit_generator.state
        assert np.array_equal(a["state"]["counter"], b["state"]["counter"])
        assert a["buffer_pos"] == b["buffer_pos"]
        # the spent front of the buffer is never read again (advance zeroes
        # it, drawing leaves the last block there); the rest must agree
        pos = a["buffer_pos"]
        assert np.array_equal(a["buffer"][pos:], b["buffer"][pos:])
        assert (a["has_uint32"], a["uinteger"]) == (b["has_uint32"], b["uinteger"])
        assert np.array_equal(drawn.random(9), skipped.random(9))


def fresh_philox() -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([7, 3], dtype=np.uint64)))


class TestPhiloxRaw:
    """Round one reads its uniforms as raw outputs; k of them must leave a
    fresh generator where k doubles do, each double (raw >> 11) * 2**-53."""

    @pytest.mark.parametrize("k", [1, 3, 4, 5, 979, 65535, 65536])
    def test_raw_then_draw_equals_drawing(self, k):
        drawn, raw = fresh_philox(), fresh_philox()
        doubles = drawn.random(k + 9)
        outputs = raw.bit_generator.random_raw(k)
        assert np.array_equal((outputs >> 11) * 2.0**-53, doubles[:k])
        assert np.array_equal(raw.random(9), doubles[k:])
        a, b = drawn.bit_generator.state, raw.bit_generator.state
        assert np.array_equal(a["state"]["counter"], b["state"]["counter"])
        assert a["buffer_pos"] == b["buffer_pos"]
        assert np.array_equal(a["buffer"], b["buffer"])
        assert (a["has_uint32"], a["uinteger"]) == (b["has_uint32"], b["uinteger"])


class _GivenRaw:
    """A stand-in generator whose round-one raw outputs are given and whose
    every later output is 0 (a chain of one transition ignores the jump's)."""

    def __init__(self, raw: np.ndarray):
        self.raw, self.bit_generator = raw, self

    def advance(self, steps: int) -> None:
        pass

    def random_raw(self, size: int) -> np.ndarray:
        if self.raw is None:
            return np.zeros(size, dtype=np.uint64)
        raw, self.raw = self.raw, None
        assert size == raw.size
        return raw

    def random(self, size: int) -> np.ndarray:
        return np.zeros(size)


class TestFirstRound:
    """Round one turns only the raw outputs below a per-state limit into
    holding times; every uniform the log1p route keeps must be among them."""

    @pytest.mark.parametrize("rate", [1.0, 2.5e-3])
    @pytest.mark.parametrize("rate_t", [0.0, 1e-12, 1.4e-2, 1.0, 36.0, 745.0, 1e6])
    def test_log1p_survivors_are_candidates(self, rate, rate_t):
        t = rate_t / rate
        # the ~1e5 doubles nearest the bound 1 - exp(-rate t), then random draws
        edge = int(-math.expm1(-rate * t) * 2.0**53)
        steps = np.arange(max(edge - 50_000, 0), min(edge + 50_000, 2**53), dtype=np.uint64)
        low = fresh_philox().integers(0, 2048, steps.size, dtype=np.uint64)
        raw = np.concatenate([(steps << 11) | low, fresh_philox().bit_generator.random_raw(100_003)])
        hold = np.log1p(-((raw >> 11) * 2.0**-53)) / -rate
        kept = int((hold < t).sum())
        # state 1 holds at ``rate`` and jumps to the absorbing state 2: a
        # trial ends in state 2 only if its first holding time is below t
        count = importlib.import_module("depmark.simulate")._count
        counts = count(
            [(_GivenRaw(raw), raw.size)], t, np.array([1.0]), np.array([0]),
            np.array([[-rate, rate], [0.0, 0.0]]),
        )
        assert counts.tolist() == [raw.size - kept, kept]

    def test_round_one_passes_few_trials_to_log1p(self, dfwcs, monkeypatch):
        # at C = 0.9 and 4380 h about 1.4 % of the trials outlive their
        # first holding time; the others must never reach log1p
        sizes = []
        log1p = np.log1p

        def counting_log1p(x, *args, **kwargs):
            sizes.append(np.size(x))
            return log1p(x, *args, **kwargs)

        monkeypatch.setattr(np, "log1p", counting_log1p)
        simulate(dfwcs.with_params({"C": 0.9}), 4380.0, BATCH_SIZE, seed=2)
        assert sizes and sizes[0] <= 0.02 * BATCH_SIZE


def random_chain(case: int) -> tuple[depmark.MarkovModel, float, int, int]:
    """A seeded random chain and a run of it: 1-8 states, rates over six
    decades, about a third of the states absorbing, 1-3 initial states, a
    mission time (sometimes zero) and a trial count that may cross
    BATCH_SIZE."""
    rng = np.random.default_rng([2026, case])
    n = int(rng.integers(1, 9))
    lines = ['state 1 "s1" class = operational;']
    lines += [f'state {i} "s{i}" class = fail_safe;' for i in range(2, n + 1)]
    exit_rates = np.zeros(n + 1)
    for i in range(1, n + 1):
        if rng.random() < 0.3:
            continue
        for j in range(1, n + 1):
            if j != i and rng.random() < 0.5:
                rate = float(10.0 ** rng.uniform(-3.0, 3.0))
                exit_rates[i] += rate
                lines.append(f"trans {i} -> {j} rate = {rate!r};")
    starts = rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, min(n, 3) + 1)), replace=False)
    # eighths add up to exactly 1
    cuts = np.sort(rng.choice(np.arange(1, 8), size=starts.size - 1, replace=False))
    for sid, eighths in zip(starts, np.diff([0, *cuts, 8])):
        lines.append(f"init {sid} = {float(eighths) / 8!r};")
    start_rate = exit_rates[starts].max()
    if rng.random() < 0.1 or not start_rate:
        t = 0.0
    else:  # about one holding time of the initial states, at most 30 of the fastest
        t = float(min(10.0 ** rng.uniform(-1.0, 1.0) / start_rate, 30.0 / exit_rates.max()))
    trials = int(rng.choice([1, 5, 997, 20_001, BATCH_SIZE + 999, 2 * BATCH_SIZE + 3]))
    return depmark.parse("\n".join(lines) + "\n"), t, trials, int(rng.integers(2**63))


def reference_count(batches, t, init_cum, init_ids, entries) -> np.ndarray:
    """The counts of ``depmark.simulate._count`` from the reference loop,
    one batch at a time, on successor rows padded to one width with
    cumulative probability 1.0."""
    exit_rates = -np.diag(entries)
    jumps = entries.copy()
    np.fill_diagonal(jumps, 0.0)
    tables = [importlib.import_module("depmark.simulate")._draw_table(row) for row in jumps]
    width = max(max(ids.size for _, ids in tables), 1)
    succ_cum = np.ones((entries.shape[0], width))
    succ_ids = np.zeros((entries.shape[0], width), dtype=np.int64)
    for i, (cum, ids) in enumerate(tables):
        succ_cum[i, : cum.size] = cum
        succ_ids[i, : ids.size] = ids
    return sum(
        reference_batch._run_batch(rng, size, t, init_cum, init_ids, exit_rates, succ_cum, succ_ids)
        for rng, size in batches
    )


DIFFERENTIAL_CASES = range(60)


class TestDifferential:
    """On random chains the batch loop gives the counts of the reference
    loop in ``tests/reference_batch.py`` bit for bit."""

    @pytest.mark.parametrize("case", DIFFERENTIAL_CASES)
    def test_counts_equal_reference_loop(self, case, monkeypatch):
        model, t, trials, seed = random_chain(case)
        counts = simulate(model, t, trials, seed).counts.tolist()
        sim_module = importlib.import_module("depmark.simulate")
        monkeypatch.setattr(sim_module, "_count", reference_count)
        assert simulate(model, t, trials, seed).counts.tolist() == counts

    def test_cases_cover_the_branches(self):
        runs = [random_chain(case) for case in DIFFERENTIAL_CASES]
        sizes = {model.n for model, *_ in runs}
        assert 1 in sizes and 8 in sizes
        assert any(t == 0.0 for _, t, _, _ in runs)
        assert any(trials > BATCH_SIZE for _, _, trials, _ in runs)
        starts = [np.flatnonzero(model.initial_vector()) for model, *_ in runs]
        exits = [-np.diag(build_generator(model).entries) for model, *_ in runs]
        assert any(s.size == 1 for s in starts) and any(s.size == 3 for s in starts)
        assert any(s.size > 1 and (e[s] == 0.0).any() for s, e in zip(starts, exits))
        assert any(s.size == 1 and e[s[0]] == 0.0 for s, e in zip(starts, exits))
        # a single initial state skips the draws of a batch whose size is
        # not a multiple of 4
        assert any(
            s.size == 1 and trials % 4 and trials > 100 and t > 0.0
            for s, (_, t, trials, _) in zip(starts, runs)
        )


class TestKeyedJump:
    """One searchsorted on integer keys picks the successor that the float
    comparison ``(cum < u).sum()`` picks, at and around every cut point."""

    @pytest.mark.parametrize("chain", ["dfwcs", 7, 19, 42])
    def test_matches_float_comparison_at_cut_points(self, dfwcs, chain):
        model = dfwcs if chain == "dfwcs" else random_chain(chain)[0]
        sim_module = importlib.import_module("depmark.simulate")
        entries = build_generator(model).entries
        jump = sim_module._keyed_jump(entries)
        jumps = entries.copy()
        np.fill_diagonal(jumps, 0.0)
        states, raws, expected = [], [], []
        for i, row in enumerate(jumps):
            cum, ids = sim_module._draw_table(row)
            if not ids.size:
                continue
            cuts = np.floor(cum * 2.0**53).astype(np.uint64)
            top = np.concatenate([[0, 2**53 - 1], cuts, cuts + 1]).astype(np.uint64)
            top = top[top < 2**53]
            raw = np.concatenate([top << 11, (top << 11) | 2047])
            expected.append(ids[(cum < ((raw >> 11) * 2.0**-53)[:, None]).sum(axis=1)])
            states.append(np.full(raw.size, i))
            raws.append(raw)
        assert len(states) >= 2
        # the states interleaved, so every query meets the other rows' keys
        order = np.random.default_rng(0).permutation(sum(s.size for s in states))
        state, expected = np.concatenate(states)[order], np.concatenate(expected)[order]
        picked = jump(state, np.concatenate(raws)[order])
        assert np.array_equal(picked, expected)
        assert (jumps[state, picked] > 0.0).all()  # never a state the row cannot reach


class TestLockstepGroups:
    """Batches whose trials mostly outlive round one run in groups of
    fewer than 2 * BATCH_SIZE trials, with the reference loop's counts."""

    # state 1 ends its first holding time before t = 1.5 with probability
    # 1 - e**-1.5 (78 %), so two batches fill a group and four make two
    CHAIN = (
        'state 1 "a" class = operational;\n'
        'state 2 "b" class = fail_operational;\n'
        'state 3 "c" class = fail_safe;\n'
        "trans 1 -> 2 rate = 1;\n"
        "trans 2 -> 1 rate = 2;\n"
        "trans 2 -> 3 rate = 0.5;\n"
    )
    TRIALS = 3 * BATCH_SIZE + 5

    def test_counts_equal_reference_loop(self, monkeypatch):
        chain = depmark.parse(self.CHAIN)
        sim_module = importlib.import_module("depmark.simulate")
        groups = []
        run_group = sim_module._run_group

        def counting_run_group(group, *args):
            groups.append([state.size for _, state, _ in group])
            return run_group(group, *args)

        monkeypatch.setattr(sim_module, "_run_group", counting_run_group)
        counts = simulate(chain, 1.5, self.TRIALS, seed=31).counts.tolist()
        assert [len(g) for g in groups] == [2, 2]
        assert BATCH_SIZE <= sum(groups[0]) < 2 * BATCH_SIZE
        monkeypatch.setattr(sim_module, "_count", reference_count)
        assert simulate(chain, 1.5, self.TRIALS, seed=31).counts.tolist() == counts

    def test_log1p_sees_fewer_than_two_batches(self, monkeypatch):
        sizes = []
        log1p = np.log1p

        def counting_log1p(x, *args, **kwargs):
            sizes.append(np.size(x))
            return log1p(x, *args, **kwargs)

        monkeypatch.setattr(np, "log1p", counting_log1p)
        simulate(depmark.parse(self.CHAIN), 1.5, self.TRIALS, seed=31)
        assert BATCH_SIZE < max(sizes) < 2 * BATCH_SIZE
