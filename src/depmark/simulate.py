"""Monte Carlo cross-check of the transient solvers.

Simulates the continuous-time chain directly: each trajectory starts in
a state drawn from the initial distribution, holds for an exponential
time at the state's total exit rate, jumps to a successor picked with
probability proportional to the individual transition rates, and
repeats until the mission time is exceeded or an absorbing state is
reached.  The empirical state frequencies at the mission time estimate
the same distribution the solvers compute, with a 99% normal-theory
confidence interval per state.

Randomness comes from numpy's Philox 4x64-10 counter-based generator
(256-bit counter, 128-bit key).  Trials are processed in fixed-size
batches of 65536 and every batch gets its own generator keyed by
(seed, batch_index), so the counts are reproducible bit for bit from the
seed and the trial count; a test pins them.  Each draw is a uniform
u = (raw >> 11) * 2**-53 of one 64-bit Philox output: exponentials come
from the inverse transform -log1p(-u)/rate and jumps from one keyed
search of raw >> 11 among the cumulative jump probabilities.  Round one
reads a whole batch's raw outputs (with one initial state it skips the
initial uniforms by advancing the counter): a trial can end its first
holding time before t only if u lies below 1 - exp(-rate t), so only the
outputs below that bound, widened by 1e-9 (far past the few ulps of
log1p and expm1), go on.  Those trials gather over batches and run in
lockstep once BATCH_SIZE of them have gathered, and after the last
batch: each round draws a holding time and then a jump for every running
trial, each batch from its own generator in trial order.  A trial still
running after ``JUMP_ROUND_CAP`` rounds is refused with a
NumericFailureError; the check draws nothing, so the counts of a run
under the cap do not depend on it.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .model import MarkovModel, NumericFailureError, build_generator

__all__ = ["BATCH_SIZE", "Z99", "SimulationResult", "simulate"]

#: Trials per Philox key; the last batch of a run may be smaller.
BATCH_SIZE = 65536

#: Hard cap on the jump rounds of a trial (a round moves every trial
#: still running by one holding time and one jump).  The published
#: coverages at six months take at most 7; a chain that keeps cycling
#: until the mission time ends is refused instead of running unbounded.
JUMP_ROUND_CAP = 10_000

#: Two-sided 99% normal quantile (Phi^-1 of 0.995).
Z99 = 2.5758293035489004


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Empirical distribution at the mission time.

    ``counts[k]`` is the number of trials that ended in ``ids[k]``;
    ``estimates`` are counts/trials and ``ci99_half_widths`` the
    normal-theory 99% half-widths Z99 * sqrt(p (1 - p) / trials).
    """

    t: float
    trials: int
    seed: int
    ids: tuple[int, ...]
    counts: np.ndarray
    estimates: np.ndarray
    ci99_half_widths: np.ndarray

    def __post_init__(self) -> None:
        self.counts.setflags(write=False)
        self.estimates.setflags(write=False)
        self.ci99_half_widths.setflags(write=False)

    def interval(self, state_id: int) -> tuple[float, float]:
        """The 99% CI for one state, clamped to [0, 1]."""
        k = self.ids.index(state_id)
        center = float(self.estimates[k])
        half = float(self.ci99_half_widths[k])
        return (max(0.0, center - half), min(1.0, center + half))


def _draw_table(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative probabilities of the positive weights, the last forced
    to exactly 1.0, and their indices: ``ids[(cum < u).sum()]`` draws an
    index for u in [0, 1)."""
    ids = np.flatnonzero(weights > 0.0)
    cum = np.cumsum(weights[ids] / weights[ids].sum())
    cum[-1:] = 1.0
    return cum, ids


def _keyed_jump(entries: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """``jump(state, raw)``: the successors that ``ids[(cum < u).sum()]``
    of each state's ``_draw_table`` picks for u = (raw >> 11) * 2**-53, as
    one searchsorted of state i's query i * 2**54 + (raw >> 11) among keys
    i * 2**54 + floor(cum * 2**53).  u * 2**53 = raw >> 11 is an integer,
    so cum < u exactly when its key is below the query; the last key, of
    cum = 1, is above every query of state i and below state i + 1's, and
    STATE_CAP keeps the keys below 2**64.  ``raw`` is overwritten."""
    tables = [_draw_table(row) for row in entries - np.diag(np.diag(entries))]
    keys = np.concatenate([np.floor(cum * 2.0**53).astype(np.uint64) + (i << 54)
                           for i, (cum, _) in enumerate(tables)])
    succ = np.concatenate([ids for _, ids in tables])
    rows = np.arange(entries.shape[0], dtype=np.uint64) << 54

    def jump(state: np.ndarray, raw: np.ndarray) -> np.ndarray:
        raw >>= 11
        raw += rows[state]
        return succ[np.searchsorted(keys, raw)]

    return jump


def _first_round(
    rng: np.random.Generator, size: int, init_cum: np.ndarray, init_ids: np.ndarray,
    absorbing: np.ndarray, limit: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A batch's trial count per initial state, and the states and raw
    outputs, in trial order, of the trials whose raw output is at most
    their state's ``limit``."""
    if init_ids.size == 1:
        # one initial state: its uniforms cannot change an outcome, so skip
        # them.  A batch's Philox is fresh, its buffer empty, and a double
        # takes one 64-bit output, a quarter of one counter step.
        rng.bit_generator.advance(size // 4)
        rng.random(size % 4)
        state = init_ids
        running = np.bincount(init_ids, minlength=absorbing.size) * size
    else:
        state = init_ids[(init_cum < rng.random(size)[:, None]).sum(axis=1)]
        running = np.bincount(state, minlength=absorbing.size)
    if running[absorbing].any():
        state = state[~absorbing[state]]
    raw = rng.bit_generator.random_raw(running[~absorbing].sum())
    cand = np.flatnonzero(raw <= limit[state])
    return running, state.take(cand, mode="clip"), raw[cand]  # "clip": a one-entry state serves all


def _run_group(
    group: list[tuple[np.random.Generator, np.ndarray, np.ndarray]], t: float,
    exit_rates: np.ndarray, jump: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Run the trials that round one passed on, given per batch as
    (generator, states, raw outputs), to the end; returns their final-state
    counts less their count in those states.  Each batch draws for its own
    trials from its own generator in trial order, and every other step runs
    once on the union.  ``running`` counts the trials per state, and a round
    adds the ones that settle as ``running`` minus the survivors' count."""
    absorbing, neg_rates = exit_rates <= 0.0, -exit_rates
    rngs = [rng for rng, _, _ in group]
    edges = np.arange(len(group) + 1, dtype=np.int32)  # batch b's trials lie between b and b + 1
    batch = np.repeat(edges[:-1], [state.size for _, state, _ in group])
    state = np.concatenate([state for _, state, _ in group], dtype=np.intp)
    hold = np.concatenate([raw for _, _, raw in group])
    group.clear()  # the union replaces the batches' arrays
    hold >>= 11
    hold = hold * 2.0**-53
    running = np.bincount(state, minlength=exit_rates.size)
    counts, clock = -running, None
    for rounds in range(JUMP_ROUND_CAP):
        if rounds:  # round one settled the absorbing states and drew the holds
            if running[absorbing].any():
                counts[absorbing] += running[absorbing]
                running[absorbing] = 0
                keep = ~absorbing[state]
                state = state[keep]; clock = clock[keep]; batch = batch[keep]
            if not state.size:
                return counts
            sizes = np.diff(batch.searchsorted(edges)).tolist()
            hold = np.concatenate([rng.random(k) for rng, k in zip(rngs, sizes) if k])
        # -log1p(-u)/rate, in place: the sign moves into the divisor
        np.log1p(np.negative(hold, out=hold), out=hold)
        hold /= neg_rates[state]
        clock = hold if clock is None else clock + hold  # 0.0 + h is h for h >= +0
        live = clock < t
        state = state[live]; clock = clock[live]; batch = batch[live]
        counts += running - np.bincount(state, minlength=exit_rates.size)
        if not state.size:
            return counts
        sizes = np.diff(batch.searchsorted(edges)).tolist()
        raw = np.concatenate([rng.bit_generator.random_raw(k) for rng, k in zip(rngs, sizes) if k])
        state = jump(state, raw)
        running = np.bincount(state, minlength=exit_rates.size)
    raise NumericFailureError(
        f"simulation to t = {t:g} is still jumping after {JUMP_ROUND_CAP} rounds"
    )


def _count(
    batches: Iterable[tuple[np.random.Generator, int]], t: float,
    init_cum: np.ndarray, init_ids: np.ndarray, entries: np.ndarray,
) -> np.ndarray:
    """Final-state counts of ``batches``, pairs of a fresh generator and a
    trial count, on the chain with generator matrix ``entries``.  Round one
    runs per batch; the trials it passes on gather into a group that runs
    once it holds BATCH_SIZE of them, and after the last batch, so a group
    holds fewer than twice that."""
    exit_rates = -np.diag(entries)
    jump = _keyed_jump(entries)
    absorbing = exit_rates <= 0.0
    # u <= top * 2**-53 exactly when raw <= (top << 11) | 2047
    bound = np.minimum(-np.expm1(-exit_rates * t) * (1.0 + 1e-9), 1.0)
    top = np.maximum(np.ceil(bound * 2.0**53), 1.0).astype(np.uint64) - 1
    limit = (top << 11) | 2047
    init_ids = init_ids.astype(np.int16)  # compact while a group gathers; STATE_CAP is 1000
    counts = np.zeros(exit_rates.size, dtype=np.int64)
    group, gathered = [], 0
    for rng, size in batches:
        running, state, raw = _first_round(rng, size, init_cum, init_ids, absorbing, limit)
        counts += running
        if state.size:
            group.append((rng, state, raw))
            gathered += state.size
        if gathered >= BATCH_SIZE:
            counts += _run_group(group, t, exit_rates, jump)
            gathered = 0
    if group:
        counts += _run_group(group, t, exit_rates, jump)
    return counts


def simulate(model: MarkovModel, t: float, trials: int, seed: int = 0) -> SimulationResult:
    """Estimate the state distribution at time t from ``trials`` runs."""
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"time must be finite and >= 0, got {t!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise TypeError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed!r}")
    init_cum, init_ids = _draw_table(model.initial_vector())
    if not init_ids.size:
        raise ValueError("the model has no positive initial mass")

    sequence = np.random.SeedSequence(0)

    def generator(batch: int) -> np.random.Generator:
        # Philox(key=...) draws OS entropy for a seed that its key overrides: key it through its state
        bits = np.random.Philox(sequence)  # fresh: counter 0, buffer empty
        bits.state = {**bits.state, "state": {**bits.state["state"], "key": np.array([seed, batch], np.uint64)}}
        return np.random.Generator(bits)

    batches = ((generator(batch), min(BATCH_SIZE, trials - batch * BATCH_SIZE))
               for batch in range(-(-trials // BATCH_SIZE)))
    counts = _count(batches, t, init_cum, init_ids, build_generator(model).entries)

    estimates = counts / float(trials)
    half = Z99 * np.sqrt(estimates * (1.0 - estimates) / float(trials))
    return SimulationResult(
        t=float(t),
        trials=int(trials),
        seed=int(seed),
        ids=model.ids,
        counts=counts,
        estimates=estimates,
        ci99_half_widths=half,
    )
