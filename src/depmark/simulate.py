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
from the inverse transform -log1p(-u)/rate and categorical picks from one
cumulative-table lookup.  A batch carries only its running trials: each
round draws one holding time and then one jump for each of them, in trial
order, and drops the trials that have settled.  It counts the settled
trials per state, as the running count minus the survivors' count, so only
the first round touches the whole batch, and that round reads the raw
outputs: a trial can end its first holding time before t only if u lies
below 1 - exp(-rate t), and only the outputs below that bound, widened by
1e-9 (far past the few ulps of log1p and expm1), become holding times.
With a single initial state the initial uniforms cannot change an outcome;
the batch skips them by advancing the Philox counter, which leaves the
generator where drawing them would.  A batch still running after
``JUMP_ROUND_CAP`` rounds is refused with a NumericFailureError; the check
draws nothing, so the counts of a run under the cap do not depend on it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import MarkovModel, NumericFailureError, build_generator

__all__ = ["BATCH_SIZE", "Z99", "SimulationResult", "simulate"]

#: Trials per Philox key; the last batch of a run may be smaller.
BATCH_SIZE = 65536

#: Hard cap on the jump rounds of one batch (a round moves every trial
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


def _run_batch(
    rng: np.random.Generator, size: int, t: float, init_cum: np.ndarray, init_ids: np.ndarray,
    exit_rates: np.ndarray, succ_cum: np.ndarray, succ_ids: np.ndarray,
) -> np.ndarray:
    """Final-state counts of ``size`` trials.

    ``state`` and ``clock`` hold only the trials still running, in their
    original order; a one-entry ``state`` before the first holding time
    stands for every trial, and round one keeps only the trials whose raw
    output can give a holding time below t.  ``running`` counts them per
    state, and a round adds the ones that settle as ``running`` minus the
    survivors' count."""
    n_states = exit_rates.size
    absorbing = exit_rates <= 0.0
    neg_rates = -exit_rates
    counts = np.zeros(n_states, dtype=np.int64)
    if init_ids.size == 1:
        # one initial state: its uniforms cannot change an outcome, so skip
        # them.  A batch's Philox is fresh, its buffer empty, and a double
        # takes one 64-bit output, a quarter of one counter step.
        rng.bit_generator.advance(size // 4)
        rng.random(size % 4)
        state = init_ids
        running = np.bincount(init_ids, minlength=n_states) * size
    else:
        state = init_ids[(init_cum < rng.random(size)[:, None]).sum(axis=1)]
        running = np.bincount(state, minlength=n_states)
    clock = None
    for _ in range(JUMP_ROUND_CAP):
        if running[absorbing].any():
            counts[absorbing] += running[absorbing]
            running[absorbing] = 0
            keep = np.flatnonzero(~absorbing[state])
            state = state[keep]
            if clock is not None:
                clock = clock[keep]
        if not running.any():
            return counts
        if clock is None:
            # round one, every trial at clock 0 in its initial state: u <= top
            # * 2**-53 exactly when raw <= (top << 11) | 2047; the rest settle
            bound = np.minimum(-np.expm1(neg_rates * t) * (1.0 + 1e-9), 1.0)
            top = np.maximum(np.ceil(bound * 2.0**53), 1.0).astype(np.uint64) - 1
            raw = rng.bit_generator.random_raw(running.sum())
            cand = np.flatnonzero(raw <= ((top << 11) | 2047)[state])
            state = np.broadcast_to(state, raw.shape)[cand]
            hold = (raw[cand] >> 11) * 2.0**-53
        else:
            hold = rng.random(running.sum())
        # -log1p(-u)/rate, in place: the sign moves into the divisor
        np.log1p(np.negative(hold, out=hold), out=hold)
        hold /= neg_rates[state]
        clock = hold if clock is None else clock + hold  # 0.0 + h is h for h >= +0
        live = np.flatnonzero(clock < t)
        state, clock = state[live], clock[live]
        counts += running - np.bincount(state, minlength=n_states)
        if not state.size:
            return counts
        choice = (succ_cum[state] < rng.random(state.size)[:, None]).sum(axis=1)
        state = succ_ids[state, choice]
        running = np.bincount(state, minlength=n_states)
    raise NumericFailureError(
        f"simulation to t = {t:g} is still jumping after {JUMP_ROUND_CAP} rounds"
    )


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

    entries = build_generator(model).entries
    exit_rates = -np.diag(entries)
    jumps = entries.copy()
    np.fill_diagonal(jumps, 0.0)
    # pad the successor rows to one width: cumulative probabilities with
    # 1.0, so that a lookup never lands on a padding column
    tables = [_draw_table(row) for row in jumps]
    width = max(max(ids.size for _, ids in tables), 1)
    succ_cum = np.ones((model.n, width))
    succ_ids = np.zeros((model.n, width), dtype=np.int64)
    for i, (cum, ids) in enumerate(tables):
        succ_cum[i, : cum.size] = cum
        succ_ids[i, : ids.size] = ids

    counts = np.zeros(model.n, dtype=np.int64)
    for batch in range(-(-trials // BATCH_SIZE)):
        size = min(BATCH_SIZE, trials - batch * BATCH_SIZE)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, batch], dtype=np.uint64))
        )
        counts += _run_batch(rng, size, t, init_cum, init_ids, exit_rates, succ_cum, succ_ids)

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
