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
(seed, batch_index), so the result is reproducible bit for bit from the
seed alone and does not depend on how the batches are executed.  Only
uniform doubles are ever drawn; exponentials come from the inverse
transform -log1p(-u)/rate and categorical picks from cumulative-table
lookup, which keeps the draw count per trajectory round explicit.  A
batch still running after ``JUMP_ROUND_CAP`` rounds is refused with a
NumericFailureError; the check draws nothing, so the counts of a run
under the cap do not depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MarkovModel, build_generator
from .solve import NumericFailureError

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


def _cumulative_tables(probs: list[np.ndarray], indices: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Pad per-state successor lists into rectangular lookup tables.

    Row cumulative sums are forced to end at exactly 1.0 and padded with
    1.0, so ``(row < u).sum()`` for u in [0, 1) always lands on a real
    successor.
    """
    width = max((len(p) for p in probs), default=0)
    width = max(width, 1)
    n = len(probs)
    cum = np.ones((n, width))
    succ = np.zeros((n, width), dtype=np.int64)
    for i, (p, idx) in enumerate(zip(probs, indices)):
        if len(p):
            c = np.cumsum(p)
            c[-1] = 1.0
            cum[i, : len(c)] = c
            succ[i, : len(idx)] = idx
            succ[i, len(idx):] = idx[-1] if len(idx) else 0
        else:
            succ[i, :] = i
    return cum, succ


def _run_batch(
    rng: np.random.Generator,
    size: int,
    t: float,
    init_cum: np.ndarray,
    init_ids: np.ndarray,
    exit_rates: np.ndarray,
    succ_cum: np.ndarray,
    succ_ids: np.ndarray,
    n_states: int,
) -> np.ndarray:
    u0 = rng.random(size)
    state = init_ids[(init_cum < u0[:, None]).sum(axis=1)]
    clock = np.zeros(size)
    final = np.full(size, -1, dtype=np.int64)
    active = np.arange(size)

    rounds = 0
    while active.size:
        rounds += 1
        if rounds > JUMP_ROUND_CAP:
            raise NumericFailureError(
                f"simulation to t = {t:g} is still jumping after {JUMP_ROUND_CAP} rounds"
            )
        rates = exit_rates[state[active]]
        absorbing = rates <= 0.0
        if absorbing.any():
            settled = active[absorbing]
            final[settled] = state[settled]
            active = active[~absorbing]
            rates = rates[~absorbing]
        if not active.size:
            break
        u = rng.random(active.size)
        clock[active] += -np.log1p(-u) / rates
        done = clock[active] >= t
        settled = active[done]
        final[settled] = state[settled]
        moving = active[~done]
        if moving.size:
            u2 = rng.random(moving.size)
            rows = succ_cum[state[moving]]
            choice = (rows < u2[:, None]).sum(axis=1)
            state[moving] = succ_ids[state[moving], choice]
        active = moving

    return np.bincount(final, minlength=n_states)


def simulate(model: MarkovModel, t: float, trials: int, seed: int = 0) -> SimulationResult:
    """Estimate the state distribution at time t from ``trials`` runs."""
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"time must be finite and >= 0, got {t!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")

    gen = build_generator(model)
    n = model.n
    exit_rates = -np.diag(gen.entries).copy()

    succ_probs: list[np.ndarray] = []
    succ_indices: list[np.ndarray] = []
    for i in range(n):
        row = gen.entries[i].copy()
        row[i] = 0.0
        nz = np.flatnonzero(row > 0.0)
        total = row[nz].sum()
        succ_probs.append(row[nz] / total if len(nz) else np.empty(0))
        succ_indices.append(nz.astype(np.int64))
    succ_cum, succ_ids = _cumulative_tables(succ_probs, succ_indices)

    p0 = model.initial_vector()
    support = np.flatnonzero(p0 > 0.0)
    init_cum, init_ids = _cumulative_tables(
        [p0[support] / p0[support].sum()], [support.astype(np.int64)]
    )
    init_cum, init_ids = init_cum[0], init_ids[0]

    counts = np.zeros(n, dtype=np.int64)
    n_batches = (trials + BATCH_SIZE - 1) // BATCH_SIZE
    for batch in range(n_batches):
        size = min(BATCH_SIZE, trials - batch * BATCH_SIZE)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, batch], dtype=np.uint64))
        )
        counts += _run_batch(
            rng, size, t, init_cum, init_ids, exit_rates, succ_cum, succ_ids, n
        )

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
