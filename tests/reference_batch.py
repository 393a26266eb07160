"""The simulator's batch loop as it was before it kept per-state settle
counts and skipped the draws of a single initial state, kept verbatim as
the reference for the differential tests: for the same generator and
tables, ``depmark.simulate._count`` must return the same counts."""

import numpy as np

from depmark.model import NumericFailureError
from depmark.simulate import JUMP_ROUND_CAP


def _run_batch(
    rng: np.random.Generator, size: int, t: float, init_cum: np.ndarray, init_ids: np.ndarray,
    exit_rates: np.ndarray, succ_cum: np.ndarray, succ_ids: np.ndarray,
) -> np.ndarray:
    """Final-state counts of ``size`` trials; ``state`` and ``clock``
    hold only the trials still running, in their original order."""
    n_states = exit_rates.size
    counts = np.zeros(n_states, dtype=np.int64)
    state = init_ids[(init_cum < rng.random(size)[:, None]).sum(axis=1)]
    clock = np.zeros(size)
    for _ in range(JUMP_ROUND_CAP):
        rates = exit_rates[state]
        absorbing = rates <= 0.0
        counts += np.bincount(state[absorbing], minlength=n_states)
        state, clock, rates = state[~absorbing], clock[~absorbing], rates[~absorbing]
        if not state.size:
            return counts
        clock += -np.log1p(-rng.random(state.size)) / rates
        done = clock >= t
        counts += np.bincount(state[done], minlength=n_states)
        state, clock = state[~done], clock[~done]
        if not state.size:
            return counts
        choice = (succ_cum[state] < rng.random(state.size)[:, None]).sum(axis=1)
        state = succ_ids[state, choice]
    raise NumericFailureError(
        f"simulation to t = {t:g} is still jumping after {JUMP_ROUND_CAP} rounds"
    )
