"""The split of a time grid into dt steps as it was before it became two
numpy arrays, kept verbatim as the reference for the differential lattice
test: one Python pass over the grid that builds a (whole steps, remainder)
tuple per time.  ``solve._lattice_steps`` must return the same whole steps
and the same remainder bits."""

import math
from typing import Sequence

from depmark.model import NumericFailureError
from depmark.solve import EULER_STEP_CAP


def _lattice_steps(grid: Sequence[float], dt: float) -> list[tuple[int, float]]:
    """(whole dt steps, remainder step) that reach each time of an ascending
    grid from 0; a time within 1e-9 of the step lattice has no remainder.
    A march of more than EULER_STEP_CAP steps (a remainder counts as one)
    is a NumericFailureError, raised before any step is taken."""
    last = grid[-1] if len(grid) else 0.0
    if last - EULER_STEP_CAP * dt > 1e-9 * max(last, dt):
        raise NumericFailureError(
            f"reaching t = {last:g} with dt = {dt:g} takes more than {EULER_STEP_CAP} steps"
        )
    steps = []
    for t in grid:
        whole = round(t / dt)
        if abs(whole * dt - t) <= 1e-9 * max(t, dt):
            steps.append((whole, 0.0))
        else:
            whole = math.floor(t / dt)
            steps.append((whole, t - whole * dt))
    return steps
