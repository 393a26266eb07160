"""The grid checks and builders as they were before a time grid became one
float array from ``--grid`` to ``Trajectory.times``, kept verbatim as the
reference for the differential grid tests: ``_check_grid`` walks the grid in
Python, ``_parse_grid`` expands ``--grid`` text point by point into a list,
and ``_horizon_times`` builds its step lattice as a list."""

import math
from typing import Sequence

import numpy as np

from depmark.cli import GRID_POINT_CAP
from depmark.model import SIX_MONTHS_HOURS, MarkovModel, SolverConfig
from depmark.solve import _lattice_steps


def _check_grid(grid: Sequence[float]) -> np.ndarray:
    """A float copy of the grid, once its times are finite, >= 0 and ascending."""
    for k, t in enumerate(grid):
        if not (math.isfinite(t) and t >= 0.0):
            raise ValueError(f"time must be finite and >= 0, got {t!r}")
        if k and t <= grid[k - 1]:
            raise ValueError("time grid must be strictly ascending")
    return np.array(grid, dtype=float)


def _horizon_times(model: MarkovModel, config: SolverConfig) -> list[float]:
    """Step times 0, dt, 2 dt, ... up to the horizon (``config.horizon``,
    else the model's, else six months), plus the horizon itself when it
    is off the step lattice."""
    horizon = config.horizon
    if horizon is None:
        horizon = model.horizon if model.horizon is not None else SIX_MONTHS_HOURS
    whole, rem = _lattice_steps(_check_grid([horizon]), config.dt)
    return [k * config.dt for k in range(whole[0] + 1)] + ([horizon] if rem[0] > 0.0 else [])


def _parse_grid(text: str) -> list[float]:
    """Expand start:stop:step into an ascending grid.

    The stop point is included when it is a whole number of steps from
    the start (to one part in 10^9); otherwise the grid ends at the last
    aligned point below it.  A grid of more than ``GRID_POINT_CAP``
    points is refused before any point is made.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--grid expects start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"--grid expects numeric start:stop:step, got {text!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise ValueError("--grid bounds must be finite")
    if start < 0.0:
        raise ValueError(f"--grid start must be >= 0, got {start!r}")
    if step <= 0.0:
        raise ValueError(f"--grid step must be positive, got {step!r}")
    if stop < start:
        raise ValueError(f"--grid stop {stop!r} is below start {start!r}")
    span = (stop - start) / step + 1e-9
    if span >= GRID_POINT_CAP:
        raise ValueError(
            f"--grid {text} has more than {GRID_POINT_CAP} points, beyond the cap"
        )
    return [start + k * step for k in range(math.floor(span) + 1)]
