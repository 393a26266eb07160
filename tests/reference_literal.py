"""The literal update mode's tuple step, kept verbatim as the reference for
the differential literal tests (``tests/test_literal.py``): a step over a
7-tuple of Python floats with the equations' coefficients formed once, the
mass defect appended to a list after each step, and the march that carries
the tuple.  Any other spelling of the mode must give these rows and defects
bit for bit, under every initial law and past an overflow.  A 7x7 step
matrix marched with a BLAS product does not: the product sums each column
in its own order, not in the order the equations list their terms, and it
multiplies the zero coefficients of the states an equation does not name,
so 0 x inf turns those states to NaN once a march overflows."""

from typing import Iterable

import numpy as np

from depmark.model import MarkovModel, SolverConfig, build_generator
from depmark.solve import _check_grid, _extract_literal_rates, _horizon_times, _lattice_steps


def _march(p, step, whole: np.ndarray) -> np.ndarray:
    """Row k is the state after whole[k] steps, from one pass that applies
    ``step`` once per step from t = 0."""
    out = np.empty((len(whole), len(p)))
    done = 0
    for row, count in enumerate(whole.tolist()):
        for _ in range(count - done):
            p = step(p)
        done = count
        out[row] = p
    return out


def _literal_run(
    model: MarkovModel, rates: tuple[float, ...], config: SolverConfig, grid: np.ndarray
) -> tuple[np.ndarray, list[float]]:
    """The literal rows on an ascending grid, and the mass defect after
    each step."""
    dt = config.dt
    whole, rem = _lattice_steps(grid, dt)
    if rem.any():
        t = grid[np.flatnonzero(rem)[0]].item()
        raise ValueError(f"time {t!r} is not a multiple of dt = {dt!r}; the literal mode steps verbatim")
    defects: list[float] = []
    lam1, lam2, lam3, lam4, c, mu = rates
    # the coefficients of the seven published update equations, each formed
    # once as the left-to-right product its term spells, so every term keeps
    # its bits.  Note the missing 1 -> 2 inflow in the second equation and
    # the coverage factor on the repair rates in the second and third
    keep1 = 1 - lam1 * c * dt
    keep2 = 1 - (lam2 + mu) * c * dt
    keep3 = 1 - (lam2 + 2 * mu) * c * dt
    keep4 = 1 - 2 * lam3 * c * dt
    keep5 = 1 - (2 * lam4 + mu) * c * dt
    repair, repair2 = mu * dt, 2 * mu * dt
    covered2, covered4, covered5 = lam2 * c * dt, 2 * lam3 * c * dt, 2 * lam4 * c * dt
    unsafe1, unsafe2 = lam1 * (1 - c) * dt, lam2 * (1 - c) * dt
    unsafe4, unsafe5 = 2 * lam3 * (1 - c) * dt, 2 * lam4 * (1 - c) * dt

    def step(p: tuple[float, ...]) -> tuple[float, ...]:
        p1, p2, p3, p4, p5, p6, p7 = p
        p = (
            keep1 * p1 + repair * p2,
            keep2 * p2 + repair2 * p3,
            covered2 * p2 + keep3 * p3,
            keep4 * p4 + repair * p5,
            covered4 * p4 + keep5 * p5,
            covered2 * p3 + covered5 * p5 + p6,
            unsafe1 * p1 + unsafe2 * p2 + unsafe2 * p3 + unsafe4 * p4 + unsafe5 * p5 + p7,
        )
        defects.append(1.0 - (p[0] + p[1] + p[2] + p[3] + p[4] + p[5] + p[6]))
        return p

    # Python floats do the same IEEE arithmetic as numpy scalars, faster
    return _march(tuple(model.initial_vector().tolist()), step, whole), defects


def solve_paper_literal(
    model: MarkovModel, config: SolverConfig, grid: Iterable[float] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, defects) of ``solve_paper_literal``: the rows on the grid (or
    the horizon's step lattice) and the defect after each step."""
    rates = _extract_literal_rates(model, build_generator(model).entries)
    times = _check_grid(_horizon_times(model, config) if grid is None else grid)
    probs, defects = _literal_run(model, rates, config, times)
    return probs, np.array(defects)
