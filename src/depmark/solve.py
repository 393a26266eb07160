"""Transient solvers for the state probability vector p(t) = p(0) e^(Qt).

Four methods:

* ``UNIFORMIZATION`` (default): randomization of Q at rate L = max |Q_ii|,
  summing Poisson-weighted powers of the stochastic matrix I + Q/L.  The
  weights come from a numerically stable recurrence anchored at the mode
  of the Poisson distribution, and the series is truncated once the
  remaining tail is below the configured ``eps``.  Keeps probabilities
  nonnegative by construction.
* ``MATRIX_EXP``: dense Pade scaling-and-squaring via SciPy, used as an
  in-package cross-check of the uniformization path.
* ``EULER``: explicit first-order stepping p_{k+1} = p_k (I + Q dt),
  guarded by the stability condition dt * max |Q_ii| < 1.
* ``PAPER_LITERAL``: replays, verbatim and without conservation
  correction, a published set of per-hour update equations for the
  bundled seven-state feed-water control model.  Those equations drop
  some inflow terms and couple the repair rate to the detection
  coverage, so total probability leaks; the leak per step is returned as
  a :class:`MassDefectReport` instead of being patched over.  The mode
  is defined only for models with exactly that seven-state shape.

A grid solve works on whole arrays.  Uniformization computes the Poisson
windows of many times at once (each anchored at its mode and extended by
a cumulative product along the term axis), reads them against one shared
block of powers p0 (I + Q/L)^k, and sums each chunk of rows as a
(terms, rows, n) block over the terms, in term order.  The block is sized
by the widest window (the last time's), rounded up to a power of two, and
filled by doubling in ceil(log2(end)) matrix products; its rows are
bounded by ``UNIFORMIZATION_TERM_CAP``.  ``MATRIX_EXP`` exponentiates
stacks of times; Euler and the literal mode march once.  ``solve_at`` is
row 0 of a one-point grid, and every grid row equals it bit for bit: a
power, a window or an exponential never depends on the other grid times,
and the zero weights that pad a window add exact zeros.  Only
``MATRIX_EXP`` imports SciPy.  Runaway work (``UNIFORMIZATION_TERM_CAP``,
``EULER_STEP_CAP``) is a NumericFailureError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .model import (
    DepmarkError,
    GeneratorMatrix,
    MarkovModel,
    SIX_MONTHS_HOURS,
    StateClass,
    build_generator,
)

__all__ = [
    "Method",
    "SolverConfig",
    "Trajectory",
    "MassDefectReport",
    "NumericFailureError",
    "StepTooLargeError",
    "ShapeMismatchError",
    "solve_at",
    "solve_grid",
    "solve_euler",
    "solve_paper_literal",
]


class NumericFailureError(DepmarkError):
    """A solver could not reach the requested accuracy."""


class StepTooLargeError(DepmarkError):
    """Explicit Euler step violates the stability guard dt * max|Q_ii| < 1."""


class ShapeMismatchError(DepmarkError):
    """The literal update mode was asked to run on a foreign model shape."""


class Method(Enum):
    UNIFORMIZATION = "uniformization"
    MATRIX_EXP = "expm"
    EULER = "euler"
    PAPER_LITERAL = "paper-literal"

    @classmethod
    def from_name(cls, name: str) -> "Method":
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(f"unknown solver method {name!r}")


@dataclass(frozen=True, slots=True)
class SolverConfig:
    """Solver selection and tuning knobs.

    ``eps`` bounds the truncation error of the uniformization series;
    ``dt`` is the step of the Euler and literal modes; ``horizon`` is the
    default end time for the literal mode (falling back to the model's
    ``option horizon`` and then to six months).
    """

    method: Method = Method.UNIFORMIZATION
    eps: float = 1e-12
    dt: float = 1.0
    horizon: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {self.eps!r}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if self.horizon is not None and self.horizon < 0.0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon!r}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Distributions sampled on an ascending time grid (rows sum to ~1
    for the conservation-corrected solvers; the literal mode leaks)."""

    times: np.ndarray
    probs: np.ndarray
    ids: tuple[int, ...]

    def __post_init__(self) -> None:
        self.times.setflags(write=False)
        self.probs.setflags(write=False)

    def __len__(self) -> int:
        return len(self.times)

    def row(self, index: int) -> np.ndarray:
        return self.probs[index]


@dataclass(frozen=True, eq=False)
class MassDefectReport:
    """Per-step probability leak of the literal mode: 1 - sum_i P_i
    after each step."""

    step_times: np.ndarray
    defects: np.ndarray

    @property
    def max_abs_defect(self) -> float:
        return float(np.max(np.abs(self.defects))) if len(self.defects) else 0.0


# --------------------------------------------------------------------------
# uniformization

#: Hard cap on the rows of the uniformization power block (a power of two
#: at least as long as the widest series), checked before allocating it.
UNIFORMIZATION_TERM_CAP = 10_000_000
#: Hard cap on the steps of one Euler or literal march (a remainder step
#: counts as one), checked before any stepping or allocation.
EULER_STEP_CAP = 1_000_000

_BAND = 1e-9  # tolerated numeric undershoot before clamping
#: Floats in the (terms, rows, n) block of weighted powers that one chunk
#: of a uniformization grid sums.
_CHUNK_FLOATS = 1 << 14
#: Times per stack of matrix exponentials: scipy takes them one by one, so
#: a longer stack saves no work, only per-call overhead.
_EXPM_ROWS = 64


def _finalize(probs: np.ndarray) -> np.ndarray:
    """Clamp the rounding noise of a distribution, or of a block of them,
    into [0, 1] in place; anything beyond ``_BAND`` is a
    NumericFailureError."""
    if float(probs.min(initial=0.0)) < -_BAND or float(probs.max(initial=0.0)) > 1.0 + _BAND:
        raise NumericFailureError(f"probability vector left [0, 1] beyond tolerance: {probs!r}")
    return np.clip(probs, 0.0, 1.0, out=probs)


def _poisson_windows(qs: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Poisson(q) windows for many q > 0 at once, each covering all but
    < eps of its mass.

    Returns (first, end, weights): weights[r, c] = e^-q q^k / k! for
    k = first[r] + c inside row r's window, which ends before term end[r],
    and 0 outside it.  A single row has no padding: first is where its
    window starts.  Each window is anchored at the mode and extended both
    ways by the weight recurrence, taken as a cumulative product along the
    term axis; the geometric tail bounds keep the neglected mass under
    eps/2 per side.  A row's bits do not depend on the other rows.
    """
    q_list = qs.tolist()
    qs = qs[:, np.newaxis]
    modes = np.floor(qs)
    # column c stands for term k = mode - span + c; its step is the factor
    # that makes the weight of term k from its neighbour's nearer the mode:
    # (k + 1) / q below the mode, q / k above it.  The mode's weight comes
    # from math, row by row: numpy's vector exp and log may round
    # differently for different batch lengths.
    w_mode = [math.exp(m * math.log(q) - q - math.lgamma(m + 1)) for q in q_list for m in (math.floor(q),)]
    span = 16 + int(8.0 * math.sqrt(max(q_list)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while True:
            ks = modes + np.arange(-span, span + 2)
            steps = np.empty_like(ks)
            np.divide(ks[:, 1:span + 1], qs, out=steps[:, :span])
            steps[:, span] = w_mode
            np.divide(qs, ks[:, span + 1:], out=steps[:, span + 1:])
            weights = np.empty_like(steps)
            np.multiply.accumulate(steps[:, span::-1], axis=1, out=weights[:, span::-1])
            np.multiply.accumulate(steps[:, span:], axis=1, out=weights[:, span:])
            # a window stops before the first term whose tail, bounded by a
            # geometric series in the next step, is under eps/4.  Below the
            # mode that step is the term's own (k + 1) / q: at most 1, so an
            # integer mode divides by 0 and never stops there, and 0 past
            # term 0, which always stops.  Beyond that, overflow and NaN
            # fill columns no window reaches.
            ratio = 1.0 - steps
            below = weights[:, span - 1::-1] / ratio[:, span - 1::-1] < eps / 4.0
            above = weights[:, span + 1:-1] / ratio[:, span + 2:] < eps / 4.0
            # the last column stands in for a stop beyond the span: widen then
            below[:, -1] = above[:, -1] = True
            n_below = below.argmax(axis=1)
            n_above = above.argmax(axis=1)
            widest_below, widest_above = max(n_below.tolist()), max(n_above.tolist())
            if max(widest_below, widest_above) < span - 1:
                break
            if span > UNIFORMIZATION_TERM_CAP:
                raise NumericFailureError(
                    f"uniformization series for L*t = {max(q_list):g} does not truncate within "
                    f"{UNIFORMIZATION_TERM_CAP} terms at eps = {eps:g}"
                )
            span = min(2 * span, UNIFORMIZATION_TERM_CAP + 1)
    # keep the columns some window spans, and zero each row outside its
    # own (a single row spans exactly its own)
    weights = weights[:, span - widest_below:span + widest_above + 1]
    if len(q_list) > 1:
        cols = np.arange(-widest_below, widest_above + 1)
        weights[(cols < -n_below[:, np.newaxis]) | (cols > n_above[:, np.newaxis])] = 0.0
    mode_terms = modes[:, 0].astype(int)
    return mode_terms - widest_below, mode_terms + n_above + 1, weights


def _poisson_window(q: float, eps: float) -> tuple[int, list[float]]:
    """One row of :func:`_poisson_windows`: (lo, weights) with
    weights[k - lo] = e^-q q^k / k! over the window."""
    lo, _, weights = _poisson_windows(np.array([q], dtype=float), eps)
    return int(lo[0]), weights[0].tolist()


def _power_block(p0: np.ndarray, stoch: np.ndarray, end: int) -> np.ndarray:
    """Rows p0 stoch^k for k below the power of two >= ``end``, by doubling:
    rows [m, 2m) are rows [0, m) times stoch^m.  Every level has the same
    shape whatever ``end`` is, so row k depends on k alone."""
    size = 1 << (end - 1).bit_length()
    if size > UNIFORMIZATION_TERM_CAP:
        raise NumericFailureError(
            f"uniformization needs a block of {size} powers for {end} series terms, "
            f"beyond the cap of {UNIFORMIZATION_TERM_CAP}"
        )
    powers = np.empty((size, len(p0)))
    powers[0] = p0
    jump = stoch
    m = 1
    while m < size:
        np.matmul(powers[:m], jump, out=powers[m:2 * m])
        jump = jump @ jump
        m *= 2
    return powers


def _uniformization_rows(model: MarkovModel, config: SolverConfig, grid: list[float]) -> np.ndarray:
    gen = build_generator(model)
    p0 = model.initial_vector()
    rate = -float(gen.entries.diagonal().min())  # max |Q_ii|: the diagonal is <= 0
    if rate == 0.0:
        return np.tile(p0, (len(grid), 1))

    # every window ends past floor(L*t), so absurd horizons fail here,
    # before _poisson_windows walks their series
    qs = rate * np.asarray(grid, dtype=float)
    q_max = float(qs[-1]) if len(qs) else 0.0
    if q_max >= UNIFORMIZATION_TERM_CAP:
        raise NumericFailureError(
            f"uniformization would need more than {q_max:.3g} terms for L*t = {q_max:.3g}, "
            f"beyond the cap of {UNIFORMIZATION_TERM_CAP}"
        )

    # one block of powers p0 (I + Q/L)^k serves every time.  Rows are taken
    # from the end in chunks: the first chunk, the last time alone, sizes
    # the block by the widest window; each later chunk is sized so that
    # its weighted block holds about _CHUNK_FLOATS floats, and rebuilds the
    # block if rounding makes a window end past it.  L*t is 0 only at the
    # start of the grid.
    out = np.empty((len(grid), gen.n))
    zeros = int(np.count_nonzero(qs == 0.0))
    out[:zeros] = p0
    stoch = np.eye(gen.n) + gen.entries / rate
    powers = np.empty((0, gen.n))
    stop, rows = len(grid), 1
    while stop > zeros:
        start = max(zeros, stop - rows)
        first, end, weights = _poisson_windows(qs[start:stop], config.eps)
        need = max(end.tolist())
        if need > len(powers):
            powers = _power_block(p0, stoch, need)
        # (terms, rows, n), summed over the terms in order, not by BLAS,
        # whose order varies by build; zero weights pad the windows
        terms = powers.take(first + np.arange(weights.shape[1])[:, np.newaxis], axis=0, mode="clip")
        terms *= weights.T[:, :, np.newaxis]
        out[start:stop] = terms.sum(axis=0)
        stop, rows = start, max(1, _CHUNK_FLOATS // (weights.shape[1] * gen.n))
    _finalize(out[zeros:])
    return out


# --------------------------------------------------------------------------
# matrix exponential and Euler


def _expm_rows(model: MarkovModel, config: SolverConfig, grid: list[float]) -> np.ndarray:
    import scipy.linalg  # deferred: costs more to import than the other methods take to run

    q = build_generator(model).entries
    p0 = model.initial_vector()
    times = np.asarray(grid, dtype=float)[:, np.newaxis, np.newaxis]
    out = np.empty((len(grid), model.n))
    # scipy exponentiates a stack slice by slice, as it would one matrix
    for start in range(0, len(grid), _EXPM_ROWS):
        rows = slice(start, start + _EXPM_ROWS)
        np.matmul(p0, scipy.linalg.expm(q * times[rows]), out=out[rows])
    return _finalize(out)


def _euler_guard(gen: GeneratorMatrix, dt: float) -> None:
    rate = float(np.max(np.abs(np.diag(gen.entries))))
    if dt * rate >= 1.0:
        raise StepTooLargeError(
            f"Euler step dt = {dt:g} violates dt * max|Q_ii| < 1 (max exit rate {rate:g}); "
            f"use dt < {1.0 / rate if rate else math.inf:g}"
        )


def _check_step_budget(t: float, dt: float) -> None:
    """Refuse a march from 0 to t that takes more than EULER_STEP_CAP
    steps of dt, with the same lattice tolerance as :func:`_split_steps`."""
    if t - EULER_STEP_CAP * dt > 1e-9 * max(t, dt):
        raise NumericFailureError(
            f"reaching t = {t:g} with dt = {dt:g} takes more than {EULER_STEP_CAP} steps"
        )


def _split_steps(t: float, dt: float) -> tuple[int, float]:
    """Number of full dt steps to reach t, plus a remainder step."""
    whole = round(t / dt)
    if abs(whole * dt - t) <= 1e-9 * max(t, dt):
        return whole, 0.0
    whole = int(math.floor(t / dt))
    return whole, t - whole * dt


def _euler_rows(model: MarkovModel, config: SolverConfig, grid: list[float]) -> np.ndarray:
    """March p_{k+1} = p_k (I + Q dt) once, to the last grid time.  A time
    off the step lattice takes its remainder step on a copy, never carried
    forward, so every row equals a march from 0 to that time."""
    dt = config.dt
    gen = build_generator(model)
    _euler_guard(gen, dt)
    _check_step_budget(max(grid, default=0.0), dt)
    out = np.empty((len(grid), gen.n))
    step_matrix = np.eye(gen.n) + gen.entries * dt
    p = model.initial_vector()
    done = 0
    for row, t in enumerate(grid):
        steps, rem = _split_steps(t, dt)
        for _ in range(steps - done):
            p = p @ step_matrix
        done = steps
        out[row] = p @ (np.eye(gen.n) + gen.entries * rem) if rem > 0.0 else p
    return _finalize(out)


# --------------------------------------------------------------------------
# literal replay of the published seven-state update equations

# shape of the bundled feed-water model: (source, target) pairs and the
# per-state service classes the equations assume
_DFWCS_EDGES = frozenset(
    {(1, 2), (1, 7), (2, 1), (2, 3), (2, 7), (3, 2), (3, 6), (3, 7),
     (4, 5), (4, 7), (5, 4), (5, 6), (5, 7)}
)
_DFWCS_CLASSES = {
    1: StateClass.OPERATIONAL,
    2: StateClass.FAIL_OPERATIONAL,
    3: StateClass.FAIL_OPERATIONAL,
    4: StateClass.OPERATIONAL,
    5: StateClass.FAIL_OPERATIONAL,
    6: StateClass.FAIL_SAFE,
    7: StateClass.FAIL_UNSAFE,
}
_SHAPE_RTOL = 1e-9


@dataclass(frozen=True, slots=True)
class _LiteralRates:
    lam1: float
    lam2: float
    lam3: float
    lam4: float
    c: float
    mu: float


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_SHAPE_RTOL, abs_tol=1e-15)


def _extract_literal_rates(model: MarkovModel) -> _LiteralRates:
    """Recover (lam1..lam4, C, mu) from a structurally matching model.

    Works off evaluated generator entries, so parameter overrides are
    honoured no matter how the rate expressions are spelled.
    """
    if model.ids != (1, 2, 3, 4, 5, 6, 7):
        raise ShapeMismatchError(
            f"literal mode needs states 1..7, got ids {model.ids}"
        )
    for sid, cls in _DFWCS_CLASSES.items():
        actual = model.state(sid).state_class
        if actual is not cls:
            raise ShapeMismatchError(
                f"literal mode expects state {sid} to be {cls.keyword}, got {actual.keyword}"
            )
    edges = {(tr.source, tr.target) for tr in model.transitions}
    if edges != _DFWCS_EDGES:
        extra = sorted(edges - _DFWCS_EDGES)
        missing = sorted(_DFWCS_EDGES - edges)
        raise ShapeMismatchError(
            f"transition structure differs from the seven-state feed-water shape "
            f"(missing {missing}, extra {extra})"
        )

    q = build_generator(model).entries

    def rate(i: int, j: int) -> float:
        return float(q[i - 1, j - 1])

    lam1 = rate(1, 2) + rate(1, 7)
    lam2 = rate(2, 3) + rate(2, 7)
    lam2_b = rate(3, 6) + rate(3, 7)
    lam3 = (rate(4, 5) + rate(4, 7)) / 2.0
    lam4 = (rate(5, 6) + rate(5, 7)) / 2.0
    mu = rate(2, 1)

    if not _close(rate(3, 2), 2.0 * mu) or not _close(rate(5, 4), mu):
        raise ShapeMismatchError(
            "repair rates are not in the 1x / 2x / 1x pattern the literal equations assume"
        )
    if not _close(lam2, lam2_b):
        raise ShapeMismatchError(
            f"rows 2 and 3 imply different backup failure rates ({lam2:g} vs {lam2_b:g})"
        )

    groups = [
        (rate(1, 2), lam1),
        (rate(2, 3), lam2),
        (rate(3, 6), lam2_b),
        (rate(4, 5), 2.0 * lam3),
        (rate(5, 6), 2.0 * lam4),
    ]
    c: float | None = None
    for detected, total in groups:
        if total > 0.0:
            c = detected / total
            break
    if c is None:
        c = 1.0  # all failure rates zero: coverage is irrelevant
    for detected, total in groups:
        if total > 0.0 and not _close(detected, total * c):
            raise ShapeMismatchError(
                "failure transitions do not share a single detection coverage"
            )
    return _LiteralRates(lam1, lam2, lam3, lam4, c, mu)


def _literal_step(
    p: tuple[float, float, float, float, float, float, float],
    r: _LiteralRates,
    dt: float,
) -> tuple[float, float, float, float, float, float, float]:
    # the seven published update equations, term for term; note the
    # missing 1 -> 2 inflow in the second line and the coverage factor
    # on the repair rates in lines two and three
    p1, p2, p3, p4, p5, p6, p7 = p
    return (
        (1 - r.lam1 * r.c * dt) * p1 + r.mu * dt * p2,
        (1 - (r.lam2 + r.mu) * r.c * dt) * p2 + 2 * r.mu * dt * p3,
        (r.lam2 * r.c * dt) * p2 + (1 - (r.lam2 + 2 * r.mu) * r.c * dt) * p3,
        (1 - 2 * r.lam3 * r.c * dt) * p4 + r.mu * dt * p5,
        2 * r.lam3 * r.c * dt * p4 + (1 - (2 * r.lam4 + r.mu) * r.c * dt) * p5,
        r.lam2 * r.c * dt * p3 + 2 * r.lam4 * r.c * dt * p5 + p6,
        r.lam1 * (1 - r.c) * dt * p1
        + r.lam2 * (1 - r.c) * dt * p2
        + r.lam2 * (1 - r.c) * dt * p3
        + 2 * r.lam3 * (1 - r.c) * dt * p4
        + 2 * r.lam4 * (1 - r.c) * dt * p5
        + p7,
    )


def _as_step_index(t: float, dt: float) -> int:
    k = round(t / dt)
    if abs(k * dt - t) > 1e-9 * max(abs(t), dt):
        raise ValueError(f"time {t!r} is not a multiple of dt = {dt!r}; the literal mode steps verbatim")
    return k


def solve_paper_literal(
    model: MarkovModel,
    config: SolverConfig,
    grid: Sequence[float] | None = None,
) -> tuple[Trajectory, MassDefectReport]:
    """Replay the published update equations with step ``config.dt``.

    Runs from 0 to ``grid[-1]`` (or the configured/model/six-month
    horizon when ``grid`` is None) and returns the sampled trajectory
    plus the per-step mass defect 1 - sum_i P_i.  Every requested time
    must be an integer multiple of ``dt``.  Models that are not
    structurally the bundled seven-state feed-water system are rejected
    with :class:`ShapeMismatchError`.
    """
    rates = _extract_literal_rates(model)
    dt = config.dt
    if grid is None:
        grid = _horizon_times(model, config)
    _check_grid(grid)
    _check_step_budget(max(grid, default=0.0), dt)
    steps = [_as_step_index(t, dt) for t in grid]
    last = max(steps, default=0)

    probs = np.empty((len(grid), 7))
    defects = np.empty(last)
    p = tuple(model.initial_vector())
    done = 0
    for row, k in enumerate(steps):
        for step in range(done, k):
            p = _literal_step(p, rates, dt)
            defects[step] = 1.0 - (p[0] + p[1] + p[2] + p[3] + p[4] + p[5] + p[6])
        done = k
        probs[row] = p

    trajectory = Trajectory(times=np.asarray(grid, dtype=float), probs=probs, ids=model.ids)
    report = MassDefectReport(
        step_times=dt * np.arange(1, last + 1, dtype=float), defects=defects
    )
    return trajectory, report


# --------------------------------------------------------------------------
# public entry points


def _check_grid(grid: Sequence[float]) -> None:
    for k, t in enumerate(grid):
        if not (math.isfinite(t) and t >= 0.0):
            raise ValueError(f"time must be finite and >= 0, got {t!r}")
        if k and t <= grid[k - 1]:
            raise ValueError("time grid must be strictly ascending")


def _horizon_times(model: MarkovModel, config: SolverConfig) -> list[float]:
    """Step times 0, dt, 2 dt, ... up to the horizon (``config.horizon``,
    else the model's, else six months), plus the horizon itself when it
    is off the step lattice."""
    horizon = config.horizon
    if horizon is None:
        horizon = model.horizon if model.horizon is not None else SIX_MONTHS_HOURS
    _check_step_budget(horizon, config.dt)
    steps, rem = _split_steps(horizon, config.dt)
    return [k * config.dt for k in range(steps + 1)] + ([horizon] if rem > 0.0 else [])


# each method maps (model, config, ascending grid) to one row per grid time
_GRID_SOLVERS = {
    Method.UNIFORMIZATION: _uniformization_rows,
    Method.MATRIX_EXP: _expm_rows,
    Method.EULER: _euler_rows,
    Method.PAPER_LITERAL: lambda model, config, grid: solve_paper_literal(model, config, grid)[0].probs,
}


def solve_grid(model: MarkovModel, config: SolverConfig, grid: Sequence[float]) -> Trajectory:
    """Distributions on an ascending grid; row k equals
    ``solve_at(model, config, grid[k])``."""
    grid = list(grid)
    _check_grid(grid)
    probs = _GRID_SOLVERS[config.method](model, config, grid)
    return Trajectory(times=np.asarray(grid, dtype=float), probs=probs, ids=model.ids)


def solve_at(model: MarkovModel, config: SolverConfig, t: float) -> np.ndarray:
    """Distribution at a single time, by the configured method: row 0 of
    ``solve_grid(model, config, [t])``."""
    return solve_grid(model, config, [t]).probs[0].copy()


def solve_euler(model: MarkovModel, config: SolverConfig) -> Trajectory:
    """Forward-Euler trajectory marched from t = 0 to the horizon.

    Applies p_{k+1} = p_k (I + Q dt) and returns one row per step time
    0, dt, 2 dt, ...; when the horizon (``config.horizon``, else the
    model's, else six months) is not a step multiple, one shortened
    final step lands the last row exactly on it.  The step matrix has
    unit row sums, so mass is conserved exactly, and under the
    stability guard its entries are nonnegative, so every iterate stays
    a proper distribution.
    """
    times = _horizon_times(model, config)
    probs = _euler_rows(model, config, times)
    return Trajectory(times=np.asarray(times, dtype=float), probs=probs, ids=model.ids)
