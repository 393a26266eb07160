"""Transient solvers for the state probability vector p(t) = p(0) e^(Qt).

Four methods:

* ``UNIFORMIZATION`` (default): randomization of Q at rate L = max |Q_ii|,
  summing Poisson-weighted powers of the stochastic matrix I + Q/L.  The
  weights come from a numerically stable recurrence anchored at the mode
  of the Poisson distribution, and the series is truncated once the
  remaining tail is below the configured ``eps``, 1e-300 <= eps < 1.
  Keeps probabilities nonnegative by construction.
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

Every method solves a stack of generators (``build_generators``) on a
grid of times at once; a grid is one generator at many times and a sweep
many generators at one time.  Uniformization takes the rows from the end
in chunks whose windows and (terms, rows, n) weighted terms hold at most
``_CHUNK_FLOATS`` floats by a priori tail bounds, or one row.  Rows share
one Poisson window per distinct L*t, kept across chunks, and a chunk reads
a ring of powers p0 (I + Q/L)^k per generator that spans its windows, not
L*t; the terms are summed in term order.  ``MATRIX_EXP``
exponentiates chunks of Q t bit for bit as scipy.linalg.expm (Al-Mohy &
Higham 2009) does, with the chunk's squarings as stacked products (see
``_expm_slices``).  Euler and the literal mode march each generator once
from 0 to the last grid time over the step lattice, where each time is a
whole number of dt steps plus, off the lattice, a remainder step that
Euler takes on that row alone and the literal mode refuses.  The kernels
of the first three methods take a start vector and return raw rows, which
``_grid_rows`` clamps into [0, 1] once, after the method runs, t = 0 rows
included; literal rows never are, as their leak and overflow are what that
mode shows.  ``solve_at`` is row 0 of a one-point grid, and every row
equals it bit for bit: a power, a window or an exponential never depends
on the other rows, and the zero weights that pad a window add exact zeros.
Only ``MATRIX_EXP`` imports SciPy.  Runaway work
(``UNIFORMIZATION_TERM_CAP``, ``EULER_STEP_CAP``) is a NumericFailureError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .model import (
    DepmarkError,
    MarkovModel,
    Method,
    NumericFailureError,
    SIX_MONTHS_HOURS,
    StateClass,
    SolverConfig,
    StepTooLargeError,
    build_generator,
    build_generators,
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


class ShapeMismatchError(DepmarkError):
    """The literal update mode was asked to run on a foreign model shape."""


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

    def __post_init__(self) -> None:
        self.step_times.setflags(write=False)
        self.defects.setflags(write=False)

    @property
    def max_abs_defect(self) -> float:
        return float(np.max(np.abs(self.defects))) if len(self.defects) else 0.0


# --------------------------------------------------------------------------
# uniformization

#: Hard cap on the terms of a uniformization series: no window may end past
#: it, checked before its powers are made.
UNIFORMIZATION_TERM_CAP = 10_000_000
#: Hard cap on the steps of one Euler or literal march (a remainder step
#: counts as one), checked before any stepping or allocation.
EULER_STEP_CAP = 1_000_000

_BAND = 1e-9  # tolerated numeric undershoot before clamping
_P = TypeVar("_P")  # the state a march carries: a vector, or the literal tuple
#: Floats in the windows and (terms, rows, n) weighted powers of one
#: uniformization chunk of several rows.
_CHUNK_FLOATS = 1 << 16
#: Most (generator, time) slices per chunk of matrix exponentials: a chunk
#: shares its squarings, and its length, cut further to _CHUNK_FLOATS floats
#: per stack for n > 16, bounds the memory of its stacks and of SciPy's scratch,
#: 6 slabs (one stack of a 4381-time grid adds megabytes of peak RSS), not the work.
_EXPM_ROWS = 256


def _finalize(probs: np.ndarray) -> np.ndarray:
    """Clamp the rounding noise of a distribution, or of a block of them,
    into [0, 1] in place; anything beyond ``_BAND`` is a
    NumericFailureError naming the first such row, and so is a NaN."""
    if not (float(probs.min(initial=0.0)) >= -_BAND and float(probs.max(initial=0.0)) <= 1.0 + _BAND):
        rows = probs.reshape(-1, probs.shape[-1])
        bad = int(np.argmin(np.all((rows >= -_BAND) & (rows <= 1.0 + _BAND), axis=1)))
        raise NumericFailureError(f"probability vector left [0, 1] beyond tolerance in row {bad}: {rows[bad]!r}")
    return np.clip(probs, 0.0, 1.0, out=probs)


def _poisson_windows(qs: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Poisson(q) windows for many q > 0 at once, each covering all but
    < eps of its mass.

    Returns (first, end, weights): weights[r, c] = e^-q q^k / k! for
    k = first[r] + c inside row r's window, which ends before term end[r],
    and 0 outside it.  A single row has no padding: first is where its
    window starts.  Each window is anchored at the mode and extended both
    ways by the weight recurrence, taken as a cumulative product along the
    term axis over ``_span`` terms; the geometric tail bounds keep the
    neglected mass under eps/2 per side, and a stop outside the span is a
    NumericFailureError.  A row's bits do not depend on the other rows."""
    q_list = qs.tolist()
    qs = qs[:, np.newaxis]
    modes = np.floor(qs)
    # column c stands for term k = mode - span + c; its step is the factor
    # that makes the weight of term k from its neighbour's nearer the mode:
    # (k + 1) / q below the mode, q / k above it.  The mode's weight comes
    # from math, row by row: numpy's vector exp and log may round
    # differently for different batch lengths.
    w_mode = [math.exp(m * math.log(q) - q - math.lgamma(m + 1)) for q in q_list for m in (math.floor(q),)]
    span = int(_span(max(q_list), eps))
    ks = modes + np.arange(-span, span + 2)
    steps = np.empty_like(ks)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(ks[:, 1:span + 1], qs, out=steps[:, :span])
        steps[:, span] = w_mode
        np.divide(qs, ks[:, span + 1:], out=steps[:, span + 1:])
        weights = np.empty_like(steps)
        np.multiply.accumulate(steps[:, span::-1], axis=1, out=weights[:, span::-1])
        np.multiply.accumulate(steps[:, span:], axis=1, out=weights[:, span:])
        # a window stops before the first term whose tail, bounded by a
        # geometric series in the next step, is under eps/4.  Below the mode
        # that step is the term's own (k + 1) / q: at most 1, so an integer
        # mode divides by 0 and never stops there, and 0 past term 0, which
        # always stops.  Beyond that, overflow and NaN fill columns no
        # window reaches.
        ratio = 1.0 - steps
        below = weights[:, span - 1::-1] / ratio[:, span - 1::-1] < eps / 4.0
        above = weights[:, span + 1:-1] / ratio[:, span + 2:] < eps / 4.0
    if not (below.any(axis=1) & above.any(axis=1)).all():
        raise NumericFailureError(f"a Poisson window does not stop within {span} terms of its mode at eps = {eps:g}")
    n_below, n_above = below.argmax(axis=1), above.argmax(axis=1)
    widest_below, widest_above = max(n_below.tolist()), max(n_above.tolist())
    # keep the columns some window spans, and zero each row outside its
    # own (a single row spans exactly its own)
    weights = weights[:, span - widest_below:span + widest_above + 1]
    if len(q_list) > 1:
        cols = np.arange(-widest_below, widest_above + 1)
        weights[(cols < -n_below[:, np.newaxis]) | (cols > n_above[:, np.newaxis])] = 0.0
    mode_terms = modes[:, 0].astype(int)
    return mode_terms - widest_below, mode_terms + n_above + 1, weights


def _span(q, eps: float):
    """Terms each side of the mode that hold both stops of every Poisson(q)
    window at ``eps`` (q a float or an array), bounded a priori as Fox &
    Glynn bound theirs.  Above the mode, Bernstein's inequality bounds the
    weight of term k = q + x by exp(-x^2 / (2 (q + x/3))), and the stop
    test's factor 1 / (1 - q/(k + 1)) is at most 1 + q/x.  With a further
    factor e for rounding, the test passes once x^2 / (2 (q + x/3)) >= lam
    = ln(4/eps) + 1 + ln(1 + q/x0), so from x = lam/3 + sqrt(lam^2/9 + 2 q
    lam) on, where x0 is that root without the last term of lam; that stop
    is at most ceil(x) + 1 terms past the mode floor(q).  Below the mode,
    exp(-x^2 / (2q)) with factor q/(x - 1) needs less, and term -1 always
    stops.  Below eps ~ 1e-305 the weights at a stop are subnormal and may
    stop shrinking, so ``SolverConfig`` refuses eps < 1e-300."""
    lam = math.log(4.0) - math.log(eps) + 1.0
    x0 = lam / 3.0 + np.sqrt(lam * lam / 9.0 + 2.0 * q * lam)
    lam = lam + np.log1p(q / x0)
    return np.ceil(lam / 3.0 + np.sqrt(lam * lam / 9.0 + 2.0 * q * lam)) + 3


def _power_ring(p0: np.ndarray, stochs: np.ndarray, base: np.ndarray, size: int, end: int) -> np.ndarray:
    """Row j * size + i is p0 S_j^(base[j] + i) for the matrices S_j of a
    (g, n, n) stack and each term below ``end``: stacked doubling makes the
    powers below the power of two ``size`` >= 2 in the shapes of a block from
    term 0, then each higher bit m of a term, lowest first, multiplies its
    row by S^m in a product over the whole ring (a lone row may round
    otherwise).  So a row's bits depend on its term and S alone."""
    g, n = len(stochs), len(p0)
    ring = np.empty((g * size, n))
    stack = ring.reshape(g, size, n)
    stack[:, 0] = p0
    jump, m = stochs, 1
    while m < size:
        if m > 1:
            jump = jump @ jump
        np.matmul(stack[:, :m], jump, out=stack[:, m:2 * m])
        m *= 2
    if m < end:
        # row j * size + i takes term base[j] + i from its slot, the term mod size
        terms = base[:, np.newaxis] + np.arange(size)
        ring = ring.take((terms % size + size * np.arange(g)[:, np.newaxis]).ravel(), axis=0)
        terms, lifted = terms.ravel(), np.empty_like(ring)
        while m < end:
            jump = jump @ jump
            lift = terms & m > 0
            if lift.any():
                np.matmul(ring.reshape(g, size, n), jump, out=lifted.reshape(g, size, n))
                if lift.all():
                    ring, lifted = lifted, ring
                else:
                    np.copyto(ring, lifted, where=lift[:, np.newaxis])
            m *= 2
    return ring


def _uniformization_rows(p0: np.ndarray, gens: np.ndarray, config: SolverConfig, grid: np.ndarray) -> np.ndarray:
    n, times = len(p0), len(grid)
    rates = -gens.diagonal(axis1=1, axis2=2).min(axis=1)  # max |Q_ii|: the diagonal is <= 0
    # row r pairs generator r // times with time r % times
    qs = (rates[:, np.newaxis] * grid).ravel()

    # every window ends past floor(L*t), so absurd horizons fail here,
    # before a span of their terms is allocated
    q_max = float(qs.max(initial=0.0))
    if q_max >= UNIFORMIZATION_TERM_CAP:
        raise NumericFailureError(
            f"uniformization would need more than {q_max:.3g} terms for L*t = {q_max:.3g}, "
            f"beyond the cap of {UNIFORMIZATION_TERM_CAP}"
        )

    # rows with L*t > 0 are taken from the end in chunks: the most rows back
    # whose windows fit _CHUNK_FLOATS by the widths _span bounds them by.  A
    # chunk reads a ring of powers p0 (I + Q/L)^k of each generator (Q/1 if
    # L = 0, to keep them finite) that spans its rows' windows and ends at
    # the last term.  Only a one-generator chunk can have the generators of
    # the one before; a grid keeps its ring while the windows stay inside,
    # else frees it.  A chunk reads the windows of its range of the sorted
    # distinct L*t, kept until a chunk reaches past them or is too long for
    # their width; if all L*t differ, or its range outnumbers its rows, its own.
    live = np.flatnonzero(qs)
    done = np.empty((len(live), n))  # the live rows, in order
    modes, spans = np.floor(qs[live]), _span(qs[live], config.eps)
    widths = np.minimum(modes, spans) + spans + 1
    reach = _CHUNK_FLOATS // ((n + 1) * int(widths.min(initial=_CHUNK_FLOATS))) + 1
    scales = np.where(rates > 0.0, rates, 1.0)[:, np.newaxis, np.newaxis]
    ring, held, bases, size, kept, ids = None, None, None, 0, (0, 0), None
    if len(qs) > 1 and not (qs[1:] > qs[:-1]).all():
        distinct, ids = np.unique(qs[live], return_inverse=True)
        ids = ids if len(distinct) < len(live) else None
    stop, rows = len(live), 1
    while stop > 0:
        chunk = live[stop - rows:stop]
        at = None if ids is None else ids[stop - rows:stop]
        low, high = (0, 0) if at is None else (int(at.min()), int(at.max()) + 1)
        if at is None or high - low > rows:
            first, end, weights = _poisson_windows(qs[chunk], config.eps)
        else:
            if not (kept[0] <= low and high <= kept[1] and rows * windows[2].shape[1] * (n + 1) <= _CHUNK_FLOATS):
                kept, windows = (low, high), _poisson_windows(distinct[low:high], config.eps)
            first, end, weights = (part[at - kept[0]] for part in windows)
        need = max(end.tolist())
        if need > UNIFORMIZATION_TERM_CAP:
            raise NumericFailureError(f"uniformization needs {need} terms, beyond the cap of {UNIFORMIZATION_TERM_CAP}")
        local = chunk // times
        lo, hi = int(local[0]), int(local[-1]) + 1
        local -= lo
        if held != (lo, hi) or max(min(first.tolist()), 0) < bases[0] or need > bases[0] + size:
            ring, held = None, (lo, hi)
            tops = np.zeros(hi - lo, dtype=int)
            np.maximum.at(tops, local, end)
            size = 1 << max(1, int((tops[local] - np.maximum(first, 0)).max() - 1).bit_length())
            bases = np.maximum(tops - size, 0)
            ring = _power_ring(p0, np.eye(n) + gens[lo:hi] / scales[lo:hi], bases, size, need)
        # (terms, rows, n), summed over the terms in order, not by BLAS, whose
        # order varies by build; the zero weights that pad the windows read
        # finite rows (clipped, or another term's), so they add exact zeros
        ks = (local * size + first - bases[local]) + np.arange(weights.shape[1])[:, np.newaxis]
        terms = ring.take(ks, axis=0, mode="clip")
        terms *= weights.T[:, :, np.newaxis]
        terms.sum(axis=0, out=done[stop - rows:stop])
        stop -= rows
        if stop:
            bounds = np.maximum.accumulate(widths[max(0, stop - reach):stop][::-1])
            rows = max(1, int(np.count_nonzero(np.arange(1, len(bounds) + 1) * bounds <= _CHUNK_FLOATS // (n + 1))))
    out = np.full((len(qs), n), p0)  # rows with L*t = 0 are the initial vector
    out[live] = done
    return out.reshape(len(gens), times, n)


# --------------------------------------------------------------------------
# matrix exponential and Euler


def _expm_slices(stack: np.ndarray, generic: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm of each slice of a stack, bit for bit.  A slice with
    entries both below and above its diagonal (``generic``) takes that
    branch of SciPy's loop: its own compiled Pade step, the kernels that
    scipy.linalg.expm calls (private, verified on SciPy 1.17.1), then its
    squarings, done here as stacked products over the slices that still need
    one.  The other slices, or all of them where those kernels cannot be
    imported or take another call form, go through the public function."""
    import scipy.linalg  # deferred: costs more to import than the other methods take to run

    index = np.flatnonzero(generic)
    squarings = np.zeros(len(index), dtype=int)
    try:
        from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure

        # SciPy's scratch, e^(A/2^s) ends in works[j, 0]; the unused sixth slab keeps every slice 16-byte
        # aligned for odd n, where some OpenBLAS kernels (Sandybridge) round differently off that boundary
        works = np.empty((len(index), 6, *stack.shape[1:]))[:, :5]
        works[:, 0] = stack[index]
        for j, work in enumerate(works):
            m, squarings[j] = pick_pade_structure(work)
            if m < 0:
                raise MemoryError(f"scipy.linalg.expm could not allocate its Pade structure (error code {m})")
            info = pade_UV_calc(work, m)
            if info != 0:
                raise (MemoryError if info <= -11 else RuntimeError)(
                    f"scipy.linalg.expm failed in its Pade step (error code {info})")
    except (ImportError, TypeError, ValueError):
        return scipy.linalg.expm(stack)
    # fewest squarings first: the slices that need the m-th are a suffix
    order = np.argsort(squarings, kind="stable")
    pade = works[order, 0]
    for first in np.searchsorted(squarings[order], np.arange(1, squarings.max(initial=0) + 1)).tolist():
        pade[first:] = np.matmul(pade[first:], pade[first:])
    exps = np.empty_like(stack)
    exps[index[order]] = pade
    if len(index) < len(stack):
        exps[~generic] = scipy.linalg.expm(stack[~generic])
    return exps


def _expm_rows(p0: np.ndarray, gens: np.ndarray, config: SolverConfig, grid: np.ndarray) -> np.ndarray:
    n = len(p0)
    times = grid[:, np.newaxis, np.newaxis]
    out = np.empty((len(gens) * len(grid), n))
    # row r pairs generator r // len(grid) with time r % len(grid)
    below = np.tri(n, k=-1, dtype=bool)
    rows = min(_EXPM_ROWS, max(1, _CHUNK_FLOATS // n**2))
    for start in range(0, len(out), rows):
        g, k = np.divmod(np.arange(start, min(start + rows, len(out))), len(grid))
        stack = gens[g] * times[k]
        generic = stack[:, below].any(axis=1) & stack[:, below.T].any(axis=1)
        np.matmul(p0, _expm_slices(stack, generic), out=out[start:start + len(g)])
    return out.reshape(len(gens), len(grid), n)


def _euler_guard(gens: np.ndarray, dt: float) -> None:
    """Refuse the first generator of a stack whose step dt is unstable."""
    for rate in np.abs(gens.diagonal(axis1=1, axis2=2)).max(axis=1).tolist():
        if dt * rate >= 1.0:
            raise StepTooLargeError(
                f"Euler step dt = {dt:g} violates dt * max|Q_ii| < 1 (max exit rate {rate:g}); "
                f"use dt < {1.0 / rate if rate else math.inf:g}"
            )


def _lattice_steps(times: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of the whole dt steps and the remainder step that reach each
    time of an ascending grid from 0; a time within 1e-9 of the step lattice
    has no remainder.  A march of more than EULER_STEP_CAP steps (a remainder
    counts as one) is a NumericFailureError, raised before any step is taken."""
    last = float(times[-1]) if len(times) else 0.0
    if last - EULER_STEP_CAP * dt > 1e-9 * max(last, dt):
        raise NumericFailureError(
            f"reaching t = {last:g} with dt = {dt:g} takes more than {EULER_STEP_CAP} steps"
        )
    whole = np.rint(times / dt)
    off = np.abs(whole * dt - times) > 1e-9 * np.maximum(times, dt)
    whole[off] = np.floor(times[off] / dt)
    return whole.astype(int), np.where(off, times - whole * dt, 0.0)


def _march(p: _P, step: Callable[[_P], _P], whole: np.ndarray) -> np.ndarray:
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


def _euler_rows(p0: np.ndarray, gens: np.ndarray, config: SolverConfig, grid: np.ndarray) -> np.ndarray:
    """March p_{k+1} = p_k (I + Q dt) once per generator, to the last grid
    time.  A time off the step lattice takes its remainder step on its own
    row, never carried forward, so every row equals a march to that time."""
    dt = config.dt
    _euler_guard(gens, dt)
    whole, rem = _lattice_steps(grid, dt)
    out = np.empty((len(gens), len(grid), len(p0)))
    for q, rows in zip(gens, out):
        step_matrix = np.eye(len(p0)) + q * dt
        # step_matrix.T.dot(p) computes p @ step_matrix (the tests hold the
        # two equal bit for bit) as a single bound call, which keeps the
        # shared march at least as fast as an inline `p @ step_matrix` loop
        rows[:] = _march(p0, step_matrix.T.dot, whole)
        # one row at a time, as solve_at takes it: a stacked product may round otherwise
        for row in np.flatnonzero(rem).tolist():
            rows[row] = rows[row] @ (np.eye(len(p0)) + q * rem[row])
    return out


# --------------------------------------------------------------------------
# literal replay of the published seven-state update equations

# shape of the bundled feed-water model: (source, target) pairs and the
# per-state service classes the equations assume
_DFWCS_EDGES = frozenset(
    {(1, 2), (1, 7), (2, 1), (2, 3), (2, 7), (3, 2), (3, 6), (3, 7),
     (4, 5), (4, 7), (5, 4), (5, 6), (5, 7)}
)
_DFWCS_CLASSES = (StateClass.OPERATIONAL, StateClass.FAIL_OPERATIONAL, StateClass.FAIL_OPERATIONAL,
                  StateClass.OPERATIONAL, StateClass.FAIL_OPERATIONAL, StateClass.FAIL_SAFE, StateClass.FAIL_UNSAFE)
_SHAPE_RTOL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_SHAPE_RTOL, abs_tol=1e-15)


def _extract_literal_rates(model: MarkovModel, q: np.ndarray) -> tuple[float, ...]:
    """Recover (lam1, lam2, lam3, lam4, C, mu) from the generator ``q`` of a
    structurally matching model.

    Works off evaluated generator entries, so parameter overrides are
    honoured no matter how the rate expressions are spelled.
    """
    if model.ids != (1, 2, 3, 4, 5, 6, 7):
        raise ShapeMismatchError(
            f"literal mode needs states 1..7, got ids {model.ids}"
        )
    for state, cls in zip(model.states, _DFWCS_CLASSES):
        if state.state_class is not cls:
            raise ShapeMismatchError(
                f"literal mode expects state {state.id} to be {cls.value}, got {state.state_class.value}"
            )
    edges = {(tr.source, tr.target) for tr in model.transitions}
    if edges != _DFWCS_EDGES:
        extra = sorted(edges - _DFWCS_EDGES)
        missing = sorted(_DFWCS_EDGES - edges)
        raise ShapeMismatchError(
            f"transition structure differs from the seven-state feed-water shape "
            f"(missing {missing}, extra {extra})"
        )

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
    # the first group that fails at all fixes C; if none does, C is irrelevant
    c = next((detected / total for detected, total in groups if total > 0.0), 1.0)
    for detected, total in groups:
        if total > 0.0 and not _close(detected, total * c):
            raise ShapeMismatchError("failure transitions do not share a single detection coverage")
    return lam1, lam2, lam3, lam4, c, mu


def _literal_run(
    p0: np.ndarray, rates: tuple[float, ...], config: SolverConfig, grid: np.ndarray
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
    return _march(tuple(p0.tolist()), step, whole), defects


def solve_paper_literal(
    model: MarkovModel,
    config: SolverConfig,
    grid: Iterable[float] | None = None,
) -> tuple[Trajectory, MassDefectReport]:
    """Replay the published update equations with step ``config.dt``.

    Runs from 0 to ``grid[-1]`` (or the configured/model/six-month
    horizon when ``grid`` is None) and returns the sampled trajectory
    plus the per-step mass defect 1 - sum_i P_i.  Every requested time
    must be an integer multiple of ``dt``.  Models that are not
    structurally the bundled seven-state feed-water system are rejected
    with :class:`ShapeMismatchError`.
    """
    rates = _extract_literal_rates(model, build_generator(model).entries)
    times = _check_grid(_horizon_times(model, config) if grid is None else grid)
    probs, defects = _literal_run(model.initial_vector(), rates, config, times)
    trajectory = Trajectory(times=times, probs=probs, ids=model.ids)
    steps = config.dt * np.arange(1, len(defects) + 1, dtype=float)
    return trajectory, MassDefectReport(step_times=steps, defects=np.array(defects))


# --------------------------------------------------------------------------
# public entry points


def _check_grid(grid: Iterable[float]) -> np.ndarray:
    """The grid as a new float array, once its entries are real numbers (else
    a TypeError, as from math.isfinite) and its times are finite, >= 0 and
    strictly ascending (else a ValueError on the earliest fault)."""
    given = grid if isinstance(grid, (Sequence, np.ndarray)) else list(grid)
    try:
        times = np.array(given)  # a copy: Trajectory freezes it, never the caller's array
    except ValueError:  # a ragged nest of sequences
        times = np.fromiter(given, dtype=object)
    if times.dtype.kind not in "biuf" or times.ndim != 1:
        np.frompyfunc(math.isfinite, 1, 1)(np.fromiter(given, dtype=object))  # TypeError on a non-number
    times = times.astype(float, copy=False)
    ok = np.isfinite(times) & (times >= 0.0)
    ok[1:] &= times[1:] > times[:-1]
    if not ok.all():
        t = times[ok.argmin()].item()  # the earliest fault
        if not (math.isfinite(t) and t >= 0.0):
            raise ValueError(f"time must be finite and >= 0, got {t!r}")
        raise ValueError("time grid must be strictly ascending")
    return times


def _horizon_times(model: MarkovModel, config: SolverConfig) -> np.ndarray:
    """Step times 0, dt, 2 dt, ... up to the horizon (``config.horizon``,
    else the model's, else six months), plus the horizon itself when it
    is off the step lattice."""
    horizon = config.horizon
    if horizon is None:
        horizon = model.horizon if model.horizon is not None else SIX_MONTHS_HOURS
    whole, rem = _lattice_steps(_check_grid([horizon]), config.dt)
    times = np.arange(whole[0] + 1) * config.dt
    return np.append(times, horizon) if rem[0] > 0.0 else times


# each method maps (p0, (B, n, n) generator stack, config, ascending grid)
# to an unclamped (B, times, n) block: one row per generator and grid time
_GRID_SOLVERS = {
    Method.UNIFORMIZATION: _uniformization_rows,
    Method.MATRIX_EXP: _expm_rows,
    Method.EULER: _euler_rows,
}


def _grid_rows(model: MarkovModel, gens: np.ndarray, config: SolverConfig, times: np.ndarray) -> np.ndarray:
    """The configured method's (B, times, n) rows on a checked grid, clamped here unless literal."""
    p0 = model.initial_vector()
    if config.method is not Method.PAPER_LITERAL:
        return _finalize(_GRID_SOLVERS[config.method](p0, gens, config, times))
    rows = [_literal_run(p0, _extract_literal_rates(model, q), config, times)[0] for q in gens]
    return np.array(rows).reshape(len(gens), len(times), model.n)


def _solve_stack(model: MarkovModel, generators: np.ndarray, config: SolverConfig, grid: Iterable[float]) -> np.ndarray:
    """Distributions on an ascending grid for each generator of a stack from
    ``build_generators``, as a (B, times, n) array: [b, k] equals ``solve_at``
    at ``grid[k]`` of the model whose Q is ``generators[b]``."""
    return _grid_rows(model, generators, config, _check_grid(grid))


def solve_grid(model: MarkovModel, config: SolverConfig, grid: Iterable[float]) -> Trajectory:
    """Distributions on an ascending grid; row k equals
    ``solve_at(model, config, grid[k])``."""
    times = _check_grid(grid)
    probs = _grid_rows(model, build_generators(model), config, times)[0]
    return Trajectory(times=times, probs=probs, ids=model.ids)


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
    return solve_grid(model, replace(config, method=Method.EULER), _horizon_times(model, config))
