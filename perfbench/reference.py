"""Independent answers the benchmark checks depmark's outputs against.

Nothing here calls depmark's solvers: the matrix exponential is a plain
scaling-and-squaring Taylor series written for this harness, in the same
spirit as the test suite's oracle, so a wrong solver cannot also make its
own reference wrong.  Only the generator matrix Q, the initial vector and
the state classes are taken from the loaded model.
"""

from __future__ import annotations

import math

import numpy as np

_TAYLOR_ORDER = 20
_SCALE_TARGET = 0.5

#: Per-side probability that a correct simulator's count falls outside the
#: acceptance interval of :func:`binomial_outliers`.  With seven states and
#: two sides a correct run fails at most 14e-9 of the time, far below the
#: one op in 1e6 the benchmark allows for chance failures.
TAIL_DELTA = 1e-9


def expm_taylor(a: np.ndarray) -> np.ndarray:
    """e**a for a small square matrix by scaling and squaring."""
    n = a.shape[0]
    norm = float(np.linalg.norm(a, 1))
    squarings = int(math.ceil(math.log2(norm / _SCALE_TARGET))) if norm > _SCALE_TARGET else 0
    scaled = a / 2.0**squarings
    result = np.eye(n) + scaled / _TAYLOR_ORDER
    for k in range(_TAYLOR_ORDER - 1, 0, -1):
        result = np.eye(n) + (scaled / k) @ result
    for _ in range(squarings):
        result = result @ result
    return result


def distribution(q: np.ndarray, p0: np.ndarray, t: float) -> np.ndarray:
    """p0 e**(Q t)."""
    return p0 @ expm_taylor(q * t)


def hourly(q: np.ndarray, p0: np.ndarray, hours: int) -> np.ndarray:
    """Rows p(0), p(1), ..., p(hours) by repeated multiplication with
    e**Q; the accumulated rounding stays near 1e-13 over 4380 steps."""
    step = expm_taylor(q)
    rows = np.empty((hours + 1, len(p0)))
    rows[0] = p0
    for k in range(1, hours + 1):
        rows[k] = rows[k - 1] @ step
    return rows


def euler_error_bound(q: np.ndarray, hourly_rows: np.ndarray) -> np.ndarray:
    """Bound on the 1-norm error of forward Euler with step dt = 1 h after
    k steps, for every k covered by ``hourly_rows``.

    One step from the exact p(t_j) errs by p(t_j)(e**(Q dt) - I - Q dt),
    whose 1-norm is at most ||p(t_j) Q^2||_1 dt^2/2 e**(dt ||Q||_inf).
    The Euler step matrix is stochastic under depmark's stability guard,
    so propagating an error never grows its 1-norm, and the global error
    after k steps is at most the sum of the first k local errors.  The
    bound is first order: it grows like t dt.  1e-12 is added for the
    rounding of the reference rows themselves.
    """
    local = np.abs(hourly_rows @ (q @ q)).sum(axis=1) / 2.0
    local *= math.exp(float(np.abs(q).sum(axis=1).max()))
    bound = np.concatenate(([0.0], np.cumsum(local[:-1])))
    return bound + 1e-12


def _kl(x: float, p: float) -> float:
    """Bernoulli relative entropy D(x || p) for 0 <= x <= 1, 0 < p < 1."""
    out = 0.0
    if x > 0.0:
        out += x * math.log(x / p)
    if x < 1.0:
        out += (1.0 - x) * math.log((1.0 - x) / (1.0 - p))
    return out


def binomial_outliers(counts: np.ndarray, probs: np.ndarray, trials: int) -> list[int]:
    """Indices whose count a Binomial(trials, p) would reach with chance
    below :data:`TAIL_DELTA` on its side.

    Uses the Chernoff bound P(X >= x) <= exp(-n D(x/n || p)) for x >= np
    (and its mirror below the mean), which holds for every n and p; so
    states far below sampling resolution, where a normal z-score means
    nothing, are judged by the same rule as the well-populated ones.
    """
    limit = math.log(1.0 / TAIL_DELTA)
    bad = []
    for k, (count, p) in enumerate(zip(counts, probs)):
        p = min(max(float(p), 0.0), 1.0)
        if p == 0.0 or p == 1.0:
            if count != p * trials:
                bad.append(k)
            continue
        if trials * _kl(int(count) / trials, p) > limit:
            bad.append(k)
    return bad


def z_scores(counts: np.ndarray, probs: np.ndarray, trials: int) -> np.ndarray:
    """Normal-theory z of each count, for the record only."""
    mean = trials * probs
    sd = np.sqrt(np.maximum(trials * probs * (1.0 - probs), 1e-300))
    return (counts - mean) / sd
