"""The Poisson windows of the uniformization kernel as they were before
``_span`` fixed their span a priori, kept verbatim as the reference for the
differential window test: the first span was a guess, widened until both
stops of every row fell inside it.  Every (first, end, weights) the kernel
returns must equal this one's bit for bit."""

import math

import numpy as np

from depmark.model import NumericFailureError
from depmark.solve import UNIFORMIZATION_TERM_CAP


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
    span = int(_first_span(max(q_list)))
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


def _first_span(q):
    """Terms each side of the mode that the window of Poisson(q) is first
    sought in (q a float or an array); small eps may widen it."""
    return 16 + np.floor(8.0 * np.sqrt(q))
