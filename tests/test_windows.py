"""Poisson windows whose span is fixed a priori by ``_span`` against the
widen-and-retry search they replaced (``tests/reference_windows.py``): the
same (first, end, weights) bit for bit, one row or many, at every eps the
solver accepts, with every stop inside the span."""

import math

import numpy as np
import pytest

import depmark.solve as solve_module
import reference_windows
from depmark import NumericFailureError

EPS = (0.9, 0.5, 1e-3, 1e-6, 1e-12, 1e-16, 1e-30, 1e-50, 1e-100, 1e-200, 1e-300)
# a log grid over [1e-9, 1e7), the whole numbers to 200, and the L*t of the
# bundled model at six months, with MU=6 and with MU=60
QS = np.unique(np.concatenate([
    np.geomspace(1e-9, 1e7, 600, endpoint=False),
    np.arange(1.0, 201.0),
    [121.68, 5.256e4, 5.3e5],
]))


def _batches(qs, eps):
    """Ascending runs of qs whose windows hold about 2e5 columns in all."""
    spans = 2.0 * solve_module._span(qs, eps)
    start = 0
    while start < len(qs):
        stop = start + 1
        while stop < len(qs) and (stop + 1 - start) * spans[stop] <= 2e5:
            stop += 1
        yield qs[start:stop]
        start = stop


def _assert_same(new, old):
    for got, expected in zip(new, old):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


@pytest.mark.parametrize("eps", EPS)
def test_batched_windows_equal_the_search(eps):
    for qs in _batches(QS, eps):
        first, end, weights = solve_module._poisson_windows(qs, eps)
        _assert_same((first, end, weights), reference_windows._poisson_windows(qs, eps))
        # each stop, the first term a row drops on either side, lies within
        # the span less one
        modes = np.floor(qs).astype(int)
        starts = first + (weights != 0.0).argmax(axis=1)
        distance = np.maximum(modes - starts + 1, end - modes)
        assert (solve_module._span(qs, eps) >= distance + 1).all()


@pytest.mark.parametrize("eps", EPS)
def test_one_row_windows_equal_the_search(eps):
    # every fourth q: one row per call costs the same per call at any q
    for q in QS[::4]:
        qs = np.array([q])
        _assert_same(solve_module._poisson_windows(qs, eps), reference_windows._poisson_windows(qs, eps))


def test_a_stop_outside_the_span_is_refused(monkeypatch):
    # the window of 121.7 stops about 50 terms either side of its mode: a
    # span of 2 may not return a window cut short
    monkeypatch.setattr(solve_module, "_span", lambda q, eps: 2)
    with pytest.raises(NumericFailureError, match="does not stop within 2 terms"):
        solve_module._poisson_windows(np.array([121.7]), 1e-12)
    with pytest.raises(NumericFailureError):
        solve_module._poisson_windows(np.array([0.5, 121.7]), 1e-12)
    # at eps = 0.9 the window of 2 stops 2 terms above its mode but 3 below
    # it, at term -1: a span of 2 holds the upper stop alone
    with pytest.raises(NumericFailureError):
        solve_module._poisson_windows(np.array([2.0]), 0.9)


@pytest.mark.parametrize("eps", EPS)
def test_the_span_holds_the_bound_it_is_derived_from(eps):
    # three terms short of the span lies the whole x from which, in _span's
    # derivation, Bernstein's bound on term q + x times the stop test's
    # factor 1 + q/x, and e for rounding, is under eps/4: the windows stop
    # well inside the span in practice, so only the bound itself shows a
    # span cut short
    for q in QS.tolist():
        x = float(solve_module._span(q, eps)) - 3.0
        assert x * x / (2.0 * (q + x / 3.0)) >= (math.log(4.0 / eps) + 1.0 + math.log1p(q / x)) * (1.0 - 1e-12)
