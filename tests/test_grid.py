"""A time grid as one float array, from ``--grid`` to ``Trajectory.times``,
against the per-point Python code it replaced (``tests/reference_grid.py``):
``_check_grid`` raises the same exception with the same text for float
grids, and otherwise returns the same bits, whether the grid comes as a
list, a tuple, an ndarray or a generator; ``_parse_grid`` and
``_horizon_times`` build the same bits.  Two changes are intended and have
their own tests: an int grid whose float times collapse is refused, and a
bad time is printed as a Python float, whatever container held it."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import depmark.cli as cli
import depmark.solve as solve_module
import reference_grid
from depmark import Method, SolverConfig, solve_at, solve_euler, solve_grid
from depmark.model import DepmarkError

CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "ndarray": lambda times: np.array(times, dtype=float),
    "generator": lambda times: (t for t in times),
}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (TypeError, ValueError, DepmarkError) as err:
        return err


def _assert_same(got, expected):
    if isinstance(expected, Exception):
        assert type(got) is type(expected), got
        assert str(got) == str(expected)
    else:
        expected = np.asarray(expected, dtype=float)
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


@st.composite
def float_grids(draw):
    """Sorted distinct times with up to three faults put in: a NaN, an
    infinity, a negative or signed-zero time, a repeat of the time before,
    or a time below it."""
    times = sorted(set(draw(st.lists(st.floats(0.0, 1e4), max_size=12))))
    for _ in range(draw(st.integers(0, 3)) if times else 0):
        k = draw(st.integers(0, len(times) - 1))
        before = times[k - 1] if k else 0.0
        times[k] = draw(st.sampled_from([
            math.nan, math.inf, -math.inf, -0.0, -1.0, -5e-324, before,
            before / 2.0, math.nextafter(before, -math.inf), math.nextafter(before, math.inf),
        ]))
    return times


@seed(21)
@settings(max_examples=300)
@given(times=float_grids(), container=st.sampled_from(sorted(CONTAINERS)))
def test_check_equals_the_loop(times, container):
    _assert_same(_outcome(solve_module._check_grid, CONTAINERS[container](times)),
                 _outcome(reference_grid._check_grid, times))


@pytest.mark.parametrize("grid", [
    [None], ["1.0"], [0.0, None], [0.0, "2"], [0.0, [1.0]], [[0.0, 1.0]], [1j],
    np.array([[0.0, 1.0]]), np.array(1.0), "012",
], ids=repr)
def test_non_numbers_are_type_errors_with_the_text_of_isfinite(grid):
    expected = _outcome(reference_grid._check_grid, grid)
    assert isinstance(expected, TypeError)
    _assert_same(_outcome(solve_module._check_grid, grid), expected)


@pytest.mark.parametrize("grid", [
    [], range(5), (0, 1.5, 3), [True, 2], [Decimal("0.5"), Fraction(3, 4)], [2**70],
    np.arange(4), np.array([0.5, 2.0], dtype=np.float32), [np.float64(0.25), 1],
], ids=repr)
def test_other_number_grids_equal_the_loop(grid):
    _assert_same(solve_module._check_grid(grid), reference_grid._check_grid(grid))


def test_int_grid_that_collapses_as_floats_is_refused(toy):
    # 2**53 + 1 rounds to 2**53: ascending as ints, but not as times
    grid = [2**53, 2**53 + 1]
    assert reference_grid._check_grid(grid).tolist() == [2.0**53, 2.0**53]
    with pytest.raises(ValueError, match="^time grid must be strictly ascending$"):
        solve_grid(toy, SolverConfig(Method.MATRIX_EXP), grid)


@pytest.mark.parametrize("grid, shown", [
    (np.array([0.0, math.nan]), "nan"),
    (np.array([1.0, -1.0]), "-1.0"),
    (np.array([math.inf], dtype=np.float32), "inf"),
    ([0, -1], "-1.0"),
    ([np.float64(-0.5)], "-0.5"),
])
def test_bad_time_is_printed_as_a_python_float(grid, shown):
    with pytest.raises(ValueError) as caught:
        solve_module._check_grid(grid)
    assert str(caught.value) == f"time must be finite and >= 0, got {shown}"


def test_a_bad_time_is_named_before_a_descent_at_the_same_index():
    with pytest.raises(ValueError, match="got -1.0$"):
        solve_module._check_grid([2.0, 3.0, -1.0, 0.5])
    with pytest.raises(ValueError, match="ascending"):
        solve_module._check_grid([2.0, 3.0, 1.0, math.nan])


def test_solve_grid_checks_once_and_keeps_that_array(toy, monkeypatch):
    checked = []

    def check(grid):
        checked.append(reference_grid._check_grid(grid))
        return checked[-1]

    monkeypatch.setattr(solve_module, "_check_grid", check)
    given_grid = np.array([0.0, 1.0, 2.5])
    traj = solve_grid(toy, SolverConfig(), given_grid)
    assert len(checked) == 1 and traj.times is checked[0]
    assert not traj.times.flags.writeable and given_grid.flags.writeable


@pytest.mark.parametrize("method", [Method.UNIFORMIZATION, Method.MATRIX_EXP, Method.EULER])
def test_generator_grid_rows_equal_list_grid_rows(toy, method):
    config = SolverConfig(method)
    times = [0.0, 0.5, 2.0, 7.25]
    from_list = solve_grid(toy, config, times)
    from_generator = solve_grid(toy, config, (t for t in times))
    assert from_generator.times.tobytes() == from_list.times.tobytes()
    assert from_generator.probs.tobytes() == from_list.probs.tobytes()
    assert solve_at(toy, config, 7.25).tobytes() == from_list.probs[-1].tobytes()


@seed(21)
@settings(max_examples=200)
@given(
    start=st.floats(0.0, 1e4) | st.sampled_from([0.0, 0.1, 3.3]),
    step=st.floats(1e-3, 1e3) | st.sampled_from([0.1, 0.3, 0.7, 1.0, 1.1]),
    count=st.integers(0, 2000),
    nudge=st.sampled_from([0.0, 0.5, -1e-10, 1e-10]),
)
def test_parse_grid_equals_the_comprehension(start, step, count, nudge):
    text = f"{start!r}:{start + (count + nudge) * step!r}:{step!r}"
    _assert_same(_outcome(cli._parse_grid, text), _outcome(reference_grid._parse_grid, text))


@pytest.mark.parametrize("text", [
    "0:8:2", "0:4380:1", "0.1:1000.7:0.3", "3.3:77.7:1.1", "0:999999:1", "0:1e6:1",
    "0:10", "0:x:1", "0:inf:1", "-1:10:1", "0:10:0", "10:0:1",
])
def test_parse_grid_texts(text):
    _assert_same(_outcome(cli._parse_grid, text), _outcome(reference_grid._parse_grid, text))


HORIZONS = (0.0, 0.3, 1.0, 2.5, 10.0, 99.9, 100.0, 1000.7, 4380.0, 4380.25, 8760.0, None)
DTS = (1e-3, 0.01, 0.1, 0.25, 0.3, 0.5, 0.7, 1.0, 1.1, 3.0, 7.5, 24.0, 100.0, 5000.0)


@pytest.mark.parametrize("dt", DTS)
def test_horizon_times_equal_the_list(dfwcs, toy, dt):
    # a None horizon falls back to the model's (dfwcs: 4380), else six months (toy)
    for horizon in HORIZONS:
        config = SolverConfig(Method.EULER, dt=dt, horizon=horizon)
        for model in (dfwcs, toy):
            _assert_same(_outcome(solve_module._horizon_times, model, config),
                         _outcome(reference_grid._horizon_times, model, config))


@pytest.mark.parametrize("horizon, dt", [(None, 1.0), (2.5, 0.7), (100.0, 0.3), (10.0, 0.25)])
def test_solve_euler_rows_are_the_list_grid_rows(dfwcs, horizon, dt):
    config = SolverConfig(Method.EULER, dt=dt, horizon=horizon)
    times = reference_grid._horizon_times(dfwcs, config)
    traj = solve_euler(dfwcs, config)
    assert traj.times.tobytes() == np.array(times).tobytes()
    assert traj.probs.tobytes() == solve_grid(dfwcs, config, times).probs.tobytes()
