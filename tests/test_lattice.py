"""The numpy split of a time grid into dt steps against the per-time loop it
replaced (``tests/reference_lattice.py``): the same whole steps and the same
remainder bits on ascending grids whose times sit on the step lattice, within
its 1e-9 tolerance, just outside it, at half steps or anywhere."""

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import depmark.solve as solve_module
import reference_lattice

DTS = (1e-3, 0.1, 0.3, 0.4, 0.5, 0.7, 1.0, 3.0, 7.5)


@st.composite
def lattice_grids(draw):
    """(grid, dt): sorted distinct times, each a lattice point k dt moved by
    a kind of offset: none, inside or just outside the 1e-9 tolerance, half
    a step, or any fraction of a step."""
    dt = draw(st.sampled_from(DTS) | st.floats(1e-3, 10.0))
    times = set()
    for _ in range(draw(st.integers(0, 30))):
        k = draw(st.integers(0, 5000))
        base = k * dt
        tol = 1e-9 * max(base, dt)
        kind = draw(st.sampled_from(["on", "inside", "outside", "half", "any"]))
        if kind == "on":
            t = base
        elif kind == "inside":
            t = base + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.0, 0.999)) * tol
        elif kind == "outside":
            t = base + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.001, 4.0)) * tol
        elif kind == "half":
            t = (k + 0.5) * dt
        else:
            t = base + draw(st.floats(0.0, 1.0, exclude_max=True)) * dt
        if t >= 0.0:
            times.add(t)
    return sorted(times), dt


@seed(20)
@settings(max_examples=300)
@given(case=lattice_grids())
def test_split_equals_the_loop(case):
    grid, dt = case
    whole, rem = solve_module._lattice_steps(np.asarray(grid, dtype=float), dt)
    expected = reference_lattice._lattice_steps(grid, dt)
    assert whole.tolist() == [w for w, _ in expected]
    assert rem.tobytes() == np.array([r for _, r in expected], dtype=float).tobytes()
