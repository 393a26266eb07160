"""One clamp for every method: the uniformization, expm and Euler kernels
take a start vector and return raw rows, and ``_grid_rows`` clamps them into
[0, 1] once, t = 0 rows included.  The literal rows are never clamped.

Raw rows are what lets a start vector that is not a distribution pass
through the same kernels: on the block generator diag(Q, Q), the start
[p0, 0] gives the distribution in its first half, and [p0, -p0] gives it and
its exact negative."""

import dataclasses

import numpy as np
import pytest

import depmark.solve as solve_module
from depmark import Method, NumericFailureError, SolverConfig, build_generators, solve_at, solve_grid

CLAMPED = (Method.UNIFORMIZATION, Method.MATRIX_EXP, Method.EULER)
GRID = np.array([0.0, 1.0, 17.0, 100.0, 4380.0])


@pytest.fixture
def finalize_calls(monkeypatch):
    calls = []
    finalize = solve_module._finalize

    def counted(probs):
        calls.append(probs.shape)
        return finalize(probs)

    monkeypatch.setattr(solve_module, "_finalize", counted)
    return calls


@pytest.mark.parametrize("method", CLAMPED)
def test_an_initial_vector_outside_0_1_fails_at_t_0_in_every_method(dfwcs, method):
    # the t = 0 row is p0 itself, so it meets the same check as any other row
    model = dataclasses.replace(dfwcs, initial={1: 1.5, 2: -0.5})
    config = SolverConfig(method)
    with pytest.raises(NumericFailureError, match="in row 0: "):
        solve_at(model, config, 0.0)
    with pytest.raises(NumericFailureError, match="in row 0: "):
        solve_grid(model, config, [0.0, 1.0])


@pytest.mark.parametrize("method", CLAMPED)
def test_each_entry_point_clamps_once(dfwcs, finalize_calls, method):
    config = SolverConfig(method)
    solve_grid(dfwcs, config, GRID)
    solve_at(dfwcs, config, 100.0)
    solve_module._solve_stack(dfwcs, build_generators(dfwcs, "C", [0.9, 1.0]), config, GRID)
    assert finalize_calls == [(1, len(GRID), 7), (1, 1, 7), (2, len(GRID), 7)]


def test_literal_rows_are_never_clamped(dfwcs, finalize_calls):
    config = SolverConfig(Method.PAPER_LITERAL)
    solve_grid(dfwcs, config, GRID)
    solve_at(dfwcs, config, 100.0)
    solve_module._solve_stack(dfwcs, build_generators(dfwcs, "C", [0.9, 1.0]), config, GRID)
    solve_module.solve_paper_literal(dfwcs, config, GRID)
    assert finalize_calls == []


def _doubled(model):
    """The generator diag(Q, Q) of two independent copies of the chain."""
    (q,) = build_generators(model)
    n = len(q)
    gens = np.zeros((1, 2 * n, 2 * n))
    gens[0, :n, :n] = gens[0, n:, n:] = q
    return gens


@pytest.mark.parametrize("config, tol", [
    (SolverConfig(Method.UNIFORMIZATION), 0.0),
    (SolverConfig(Method.MATRIX_EXP), 1e-15),
    (SolverConfig(Method.EULER, dt=0.05), 1e-13),
], ids=["uniformization", "expm", "euler"])
@pytest.mark.parametrize("name", ["dfwcs", "dfwcs_mu6", "dfwcs_pid"])
def test_kernels_carry_a_start_vector_that_is_not_a_distribution(request, name, config, tol):
    model = request.getfixturevalue(name.removesuffix("_mu6"))
    if name.endswith("_mu6"):
        model = model.with_params({"MU": 6.0})
    want = solve_grid(model, config, GRID).probs
    p0, n = model.initial_vector(), model.n
    gens = _doubled(model)
    for sign in (0.0, -1.0):
        (rows,) = solve_module._GRID_SOLVERS[config.method](np.concatenate([p0, sign * p0]), gens, config, GRID)
        first, second = rows[:, :n], rows[:, n:]
        if tol == 0.0:
            # uniformization: the first half is the distribution bit for bit,
            # and the second exactly its multiple by sign
            assert first.tobytes() == want.tobytes()
            assert np.array_equal(second, sign * first)
        else:
            scale = tol * want.max(axis=1, keepdims=True)
            assert np.all(np.abs(first - want) <= scale)
            assert np.all(np.abs(second - sign * want) <= scale)
