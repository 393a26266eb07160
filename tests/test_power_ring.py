"""The uniformization power ring against the power block it replaced
(``tests/reference_block.py``): the same rows bit for bit, at any window
offset, and memory that follows the window width, not L*t.  The peak
memory of the literal march, at the step cap and in a sweep, is bounded here
too, with the same child-process helper."""

import os
import subprocess
import sys

import numpy as np
import pytest

import depmark.solve as solve_module
import reference_block
from conftest import REPO_ROOT
from depmark import SolverConfig, build_generator, parse, solve_at, solve_grid

UNI = SolverConfig()
#: Terms the reference blocks hold: windows are placed below this.
TOP = 1 << 17


def random_stack(rng, g, n):
    """p0 and a stack of g row-stochastic n x n matrices."""
    stochs = rng.random((g, n, n)) * (rng.random((g, n, n)) < 0.6) + np.eye(n) * 1e-3
    stochs /= stochs.sum(axis=2, keepdims=True)
    return rng.dirichlet(np.ones(n)), stochs


def random_chain(rng, n):
    """Model text of a chain of n states whose rates spread over five decades."""
    lines = [f'state {i} "s{i}" class = {"operational" if i < n else "fail_safe"};' for i in range(1, n + 1)]
    for i in range(1, n):
        lines.append(f"trans {i} -> {i + 1} rate = {rng.uniform(1e-3, 10.0):.6g};")
        lines.append(f"trans {i + 1} -> {i} rate = {rng.uniform(1e-3, 10.0):.6g};")
        j = int(rng.integers(1, n + 1))
        if j != i:
            lines.append(f"trans {i} -> {j} rate = {rng.uniform(1e-4, 1e-1):.6g};")
    return "\n".join(lines) + "\n"


def windows(rng, count):
    """(first, end) of windows of width 1 to 3, of a few thousand terms,
    and straddling a power of two, all below TOP."""
    out = []
    for _ in range(count):
        kind = rng.integers(3)
        width = int(rng.integers(1, 4)) if kind == 0 else int(rng.integers(4, 5000))
        if kind == 2:
            edge = 1 << int(rng.integers(3, 17))
            first = max(0, edge - int(rng.integers(1, width + 1)))
        else:
            first = int(rng.integers(0, TOP - width))
        out.append((first, min(first + width, TOP)))
    return out


class TestDifferential:
    @pytest.mark.parametrize("n", [2, 7, 13])
    def test_ring_rows_equal_block_rows(self, n):
        rng = np.random.default_rng(1700 + n)
        p0, stochs = random_stack(rng, 5, n)
        block = reference_block._power_block(p0, stochs, TOP)
        for _ in range(12):
            g = int(rng.integers(1, 6))
            a = int(rng.integers(0, 6 - g))
            spans = windows(rng, g)
            firsts = np.array([f for f, _ in spans])
            tops = np.array([e for _, e in spans])
            end = int(tops.max())
            size = 1 << max(1, int((tops - firsts).max() - 1).bit_length())
            # the kernel's bases end the ring at each window's last term;
            # any base whose ring covers the window must do as well
            bases = np.maximum(tops - size, 0) if rng.random() < 0.5 else firsts
            ring = solve_module._power_ring(p0, stochs[a:a + g], bases, size, end)
            assert ring.shape == (g * size, n)
            for j, (first, top) in enumerate(spans):
                for k in range(first, top):
                    assert np.array_equal(ring[j * size + k - bases[j]], block[(a + j) * TOP + k]), (j, k)

    @pytest.mark.parametrize("n", [2, 7, 13])
    def test_width_one_window_equals_the_stacked_block_row(self, n, monkeypatch):
        # a lift of a one-row ring would be a lone (1, n) @ (n, n) product,
        # which on this numpy and OpenBLAS build often rounds otherwise than
        # the same row inside a larger product; the smallest ring the kernel
        # makes has two rows, so no lone product decides a bit
        rng = np.random.default_rng(1800 + n)
        model = parse(random_chain(rng, n))
        q = build_generator(model).entries
        p0, stochs = model.initial_vector(), (np.eye(n) + q / float(np.max(np.abs(np.diag(q)))))[np.newaxis]
        block = reference_block._power_block(p0, stochs, TOP)
        terms = [int(k) for k in rng.integers(2, TOP, 20)] + [(1 << p) + d for p in (4, 9, 16) for d in (-1, 0)]
        for k in terms:
            ring = solve_module._power_ring(p0, stochs, np.array([k]), 2, k + 1)
            assert np.array_equal(ring[0], block[k]), k
            # the kernel, given a window of the one term k
            window = (np.array([k]), np.array([k + 1]), np.ones((1, 1)))
            monkeypatch.setattr(solve_module, "_poisson_windows", lambda qs, eps, window=window: window)
            assert np.array_equal(solve_at(model, UNI, 1.0), np.clip(block[k], 0.0, 1.0)), k

    @pytest.mark.parametrize("n", [2, 7, 13])
    def test_solve_at_equals_the_block_sum(self, n):
        # the kernel end to end: window weights from the same recurrence,
        # rows from the reference block, added in term order
        rng = np.random.default_rng(1900 + n)
        model = parse(random_chain(rng, n))
        q = build_generator(model).entries
        rate = float(np.max(np.abs(np.diag(q))))
        block = reference_block._power_block(model.initial_vector(), (np.eye(n) + q / rate)[np.newaxis], TOP)
        for lt in (0.7, 300.0, 5000.0, 6.0e4, 1.1e5):
            t = lt / rate
            (lo,), _, (weights,) = solve_module._poisson_windows(np.array([rate * t]), UNI.eps)
            acc = np.zeros(n)
            for w, power in zip(weights, block[lo:lo + len(weights)]):
                acc += w * power
            assert np.array_equal(solve_at(model, UNI, t), np.clip(acc, 0.0, 1.0)), lt

    def test_stiff_grid_rows_equal_pointwise_solves(self, dfwcs, monkeypatch):
        # MU = 6: windows of about 3300 terms past term 5e4, in chunks of a
        # row or two, some reading the ring an earlier chunk built
        stiff = dfwcs.with_params({"MU": 6.0})
        grid = [4000.0 + 7.0 * k for k in range(55)]
        calls = []
        ring = solve_module._power_ring

        def counted(p0, stochs, base, size, end):
            calls.append(size)
            return ring(p0, stochs, base, size, end)

        monkeypatch.setattr(solve_module, "_power_ring", counted)
        traj = solve_grid(stiff, UNI, grid)
        monkeypatch.undo()
        assert 1 < len(calls) < len(grid) and max(calls) <= 8192
        for k, t in enumerate(grid):
            assert np.array_equal(traj.probs[k], solve_at(stiff, UNI, t))


def peak_rss_mb(code: str, limit_bytes: int | None = None) -> float:
    """Peak resident set (MB) of a fresh interpreter that runs ``code`` after
    importing depmark from this tree and loading the bundled dfwcs model."""
    prelude = (
        "import resource, numpy as np, depmark\n"
        "dfwcs = depmark.load_model(depmark.bundled_model_path('dfwcs.mdl'))\n"
        "cfg = depmark.SolverConfig()\n"
    )
    if limit_bytes is not None:
        limit = f"resource.setrlimit(resource.RLIMIT_AS, ({limit_bytes}, {limit_bytes}))\n"
        prelude = "import resource\n" + limit + prelude
    epilogue = "\nprint(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)\n"
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", prelude + code + epilogue], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout.split()[-1])


class TestMemory:
    def test_stiff_solve_peaks_near_the_plain_one(self):
        # MU = 60 puts L*t near 5.3e5 at six months: the block of 2^20
        # powers from term 0 that the ring replaced took about 30 MB more
        plain = peak_rss_mb("depmark.solve_at(dfwcs, cfg, 4380.0)")
        stiff = peak_rss_mb("depmark.solve_at(dfwcs.with_params({'MU': 60.0}), cfg, 4380.0)")
        assert stiff - plain <= 5.0, (plain, stiff)

    def test_literal_march_memory_at_the_step_cap_and_in_a_sweep(self):
        # solve_paper_literal keeps the grid rows and one defect per step: at
        # the cap, a list of 1e6 Python floats (about 32 MB) and their array;
        # measured 32.4 MB above the plain child on a 2-core x86-64 Linux
        # host, numpy 2.4.6, so the bound leaves 8 MB.  The grid path keeps
        # only the grid rows of each generator: a stack of 201 coverages at
        # six months, whose steps would be 49 MB, stays near the plain child
        literal = "lit = depmark.SolverConfig(depmark.Method.PAPER_LITERAL, dt=1.0)\n"
        plain = peak_rss_mb(literal)
        capped = peak_rss_mb(
            literal + "traj, report = depmark.solve_paper_literal(dfwcs, lit, np.linspace(0.0, 1e6, 1001))\n"
            "assert len(traj) == 1001 and len(report.defects) == depmark.solve.EULER_STEP_CAP\n"
        )
        swept = peak_rss_mb(
            literal + "assert len(depmark.sweep(dfwcs, 'C', np.linspace(0.0, 1.0, 201), 4380.0, lit)) == 201\n"
        )
        assert capped - plain <= 40.0, (plain, capped)
        assert swept - plain <= 5.0, (plain, swept)

    def test_forty_states_at_five_million_terms_under_one_gib(self):
        # a block from term 0 would be 2^23 powers of 40 states, 2.5 GiB;
        # the window is about 32k terms wide.  Row sums are checked loosely:
        # the mode weight's rounding at this L*t leaves about 4e-9
        code = (
            f"model = depmark.parse({random_chain(np.random.default_rng(40), 40)!r})\n"
            "rate = float(np.max(np.abs(np.diag(depmark.build_generator(model).entries))))\n"
            "p = depmark.solve_at(model, cfg, 5.0e6 / rate)\n"
            "assert np.all((p >= 0.0) & (p <= 1.0)) and abs(p.sum() - 1.0) < 1e-6, p.sum()\n"
        )
        assert peak_rss_mb(code, limit_bytes=1 << 30) < 1024.0
