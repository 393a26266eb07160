"""Per-layer probes: each public function of each depmark module, timed
from outside on the benchmark's fixed inputs and recorded as spans.

The layers are the modules: lang, model, solve, analysis, simulate and
cli.  For cli, interpreter start and ``import depmark`` are part of the
layer, so those probes run in fresh child interpreters.  Calls that take
well under a millisecond are repeated inside one span (``reps``) and
reported per call.

Two outer calls are broken down: ``depmark.cli.main`` for the hourly grid
(into load, validate, solve_grid and export) and ``sweep`` (into
with_params, solve_at and metrics).  The inner calls are timed
separately, on the same inputs, as children of the outer span, and the
outer call's self time is reported as a derived figure.
"""

from __future__ import annotations

import contextlib
import csv
import io
import sys
from pathlib import Path
from time import perf_counter

import depmark
import depmark.cli

from tracing import Tracer
from workloads import (
    CLI_COMMANDS, EULER, EXPM, LITERAL, STIFF, UNIF, Bench, CheckFailed, T, check, cli_argv,
)

CHILD_PROBES = (
    ("cli.interp", "pass"),
    ("cli.import", "import depmark"),
    ("cli.import_numpy", "import numpy"),
    ("cli.import_scipy", "import numpy, scipy.linalg"),
)

# (metric, span, unit, seconds -> unit, self time only)
PER_LAYER = (
    ("cli.interp_s", "cli.interp", "s", 1.0, False),
    ("cli.import_s", "cli.import", "s", 1.0, False),
    ("cli.import_numpy_s", "cli.import_numpy", "s", 1.0, False),
    ("cli.import_scipy_s", "cli.import_scipy", "s", 1.0, False),
    ("cli.main_at_ms", "cli.main_at", "ms", 1e3, False),
    ("cli.main_grid_ms", "cli.main_grid", "ms", 1e3, False),
    ("cli.emit_grid_ms", "cli.main_grid", "ms", 1e3, True),
    ("lang.parse_ms", "lang.parse", "ms", 1e3, False),
    ("lang.load_model_ms", "lang.load_model", "ms", 1e3, False),
    ("model.validate_ms", "model.validate", "ms", 1e3, False),
    ("model.build_generator_ms", "model.build_generator", "ms", 1e3, False),
    ("model.with_params_ms", "model.with_params", "ms", 1e3, False),
    ("solve.unif_at_ms", "solve.unif_at", "ms", 1e3, False),
    ("solve.unif_at_stiff_ms", "solve.unif_at_stiff", "ms", 1e3, False),
    ("solve.expm_at_ms", "solve.expm_at", "ms", 1e3, False),
    ("solve.euler_at_ms", "solve.euler_at", "ms", 1e3, False),
    ("solve.literal_at_ms", "solve.literal_at", "ms", 1e3, False),
    ("solve.unif_grid_ms", "solve.unif_grid", "ms", 1e3, False),
    ("solve.expm_grid_ms", "solve.expm_grid", "ms", 1e3, False),
    ("solve.euler_grid_ms", "solve.euler_grid", "ms", 1e3, False),
    ("solve.literal_grid_ms", "solve.literal_grid", "ms", 1e3, False),
    ("analysis.metrics_us", "analysis.metrics", "us", 1e6, False),
    ("analysis.export_ms", "analysis.export", "ms", 1e3, False),
    ("analysis.sweep_self_ms", "analysis.sweep", "ms", 1e3, True),
    ("analysis.audit_ms", "analysis.audit", "ms", 1e3, False),
    ("simulate.run_ms", "simulate.run", "ms", 1e3, False),
)

#: Figures derived by subtraction rather than measured by one span.
DERIVED = ("cli.emit_grid_ms", "analysis.sweep_self_ms")

SRC_MODULES = ("__init__", "__main__", "analysis", "cli", "lang", "model", "simulate", "solve")

COUNTS = (
    *(f"count.rows.{op}" for op in
      ("unif_grid", "expm_grid", "euler_grid", "literal_grid", "export", "sweep", "audit")),
    *(f"count.stdout_bytes.{c}" for c in CLI_COMMANDS),
    "count.Lt.dfwcs",
    "count.Lt.stiff",
    "count.sim_batches",
    *(f"count.src_lines.{m}" for m in SRC_MODULES),
    "count.src_lines.total",
)


def static_counts(bench: Bench) -> dict[str, float]:
    """Counts that follow from the source and the models alone."""
    out: dict[str, float] = {}
    for name, model in (("dfwcs", bench.dfwcs), ("stiff", bench.dfwcs.with_params(STIFF))):
        q = depmark.build_generator(model).entries
        out[f"count.Lt.{name}"] = float(abs(q.diagonal()).max()) * T
    src = bench.root / "src" / "depmark"
    lines = {p.stem: len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py")}
    for module in SRC_MODULES:
        out[f"count.src_lines.{module}"] = lines.get(module, 0)
    out["count.src_lines.total"] = sum(lines.values())
    return out


def run_main(argv: list[str]) -> tuple[int, bytes]:
    """``depmark.cli.main`` in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = depmark.cli.main(argv)
    return code, out.getvalue().encode("utf-8")


def repeat(fn, reps: int):
    for _ in range(reps - 1):
        fn()
    return fn()


def probe_round(bench: Bench, tr: Tracer, sweep_values: list[float], sim_seed: int) -> float:
    """One pass over every probe; counts go to ``bench.ops``.  Returns the
    cost in seconds of one empty span, the floor of the tracing overhead."""
    b, size, count = bench, bench.size, bench.ops.count
    model = b.dfwcs
    stiff = model.with_params(STIFF)
    hourly = size.grid(size.hourly_step)
    coarse = size.grid(size.euler_step)
    text = Path(b.model_path).read_text(encoding="utf-8")

    for name, code in CHILD_PROBES:
        with tr.span(name):
            proc = b.child([sys.executable, "-c", code])
        check(proc.returncode == 0, f"{name} child failed")

    # cli: in-process main, and the grid command broken into its calls
    with tr.span("cli.main_at", reps=5):
        repeat(lambda: run_main(cli_argv(b, "solve_at", sim_seed)), 5)
    with tr.span("cli.main_grid") as grid_span:
        code, out = run_main(cli_argv(b, "solve_grid", sim_seed))
    check(code == 0, "in-process solve --grid failed")
    count("count.stdout_bytes.solve_grid", len(out))
    with tr.span("lang.load_model", parent=grid_span):
        loaded = depmark.load_model(b.model_path)
    with tr.span("model.validate", parent=grid_span):
        depmark.validate(loaded)
    with tr.span("solve.unif_grid", parent=grid_span):
        traj = depmark.solve_grid(loaded, UNIF, hourly)
    with tr.span("analysis.export", parent=grid_span):
        _, rows = depmark.export_timeseries(traj, loaded)
    count("count.rows.unif_grid", len(traj))
    count("count.rows.export", len(rows))
    for command in CLI_COMMANDS:
        if command != "solve_grid":
            code, out = run_main(cli_argv(b, command, sim_seed))
            check(code == (1 if command == "audit" else 0), f"in-process {command} exit code {code}")
            count(f"count.stdout_bytes.{command}", len(out))

    # lang and model
    with tr.span("lang.parse", reps=20):
        repeat(lambda: depmark.parse(text), 20)
    with tr.span("lang.load_model", reps=20):
        repeat(lambda: depmark.load_model(b.model_path), 20)
    with tr.span("model.validate", reps=200):
        repeat(lambda: depmark.validate(model), 200)
    with tr.span("model.build_generator", reps=200):
        repeat(lambda: depmark.build_generator(model), 200)
    with tr.span("model.with_params", reps=200):
        repeat(lambda: model.with_params({"C": 0.95}), 200)

    # solve: one point, then the grids
    with tr.span("solve.unif_at", reps=20):
        dist = repeat(lambda: depmark.solve_at(model, UNIF, T), 20)
    with tr.span("solve.unif_at_stiff", reps=2):
        repeat(lambda: depmark.solve_at(stiff, UNIF, T), 2)
    with tr.span("solve.expm_at", reps=50):
        repeat(lambda: depmark.solve_at(model, EXPM, T), 50)
    with tr.span("solve.euler_at", reps=2):
        repeat(lambda: depmark.solve_at(model, EULER, T), 2)
    with tr.span("solve.literal_at", reps=2):
        repeat(lambda: depmark.solve_at(model, LITERAL, T), 2)
    with tr.span("solve.expm_grid"):
        count("count.rows.expm_grid", len(depmark.solve_grid(model, EXPM, hourly)))
    with tr.span("solve.euler_grid"):
        count("count.rows.euler_grid", len(depmark.solve_grid(model, EULER, coarse)))
    with tr.span("solve.literal_grid"):
        literal, _ = depmark.solve_paper_literal(model, LITERAL, hourly)
    count("count.rows.literal_grid", len(literal))

    # analysis
    with tr.span("analysis.metrics", reps=2000):
        repeat(lambda: depmark.metrics(dist, model, T), 2000)
    with open(b.table_path, encoding="utf-8", newline="") as fh:
        table = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    with tr.span("analysis.audit", reps=200):
        report = repeat(lambda: depmark.audit_table(table), 200)
    count("count.rows.audit", len(report.rows))
    with tr.span("analysis.sweep") as sweep_span:
        swept = depmark.sweep(model, "C", sweep_values, T)
    count("count.rows.sweep", len(swept))
    ordered = sorted(sweep_values)
    with tr.span("model.with_params", parent=sweep_span, reps=len(ordered)):
        varied = [model.with_params({"C": v}) for v in ordered]
    with tr.span("solve.unif_at", parent=sweep_span, reps=len(ordered)):
        dists = [depmark.solve_at(m, UNIF, T) for m in varied]
    with tr.span("analysis.metrics", parent=sweep_span, reps=len(ordered)):
        for m, d in zip(varied, dists):
            depmark.metrics(d, m, T)

    # simulate
    with tr.span("simulate.run"):
        depmark.simulate(model, T, size.mc_trials, sim_seed)
    count("count.sim_batches", -(-size.mc_trials // depmark.BATCH_SIZE))

    probe = Tracer(True)
    t0 = perf_counter()
    for _ in range(10_000):
        with probe.span("x"):
            pass
    return (perf_counter() - t0) / 10_000


def per_layer(tr: Tracer, counts: dict[str, float]) -> dict[str, dict[str, float]]:
    out = {}
    for metric, span, unit, scale, own in PER_LAYER:
        seconds = tr.per_call(span, self_time=own)
        if seconds is None:
            raise CheckFailed(f"no span {span} for {metric}")
        out[metric] = {"value": seconds * scale, "unit": unit}
    for name in COUNTS:
        if name not in counts:
            raise CheckFailed(f"count {name} was not recorded")
        out[name] = {"value": counts[name], "unit": "count"}
    return out
