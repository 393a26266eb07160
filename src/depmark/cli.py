"""Command line interface: `depmark <command>`.

Commands: ``validate`` (parse + consistency report), ``solve``
(transient distributions and metrics at a time or over a grid),
``sweep`` (metrics versus one parameter), ``simulate`` (Monte Carlo
estimates with confidence intervals), ``audit`` (consistency check of
an external metrics table).

Every output starts with a run manifest (lines prefixed ``#`` in CSV, a
``manifest`` object in JSON) recording the command, tool version, a
SHA-256 digest of the input file, parameter overrides, and solver
settings.  Outputs contain no timestamps or machine identifiers, so a
rerun with the same inputs produces the same bytes.

CSV details: header row then data rows, UTF-8, LF line endings, minimal
quoting, ints in full, floats at 9 significant digits (a first column with
two values that would print alike, as repr).  Inputs may start with a UTF-8
byte-order mark.  JSON mirrors the same columns as one object per row:
``{"manifest": {...}, "columns": [...], "rows": [{column: value, ...},
...]}`` with full-precision floats.

Exit codes are a stable contract: 0 success, 1 domain or validation or
audit finding, 2 usage, parse, or I/O error, 3 numeric failure.

Each command imports only the modules it uses: ``validate`` and ``audit``
load no numpy, and only ``--method expm`` loads SciPy.  Unless numpy is
already loaded or a ``*_NUM_THREADS`` variable is set, ``main`` runs
OpenBLAS on one thread.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from . import __version__
from .lang import ModelParseError, parse
from .model import DepmarkError, MarkovModel, Method, NumericFailureError, SolverConfig, StepTooLargeError, validate

if TYPE_CHECKING:  # numpy loads on first use: validate and audit never need it
    import numpy as np

__all__ = ["main"]

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
#: Exit code of each error a command may raise, first match wins; others propagate.
_EXIT_CODES: tuple[tuple[type[Exception], int], ...] = (
    (NumericFailureError, EXIT_NUMERIC),
    (StepTooLargeError, EXIT_NUMERIC),
    (ModelParseError, EXIT_USAGE),
    (DepmarkError, EXIT_FINDING),
    (OSError, EXIT_USAGE),
    (ValueError, EXIT_USAGE),
)

#: Most points one ``--grid`` may expand to, checked before expanding;
#: a million rows already make ~10^7 Python floats of CSV export.
GRID_POINT_CAP = 1_000_000
#: Most Monte Carlo trials one ``simulate`` may ask for.
TRIAL_CAP = 1_000_000_000


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _cell(x: float | int | str) -> str:
    """A CSV cell: text as it is, an int in full, a float at %.9g."""
    return x if isinstance(x, str) else str(x) if isinstance(x, int) else _fmt(x)


def _exact(x: float) -> str:
    """A setting for the manifest: %.9g where that reads back as x, else repr."""
    return _fmt(x) if float(_fmt(x)) == x else repr(x)


def _read_input(path: str) -> tuple[str, str]:
    """File text, less any UTF-8 byte-order mark, plus the SHA-256 hex
    digest of the bytes actually read."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data.decode("utf-8-sig"), hashlib.sha256(data).hexdigest()


def _parse_grid(text: str) -> np.ndarray:
    """Expand start:stop:step into an ascending grid.

    The stop point is included when it is a whole number of steps from
    the start (to one part in 10^9); otherwise the grid ends at the last
    aligned point below it.  A grid of more than ``GRID_POINT_CAP``
    points is refused before any point is made.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--grid expects start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"--grid expects numeric start:stop:step, got {text!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise ValueError("--grid bounds must be finite")
    if start < 0.0:
        raise ValueError(f"--grid start must be >= 0, got {start!r}")
    if step <= 0.0:
        raise ValueError(f"--grid step must be positive, got {step!r}")
    if stop < start:
        raise ValueError(f"--grid stop {stop!r} is below start {start!r}")
    span = (stop - start) / step + 1e-9
    if span >= GRID_POINT_CAP:
        raise ValueError(f"--grid {text} has more than {GRID_POINT_CAP} points, beyond the cap")
    import numpy as np
    return start + np.arange(math.floor(span) + 1) * step


def _parse_values(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"--values expects a comma-separated number list, got {text!r}") from None
    if not values:
        raise ValueError("--values is empty")
    return values


def _nonnegative_time(text: str) -> float:
    t = float(text)
    if not (math.isfinite(t) and t >= 0.0):
        raise argparse.ArgumentTypeError(f"time must be finite and >= 0, got {text}")
    return t


def _load_model(
    args: argparse.Namespace, err: io.TextIOBase
) -> tuple[MarkovModel, str, dict[str, float]] | None:
    """The model in ``args.file`` with the ``--set`` overrides applied, the
    digest of the file and the overrides; None once the model's fatal
    validation findings are written to ``err``."""
    overrides: dict[str, float] = {}
    for pair in args.set or ():
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"--set expects NAME=VALUE, got {pair!r}")
        try:
            overrides[name] = float(value)
        except ValueError:
            raise ValueError(f"--set {name}: {value!r} is not a number") from None
    text, digest = _read_input(args.file)
    model = parse(text)
    if overrides:
        model = model.with_params(overrides)
    fatal = validate(model).fatal
    for finding in fatal:
        err.write(f"error[{finding.code}]: {finding.message}\n")
    return None if fatal else (model, digest, overrides)


def _manifest_pairs(
    command: str,
    input_path: str,
    digest: str,
    overrides: Mapping[str, float],
    solver: SolverConfig | None,
    extra: Sequence[tuple[str, str]] = (),
) -> list[tuple[str, str]]:
    pairs = [
        ("command", command),
        ("version", __version__),
        ("input", f"{input_path} sha256={digest}"),
    ]
    if overrides:
        pairs.append(("set", " ".join(f"{k}={_exact(v)}" for k, v in overrides.items())))
    if solver is not None:
        bits = [f"method={solver.method.value}"]
        if solver.method is Method.UNIFORMIZATION:
            bits.append(f"eps={_exact(solver.eps)}")
        if solver.method in (Method.EULER, Method.PAPER_LITERAL):
            bits.append(f"dt={_exact(solver.dt)}")
        pairs.append(("solver", " ".join(bits)))
    pairs.extend(extra)
    return pairs


def _emit_table(
    out: io.TextIOBase,
    fmt: str,
    manifest: Sequence[tuple[str, str]],
    columns: Sequence[str],
    rows: Sequence[Sequence[float | int | str]],
) -> None:
    if fmt == "json":
        payload = {
            "manifest": {key: value for key, value in manifest},
            "columns": list(columns),
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        out.write(json.dumps(payload, indent=2))
        out.write("\n")
        return
    for key, value in manifest:
        out.write(f"# {key}: {value}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    firsts = {row[0] for row in rows}
    if len(set(map(_cell, firsts))) < len(firsts):
        # two times or parameter values print alike: print that column exactly
        rows = [(repr(row[0]), *row[1:]) for row in rows]
    # one format per row of numbers: no %.9g text needs csv quoting
    numeric_row = ",".join(["%.9g"] * len(columns)) + "\n"
    for row in rows:
        try:
            line = numeric_row % tuple(row)
        except TypeError:  # a string cell
            line = None
        # %.9g prints an int as str does unless it gives it an exponent
        if line is None or "e+" in line:
            writer.writerow(map(_cell, row))
        else:
            out.write(line)


# --------------------------------------------------------------------------
# subcommands


def _cmd_validate(args: argparse.Namespace, out: io.TextIOBase, err: io.TextIOBase) -> int:
    text, digest = _read_input(args.file)
    model = parse(text)
    for key, value in _manifest_pairs("validate", args.file, digest, {}, None):
        out.write(f"# {key}: {value}\n")
    report = validate(model)
    for finding in report.findings:
        out.write(f"{finding.severity.value}[{finding.code}]: {finding.message}\n")
    if report.ok:
        out.write(f"ok: {model.n} states, {len(model.transitions)} transitions, "
                  f"{len(report.warnings)} warning(s)\n")
        return EXIT_OK
    out.write(f"invalid: {len(report.fatal)} fatal finding(s)\n")
    return EXIT_FINDING


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(method=Method.from_name(args.method), eps=args.eps, dt=args.dt)


def _cmd_solve(args: argparse.Namespace, out: io.TextIOBase, err: io.TextIOBase) -> int:
    config = _solver_config(args)  # a bad --eps or --dt is refused before numpy loads
    from .analysis import export_timeseries
    from .solve import solve_grid, solve_paper_literal
    loaded = _load_model(args, err)
    if loaded is None:
        return EXIT_FINDING
    model, digest, overrides = loaded

    if args.grid is not None:
        grid, extra = _parse_grid(args.grid), [("grid", args.grid)]
    else:
        grid, extra = [args.at], [("at", _exact(args.at))]

    if config.method is Method.PAPER_LITERAL:
        trajectory, report = solve_paper_literal(model, config, grid)
        defect = lambda k: 1.0 - float(trajectory.probs[k].sum())  # noqa: E731
        extra.append(("max_mass_defect", _fmt(report.max_abs_defect)))
        columns, rows = export_timeseries(trajectory, model, mass_defect=defect)
    else:
        trajectory = solve_grid(model, config, grid)
        columns, rows = export_timeseries(trajectory, model)

    manifest = _manifest_pairs("solve", args.file, digest, overrides, config, extra)
    _emit_table(out, args.output, manifest, columns, rows)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace, out: io.TextIOBase, err: io.TextIOBase) -> int:
    config = _solver_config(args)
    from .analysis import _TABLE_COLUMNS, sweep
    loaded = _load_model(args, err)
    if loaded is None:
        return EXIT_FINDING
    model, digest, overrides = loaded
    values = _parse_values(args.values)

    results = sweep(model, args.param, values, args.at, config)
    rows = [(row.value, *row.metrics.as_row()[1:]) for row in results]
    manifest = _manifest_pairs(
        "sweep", args.file, digest, overrides, config,
        [("param", args.param), ("at", _exact(args.at))],
    )
    _emit_table(out, args.output, manifest, _TABLE_COLUMNS, rows)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace, out: io.TextIOBase, err: io.TextIOBase) -> int:
    # a bad --trials or --seed is refused before numpy loads
    if not 1 <= args.trials <= TRIAL_CAP:
        raise ValueError(f"--trials must be in [1, {TRIAL_CAP}], got {args.trials}")
    if not 0 <= args.seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {args.seed}")
    from .simulate import simulate
    loaded = _load_model(args, err)
    if loaded is None:
        return EXIT_FINDING
    model, digest, overrides = loaded

    result = simulate(model, args.at, args.trials, args.seed)
    columns = ["state", "label", "count", "estimate", "ci99_half_width"]
    rows = [
        (state.id, state.label, int(result.counts[k]), float(result.estimates[k]), float(result.ci99_half_widths[k]))
        for k, state in enumerate(model.states)
    ]
    manifest = _manifest_pairs(
        "simulate", args.file, digest, overrides, None,
        [("at", _exact(args.at)), ("trials", str(args.trials)), ("seed", str(args.seed))],
    )
    _emit_table(out, args.output, manifest, columns, rows)
    return EXIT_OK


def _read_metric_table(path: str, text: str, columns: Sequence[str]) -> list[dict[str, float]]:
    # a row is reported by its line in the file, comment lines included
    lines = enumerate(io.StringIO(text, newline=""), start=1)
    numbered = [(n, line) for n, line in lines if not line.lstrip().startswith("#")]
    reader = csv.DictReader(line for _, line in numbered)
    if reader.fieldnames is None:
        raise ValueError(f"{path}: empty table")
    missing = [col for col in columns if col not in reader.fieldnames]
    if missing:
        raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
    rows: list[dict[str, float]] = []
    for record in reader:
        lineno = numbered[reader.line_num - 1][0]
        try:
            row = {col: float(record[col]) for col in columns}
        except (TypeError, ValueError):
            raise ValueError(f"{path}: non-numeric row {lineno}") from None
        if not all(map(math.isfinite, row.values())):
            raise ValueError(f"{path}: non-finite row {lineno}")  # JSON output cannot carry it
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: table has no data rows")
    return rows


def _cmd_audit(args: argparse.Namespace, out: io.TextIOBase, err: io.TextIOBase) -> int:
    from .analysis import _TABLE_COLUMNS, CLOSURE_TOL, TOTAL_TOL, audit_table
    text, digest = _read_input(args.table)
    report = audit_table(_read_metric_table(args.table, text, _TABLE_COLUMNS))

    columns = [*_TABLE_COLUMNS, "closure_defect", "total_defect", "status"]
    rows = []
    for row in report.rows:
        problems = [name for name, ok in (("closure", row.closure_ok), ("total", row.total_ok)) if not ok]
        rows.append((row.param, row.reliability, row.safety, row.prob_fail_safe, row.prob_fail_unsafe,
                     row.closure_defect, row.total_defect, "+".join(problems) or "ok"))
    manifest = _manifest_pairs(
        "audit", args.table, digest, {}, None,
        [
            ("closure_tol", _fmt(CLOSURE_TOL)),
            ("total_tol", _fmt(TOTAL_TOL)),
            ("flagged", str(len(report.flagged))),
        ],
    )
    _emit_table(out, args.output, manifest, columns, rows)
    return EXIT_OK if report.ok else EXIT_FINDING


# --------------------------------------------------------------------------
# argument wiring


def _add_common_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", help="model file in the depmark language")
    parser.add_argument(
        "--set", action="append", metavar="NAME=VALUE",
        help="override a declared parameter (repeatable)",
    )
    parser.add_argument(
        "--output", choices=("csv", "json"), default="csv",
        help="output format (default csv)",
    )


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method",
        choices=tuple(m.value for m in Method),
        default=Method.UNIFORMIZATION.value,
        help="transient solver (default uniformization)",
    )
    parser.add_argument("--eps", type=float, default=1e-12,
                        help="series truncation bound for uniformization, in [1e-300, 1) (default 1e-12)")
    parser.add_argument("--dt", type=float, default=1.0,
                        help="step for the euler and paper-literal methods (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depmark",
        description="Transient dependability analysis of small Markov reliability models.",
    )
    parser.add_argument("--version", action="version", version=f"depmark {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p_validate = commands.add_parser("validate", help="parse a model and report consistency findings")
    p_validate.add_argument("file", help="model file in the depmark language")
    p_validate.set_defaults(handler=_cmd_validate)

    p_solve = commands.add_parser("solve", help="state probabilities and metrics at a time or grid")
    _add_common_model_flags(p_solve)
    when = p_solve.add_mutually_exclusive_group(required=True)
    when.add_argument("--at", type=_nonnegative_time, metavar="HOURS",
                      help="single evaluation time")
    when.add_argument("--grid", metavar="START:STOP:STEP",
                      help="ascending time grid; stop included when aligned")
    _add_solver_flags(p_solve)
    p_solve.set_defaults(handler=_cmd_solve)

    p_sweep = commands.add_parser("sweep", help="metrics versus one parameter at a fixed time")
    _add_common_model_flags(p_sweep)
    p_sweep.add_argument("--param", required=True, help="parameter name to vary")
    p_sweep.add_argument("--values", required=True, metavar="V1,V2,…",
                         help="comma-separated parameter values")
    p_sweep.add_argument("--at", type=_nonnegative_time, required=True, metavar="HOURS",
                         help="evaluation time")
    _add_solver_flags(p_sweep)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_sim = commands.add_parser("simulate", help="Monte Carlo estimate of the distribution at a time")
    _add_common_model_flags(p_sim)
    p_sim.add_argument("--at", type=_nonnegative_time, required=True, metavar="HOURS",
                       help="mission time")
    p_sim.add_argument("--trials", type=int, required=True, help="number of simulated trajectories")
    p_sim.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_audit = commands.add_parser("audit", help="consistency-check a metrics table (param,R,S,Pfs,Pfu)")
    p_audit.add_argument("--table", required=True, help="CSV file with columns param,R,S,Pfs,Pfu")
    p_audit.add_argument("--output", choices=("csv", "json"), default="csv",
                         help="output format (default csv)")
    p_audit.set_defaults(handler=_cmd_audit)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if "numpy" not in sys.modules and not any(name.endswith("_NUM_THREADS") for name in os.environ):
        # depmark's matrices are small: more BLAS threads only cost CPU
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    out = sys.stdout
    err = sys.stderr
    handler: Callable[[argparse.Namespace, io.TextIOBase, io.TextIOBase], int] = args.handler
    try:
        return handler(args, out, err)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        err.write(f"error: {exc}\n")
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    raise SystemExit(main())
