"""The four workloads and the checks that score every op.

Load model: one client in a closed loop.  Each op starts when the previous
one has ended and its checks have run; checks are not timed.  An op fails
when it raises, when a CLI child exits with the wrong code, or when a check
below does not hold; every failure is counted, none is skipped.

The workload seed picks sweep values and simulation seeds only.  Mission
time and grids are fixed, so the work in a run does not depend on it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

import depmark
from depmark import Method, SolverConfig

import reference
from tracing import Tracer, cpu_seconds

T = 4380.0
COVERAGES = (0.9, 0.92, 0.94, 0.95, 0.96, 0.98, 0.99, 0.999, 1.0)
COVERAGES_ARG = "0.9,0.92,0.94,0.95,0.96,0.98,0.99,0.999,1"
STIFF = {"MU": 6.0}

UNIF = SolverConfig()
EXPM = SolverConfig(method=Method.MATRIX_EXP)
EULER = SolverConfig(method=Method.EULER, dt=1.0)
LITERAL = SolverConfig(method=Method.PAPER_LITERAL, dt=1.0)

#: The published first-step mass defect of the literal update equations,
#: LAMBDA1 * dt * (2C - 1) at C = 0.9, and its allowed deviation.
LITERAL_DEFECT = 2.64e-6
LITERAL_DEFECT_TOL = 1e-15

CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Size:
    hourly_step: int  # step of the hourly grids
    euler_step: int  # step of the Euler grid
    sweep_points: int
    stiff_points: int
    mc_trials: int  # per crosscheck op and per simulate probe
    cli_trials: int  # `depmark simulate --trials`
    setup_reps: int  # fresh set-up children per run
    min_iterations: int  # a cli_tour run needs two to compare stdout bytes

    def grid(self, step: int) -> list[float]:
        return [float(k) for k in range(0, int(T) + 1, step)]


SIZES = {
    "full": Size(1, 10, 1001, 11, 1_000_000, 100_000, 5, 3),
    # smoke-test size: every code path, a fraction of the work
    "tiny": Size(438, 876, 11, 3, 20_000, 20_000, 1, 2),
}


class CheckFailed(Exception):
    pass


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def fmt(x: float) -> str:
    """The CLI's float format (nine significant digits)."""
    return f"{x:.9g}"


class Ops:
    """What one run did: op wall and CPU times by kind, attempts, failures,
    counts."""

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = {}
        self.cpu_times: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.counts: dict[str, float] = {}
        self.count_mismatch: set[str] = set()

    def attempt(self, what: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Call ``fn`` as one counted op; a failure is recorded and gives None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # one failed op is counted and the run goes on
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def count(self, name: str, value: float) -> None:
        if self.counts.setdefault(name, value) != value:
            self.count_mismatch.add(name)

    def median(self, kind: str) -> float | None:
        values = self.times.get(kind)
        return statistics.median(values) if values else None


class Bench:
    """State shared by the ops of one run: models, references, records."""

    def __init__(self, root: Path, size: Size, seed: int, tracer: Tracer) -> None:
        self.root = root
        self.size = size
        self.seed = seed
        self.tr = tracer
        self.ops = Ops()
        self._next_op = 0
        self.child_env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.model_path = self.rel(depmark.bundled_model_path("dfwcs.mdl"))
        self.table_path = self.rel(depmark.bundled_table_path("table3.csv"))
        self.dfwcs = depmark.load_model(self.model_path)
        self.q = np.array(depmark.build_generator(self.dfwcs).entries)
        self.p0 = self.dfwcs.initial_vector()
        self.hourly_ref = reference.hourly(self.q, self.p0, int(T))

    def rel(self, path: Path) -> str:
        return str(Path(path).resolve().relative_to(self.root))

    def op(self, kind: str, body: Callable[[], Any], verify: Callable[[Any], None]) -> float | None:
        """Run one op: time ``body``, then check its result untimed.
        Returns the op's wall seconds, or None when it failed."""
        self._next_op += 1

        def timed_and_checked() -> tuple[float, float]:
            with self.tr.span(f"op.{kind}", op=self._next_op):
                t0, c0 = perf_counter(), cpu_seconds()
                result = body()
                seconds, cpu = perf_counter() - t0, cpu_seconds() - c0
            verify(result)
            return seconds, cpu

        timing = self.ops.attempt(kind, timed_and_checked)
        if timing is None:
            return None
        self.ops.times.setdefault(kind, []).append(timing[0])
        self.ops.cpu_times.setdefault(kind, []).append(timing[1])
        return timing[0]

    def child(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            argv, cwd=self.root, env=self.child_env, capture_output=True,
            timeout=CHILD_TIMEOUT_S, check=False,
        )

    def sub_seed(self, *path: int) -> int:
        return int(np.random.SeedSequence([self.seed, *path]).generate_state(1)[0] & 0x7FFFFFFF)

    def seeded_values(self, n: int, stream: int) -> list[float]:
        """n coverage values in [0.9, 1] including both ends, from the seed."""
        rng = np.random.default_rng([self.seed, stream])
        inner = rng.uniform(0.9, 1.0, max(n - 2, 0))
        return [0.9, *(float(v) for v in inner), 1.0]

    def ref_rows(self, times: np.ndarray) -> np.ndarray:
        return self.hourly_ref[np.rint(times).astype(int)]


def class_matrix(model: depmark.MarkovModel) -> np.ndarray:
    """n x 3 indicator of (delivering, fail-safe, fail-unsafe) states."""
    groups = (
        (depmark.StateClass.OPERATIONAL, depmark.StateClass.FAIL_OPERATIONAL),
        (depmark.StateClass.FAIL_SAFE,),
        (depmark.StateClass.FAIL_UNSAFE,),
    )
    out = np.zeros((model.n, 3))
    for col, classes in enumerate(groups):
        out[list(model.class_indices(*classes)), col] = 1.0
    return out


def ref_metrics(model: depmark.MarkovModel, t: float) -> np.ndarray:
    """Reference (R, Pfs, Pfu) of a model at time t."""
    q = np.array(depmark.build_generator(model).entries)
    return reference.distribution(q, model.initial_vector(), t) @ class_matrix(model)


# --------------------------------------------------------------------------
# checks shared by the in-process and CLI paths


def check_corrected(rows: np.ndarray, n: int) -> None:
    """Columns t, n states, R, S, Pfs, Pfu: rows sum to one and S == R + Pfs."""
    states = rows[:, 1 : 1 + n]
    r, s, pfs = rows[:, 1 + n], rows[:, 2 + n], rows[:, 3 + n]
    check(bool(np.all(np.abs(states.sum(axis=1) - 1.0) <= 1e-9)), "a row does not sum to 1 within 1e-9")
    check(bool(np.all(s == r + pfs)), "S != R + Pfs")


def check_close(states: np.ndarray, ref: np.ndarray, tol: float, what: str) -> None:
    err = float(np.max(np.abs(states - ref))) if states.size else 0.0
    check(err <= tol, f"{what}: max deviation {err:.3g} from the reference exceeds {tol:g}")


def check_monotone(r: np.ndarray, pfu: np.ndarray) -> None:
    check(bool(np.all(np.diff(r) >= 0.0)), "R decreases with C")
    check(bool(np.all(np.diff(pfu) <= 0.0)), "Pfu increases with C")


def check_simulation(counts: np.ndarray, probs: np.ndarray, trials: int) -> None:
    check(int(counts.sum()) == trials, f"counts sum to {int(counts.sum())}, not {trials}")
    bad = reference.binomial_outliers(counts, probs, trials)
    check(not bad, f"counts of states {bad} are implausible under the analytic distribution")


def parse_csv(text: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    manifest: dict[str, str] = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            manifest[key] = value
        else:
            body.append(line)
    rows = list(csv.reader(body))
    return manifest, rows[0], rows[1:]


# --------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    #: (overrides applied to dfwcs) per model the workload sets up
    variants: tuple[dict[str, float], ...] = ({},)

    def __init__(self, bench: Bench) -> None:
        self.b = bench

    def iteration(self) -> float:
        """Run one iteration; returns the summed seconds of its ops."""
        raise NotImplementedError

    def inputs(self) -> dict[str, Any]:
        """The seed-dependent inputs, for the record."""
        return {}

    def detail(self, iteration_times: list[float]) -> dict[str, Any]:
        """The workload's own figures, by the names the README maps."""
        raise NotImplementedError


CLI_COMMANDS = ("validate", "solve_at", "solve_grid", "solve_grid_json", "sweep",
                "solve_literal", "simulate", "audit")


def cli_argv(bench: Bench, command: str, sim_seed: int) -> list[str]:
    """Arguments after ``depmark`` for each command of the tour."""
    m, step = bench.model_path, bench.size.hourly_step
    return {
        "validate": ["validate", m],
        "solve_at": ["solve", m, "--at", "4380"],
        "solve_grid": ["solve", m, "--grid", f"0:4380:{step}"],
        "solve_grid_json": ["solve", m, "--grid", f"0:4380:{10 * step}", "--output", "json"],
        "sweep": ["sweep", m, "--param", "C", "--values", COVERAGES_ARG, "--at", "4380"],
        "solve_literal": ["solve", m, "--method", "paper-literal", "--dt", "1", "--grid", f"0:4380:{step}"],
        "simulate": ["simulate", m, "--at", "4380", "--trials", str(bench.size.cli_trials),
                     "--seed", str(sim_seed)],
        "audit": ["audit", "--table", bench.table_path],
    }[command]


def ran(*times: float | None) -> float:
    return sum(t for t in times if t is not None)


class CliTour(Workload):
    """The README's command line walk-through, one subprocess per command."""

    name = "cli_tour"

    def __init__(self, bench: Bench) -> None:
        super().__init__(bench)
        b, size = bench, bench.size
        self.sim_seed = b.sub_seed(1)
        checks = {
            "validate": self.check_validate, "solve_at": self.check_solve_at,
            "solve_grid": self.check_grid, "solve_grid_json": self.check_grid_json,
            "sweep": self.check_sweep, "solve_literal": self.check_literal,
            "simulate": self.check_simulate, "audit": self.check_audit,
        }
        self.commands = [
            (name, cli_argv(b, name, self.sim_seed), 1 if name == "audit" else 0, checks[name])
            for name in CLI_COMMANDS
        ]
        self.first_stdout: dict[str, bytes] = {}

        # what the library says, in the CLI's format
        dist = depmark.solve_at(b.dfwcs, UNIF, T)
        check_close(dist, b.hourly_ref[-1], 1e-10, "in-process solve_at")
        mt = depmark.metrics(dist, b.dfwcs, T)
        self.at_row = [fmt(T), *map(fmt, dist), fmt(mt.reliability), fmt(mt.safety),
                       fmt(mt.prob_fail_safe), fmt(mt.prob_fail_unsafe)]
        grid = size.grid(size.hourly_step)
        traj, report = depmark.solve_paper_literal(b.dfwcs, LITERAL, grid)
        _, rows = depmark.export_timeseries(
            traj, b.dfwcs, mass_defect=lambda k: 1.0 - float(traj.probs[k].sum()))
        self.literal_rows = [[fmt(x) for x in row] for row in rows]
        self.literal_max = fmt(report.max_abs_defect)
        self.sweep_ref = np.array([ref_metrics(b.dfwcs.with_params({"C": c}), T) for c in COVERAGES])

    def inputs(self) -> dict[str, Any]:
        return {"simulate_seed": self.sim_seed}

    def iteration(self) -> float:
        total = 0.0
        for name, args, code, verify in self.commands:
            def body(args: list[str] = args, name: str = name) -> subprocess.CompletedProcess:
                return self.b.tr.call(f"cli.{name}", self.b.child, [sys.executable, "-m", "depmark", *args])

            def verify_all(proc: subprocess.CompletedProcess, name: str = name, code: int = code,
                           verify: Callable[[str], None] = verify) -> None:
                check(proc.returncode == code,
                      f"exit code {proc.returncode}, expected {code}: {proc.stderr.decode(errors='replace')[-300:]}")
                first = self.first_stdout.setdefault(name, proc.stdout)
                check(proc.stdout == first, "stdout differs from the first run of the same command")
                self.b.ops.count(f"count.stdout_bytes.{name}", len(proc.stdout))
                verify(proc.stdout.decode("utf-8"))

            total += ran(self.b.op(name, body, verify_all))
        return total

    # -- per-command checks -------------------------------------------

    def check_validate(self, out: str) -> None:
        check(out.splitlines()[-1].startswith("ok: 7 states, 13 transitions"), "validate did not report ok")

    def check_solve_at(self, out: str) -> None:
        _, _, rows = parse_csv(out)
        check(rows == [self.at_row], f"solve --at printed {rows}, in-process solve_at gives {self.at_row}")

    def check_grid(self, out: str) -> None:
        _, _, rows = parse_csv(out)
        arr = np.array(rows, dtype=float)
        times = np.array(self.b.size.grid(self.b.size.hourly_step))
        check(arr.shape[0] == len(times), f"{arr.shape[0]} rows, expected {len(times)}")
        check(bool(np.all(arr[:, 0] == times)), "grid times differ")
        ref = self.b.ref_rows(times)
        # nine printed digits round by at most 5e-9 relative
        dev = np.abs(arr[:, 1:8] - ref) - 5e-9 * np.abs(ref)
        check(float(dev.max()) <= 1e-10, f"grid rows deviate from the reference by {float(dev.max()):.3g}")

    def check_grid_json(self, out: str) -> None:
        payload = json.loads(out)
        cols = payload["columns"]
        arr = np.array([[row[c] for c in cols] for row in payload["rows"]], dtype=float)
        times = np.array(self.b.size.grid(10 * self.b.size.hourly_step))
        check(arr.shape[0] == len(times), f"{arr.shape[0]} rows, expected {len(times)}")
        check_close(arr[:, 1:8], self.b.ref_rows(times), 1e-10, "JSON grid")
        check_corrected(arr, 7)

    def check_sweep(self, out: str) -> None:
        _, _, rows = parse_csv(out)
        arr = np.array(rows, dtype=float)
        check(arr.shape[0] == len(COVERAGES), f"{arr.shape[0]} sweep rows")
        check_monotone(arr[:, 1], arr[:, 4])
        got = arr[:, [1, 3, 4]]
        dev = np.abs(got - self.sweep_ref) - 5e-9 * np.abs(self.sweep_ref)
        check(float(dev.max()) <= 1e-10, f"sweep rows deviate from the reference by {float(dev.max()):.3g}")

    def check_literal(self, out: str) -> None:
        manifest, header, rows = parse_csv(out)
        check(header[-1] == "mass_defect", "no mass_defect column")
        check(manifest.get("max_mass_defect") == self.literal_max, "max_mass_defect differs from in-process")
        check(rows == self.literal_rows, "paper-literal rows differ from in-process solve_paper_literal")
        for row in rows:
            if float(row[0]) == 1.0:
                check(abs(float(row[-1]) - LITERAL_DEFECT) <= LITERAL_DEFECT_TOL,
                      f"step-1 mass defect {row[-1]}, expected {LITERAL_DEFECT:g}")

    def check_simulate(self, out: str) -> None:
        _, _, rows = parse_csv(out)
        counts = np.array([int(row[2]) for row in rows])
        check_simulation(counts, self.b.hourly_ref[-1], self.b.size.cli_trials)

    def check_audit(self, out: str) -> None:
        manifest, _, rows = parse_csv(out)
        check(manifest.get("flagged") == "1", f"audit flagged {manifest.get('flagged')} rows, expected 1")
        flagged = [(row[0], row[-1]) for row in rows if row[-1] != "ok"]
        check(flagged == [("0.9", "total")], f"audit flagged {flagged}")

    def detail(self, iteration_times: list[float]) -> dict[str, Any]:
        ops = self.b.ops
        return {
            "cli_solve_at_s": {"value": ops.median("solve_at"), "unit": "s",
                               "samples": len(ops.times.get("solve_at", []))},
            "cli_solve_at_tail_s": {**tail(ops.times.get("solve_at", [])), "unit": "s"},
            "cli_grid_s": {"value": ops.median("solve_grid"), "unit": "s",
                           "samples": len(ops.times.get("solve_grid", []))},
            "cli_tour_s": {"value": statistics.median(iteration_times), "unit": "s",
                           "samples": len(iteration_times)},
        }


def tail(samples: list[float]) -> dict[str, Any]:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return {"tail_s": None, "samples": n,
                "note": "fewer than 11 samples: no percentile has ten beyond it"}
    return {"tail_s": sorted(samples)[n - 11], "percentile": round(100.0 * (n - 10) / n, 1),
            "samples": n}


class TimeSeries(Workload):
    """One generator, many time points: solve_grid + export per method."""

    name = "timeseries"

    def __init__(self, bench: Bench) -> None:
        super().__init__(bench)
        size = bench.size
        self.hourly = size.grid(size.hourly_step)
        self.coarse = size.grid(size.euler_step)
        self.euler_bound = reference.euler_error_bound(bench.q, bench.hourly_ref)

    def iteration(self) -> float:
        b, tr, m = self.b, self.b.tr, self.b.dfwcs

        def grid_op(config: SolverConfig, grid: list[float]) -> Callable[[], tuple]:
            def body() -> tuple:
                traj = tr.call("solve.solve_grid", depmark.solve_grid, m, config, grid)
                return traj, tr.call("analysis.export_timeseries", depmark.export_timeseries, traj, m)
            return body

        def literal_body() -> tuple:
            traj, report = tr.call("solve.solve_paper_literal", depmark.solve_paper_literal, m, LITERAL, self.hourly)
            exported = tr.call("analysis.export_timeseries", depmark.export_timeseries, traj, m,
                               mass_defect=lambda k: 1.0 - float(traj.probs[k].sum()))
            return traj, exported, report

        return ran(
            b.op("unif", grid_op(UNIF, self.hourly), lambda r: self.verify(r, "unif")),
            b.op("expm", grid_op(EXPM, self.hourly), lambda r: self.verify(r, "expm")),
            b.op("euler", grid_op(EULER, self.coarse), lambda r: self.verify(r, "euler")),
            b.op("literal", literal_body, self.verify_literal),
        )

    def exported(self, traj: depmark.Trajectory, exported: tuple, kind: str) -> np.ndarray:
        header, rows = exported
        arr = np.array(rows, dtype=float)
        check(arr.shape[0] == len(traj), "export lost rows")
        check(bool(np.all(arr[:, 1:8] == traj.probs)), "exported states differ from the trajectory")
        self.b.ops.count(f"count.rows.{kind}_grid", arr.shape[0])
        return arr

    def verify(self, result: tuple, kind: str) -> None:
        traj, exported = result
        arr = self.exported(traj, exported, kind)
        ref = self.b.ref_rows(traj.times)
        if kind == "euler":
            steps = np.rint(traj.times).astype(int)
            err = np.abs(traj.probs - ref).sum(axis=1)
            worst = float(np.max(err - self.euler_bound[steps]))
            check(worst <= 0.0, f"Euler error exceeds its first-order bound by {worst:.3g}")
        else:
            check_close(traj.probs, ref, 1e-10, kind)
        check_corrected(arr, 7)

    def verify_literal(self, result: tuple) -> None:
        traj, exported, report = result
        arr = self.exported(traj, exported, "literal")
        s, r, pfs = arr[:, 9], arr[:, 8], arr[:, 10]
        check(bool(np.all(s == r + pfs)), "S != R + Pfs")
        check(abs(float(report.defects[0]) - LITERAL_DEFECT) <= LITERAL_DEFECT_TOL,
              f"step-1 mass defect {float(report.defects[0])!r}, expected {LITERAL_DEFECT:g}")
        for row in arr:
            if row[0] == 1.0:
                check(abs(row[-1] - LITERAL_DEFECT) <= LITERAL_DEFECT_TOL, "exported step-1 defect")

    def detail(self, iteration_times: list[float]) -> dict[str, Any]:
        rows = {"unif": len(self.hourly), "expm": len(self.hourly),
                "euler": len(self.coarse), "literal": len(self.hourly)}
        out = {}
        for kind, n in rows.items():
            med = self.b.ops.median(kind)
            out[f"grid_{kind}_rows_per_s"] = {
                "value": n / med if med else None, "unit": "rows/s", "rows": n,
                "samples": len(self.b.ops.times.get(kind, [])),
            }
        return out


class Sweep(Workload):
    """Many generators, one time: the dfwcs and the stiff (MU=6) C sweeps."""

    name = "sweep"
    variants = ({}, STIFF)

    def __init__(self, bench: Bench) -> None:
        super().__init__(bench)
        b = bench
        self.stiff = b.dfwcs.with_params(STIFF)
        self.values = b.seeded_values(b.size.sweep_points, 2)
        self.stiff_values = b.seeded_values(b.size.stiff_points, 3)
        self.refs = {
            "sweep": np.array([ref_metrics(b.dfwcs.with_params({"C": c}), T) for c in sorted(self.values)]),
            "stiff": np.array([ref_metrics(self.stiff.with_params({"C": c}), T) for c in sorted(self.stiff_values)]),
        }

    def inputs(self) -> dict[str, Any]:
        return {"sweep_values_sha256": digest(self.values), "stiff_values_sha256": digest(self.stiff_values)}

    def iteration(self) -> float:
        tr = self.b.tr
        return ran(
            self.b.op("sweep", lambda: tr.call("analysis.sweep", depmark.sweep, self.b.dfwcs, "C", self.values, T),
                      lambda rows: self.verify(rows, "sweep", self.values)),
            self.b.op("stiff", lambda: tr.call("analysis.sweep", depmark.sweep, self.stiff, "C", self.stiff_values, T),
                      lambda rows: self.verify(rows, "stiff", self.stiff_values)),
        )

    def verify(self, rows: list, kind: str, values: list[float]) -> None:
        check([row.value for row in rows] == sorted(values), "sweep values differ")
        got = np.array([(r.metrics.reliability, r.metrics.safety, r.metrics.prob_fail_safe,
                         r.metrics.prob_fail_unsafe) for r in rows])
        check(bool(np.all(got[:, 1] == got[:, 0] + got[:, 2])), "S != R + Pfs")
        check_monotone(got[:, 0], got[:, 3])
        check_close(got[:, [0, 2, 3]], self.refs[kind], 1e-10, f"{kind} sweep")
        self.b.ops.count(f"count.rows.{kind}", len(rows))

    def detail(self, iteration_times: list[float]) -> dict[str, Any]:
        out = {}
        for kind, name, n in (("sweep", "sweep_points_per_s", len(self.values)),
                              ("stiff", "stiff_points_per_s", len(self.stiff_values))):
            med = self.b.ops.median(kind)
            out[name] = {"value": n / med if med else None, "unit": "points/s", "points": n,
                         "samples": len(self.b.ops.times.get(kind, []))}
        return out


class CrossCheck(Workload):
    """Monte Carlo at each published coverage, tested against solve_at."""

    name = "crosscheck"
    variants = tuple({"C": c} for c in COVERAGES)

    def __init__(self, bench: Bench) -> None:
        super().__init__(bench)
        self.models = [bench.dfwcs.with_params({"C": c}) for c in COVERAGES]
        self.refs = [
            reference.distribution(np.array(depmark.build_generator(m).entries), m.initial_vector(), T)
            for m in self.models
        ]
        self.n_ops = 0
        self.sim_times: list[float] = []
        self.max_abs_z = 0.0

    def inputs(self) -> dict[str, Any]:
        return {"first_simulation_seeds": [self.b.sub_seed(4, k) for k in range(3)]}

    def iteration(self) -> float:
        b, tr, trials = self.b, self.b.tr, self.b.size.mc_trials
        total = 0.0
        for model, ref in zip(self.models, self.refs):
            seed = b.sub_seed(4, self.n_ops)
            self.n_ops += 1

            def body(model: depmark.MarkovModel = model, seed: int = seed) -> tuple:
                dist = tr.call("solve.solve_at", depmark.solve_at, model, UNIF, T)
                t0 = perf_counter()
                result = tr.call("simulate.simulate", depmark.simulate, model, T, trials, seed)
                self.sim_times.append(perf_counter() - t0)
                return dist, result

            def verify(out: tuple, ref: np.ndarray = ref) -> None:
                dist, result = out
                check_close(dist, ref, 1e-10, "solve_at")
                check_simulation(np.asarray(result.counts), dist, trials)
                z = reference.z_scores(np.asarray(result.counts), dist, trials)
                self.max_abs_z = max(self.max_abs_z, float(np.max(np.abs(z[dist * trials >= 10]))))

            total += ran(b.op("simulate", body, verify))
        return total

    def detail(self, iteration_times: list[float]) -> dict[str, Any]:
        med = statistics.median(self.sim_times) if self.sim_times else None
        return {
            "mc_trials_per_s": {"value": self.b.size.mc_trials / med if med else None, "unit": "trials/s",
                                "trials_per_op": self.b.size.mc_trials, "samples": len(self.sim_times)},
            "max_abs_z_where_np_ge_10": self.max_abs_z,
        }


def digest(values: list[float]) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16]


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (CliTour, TimeSeries, Sweep, CrossCheck)
}

# Run in a fresh interpreter to time set-up: import, load, validate and
# build the generator of every model the workload uses.
SETUP_CHILD = """\
import json, sys
import depmark
spec = json.loads(sys.argv[1])
base = depmark.load_model(spec["model"])
for overrides in spec["variants"]:
    model = base.with_params(overrides) if overrides else base
    depmark.validate(model)
    depmark.build_generator(model)
"""


def time_setup(bench: Bench, workload: type[Workload]) -> tuple[float, float]:
    """Wall and CPU seconds of one fresh set-up child."""
    spec = json.dumps({"model": bench.model_path, "variants": list(workload.variants)})
    t0, c0 = perf_counter(), cpu_seconds()
    proc = bench.child([sys.executable, "-c", SETUP_CHILD, spec])
    wall, cpu = perf_counter() - t0, cpu_seconds() - c0
    if proc.returncode != 0:
        raise CheckFailed(f"set-up child failed: {proc.stderr.decode(errors='replace')[-300:]}")
    return wall, cpu

