"""depmark benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: cli_tour, timeseries, sweep,
crosscheck (see perfbench/README.md).  With ``--trace 0`` the run measures
the end-to-end metrics with tracing off; with ``--trace 1`` it runs the
workload traced and untraced in turn (the difference is the tracing
overhead) and then the per-layer probes.  Every op's output is checked.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The line before it holds the run's metadata, and the full record
(plus the spans of a traced run) goes to .perfbench/ under the root.
"""

from __future__ import annotations

import os

# One BLAS thread for this process and, through the environment, for every
# child; set before numpy is first imported.
BLAS_THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("cli_tour", "timeseries", "sweep", "crosscheck")

#: Share of a traced run spent alternating untraced and traced iterations;
#: the per-layer probes take the rest.
TRACE_SHARE = 0.3


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every path on a fraction of the work (smoke test)")
    return parser.parse_args(argv)


def measure(iterate, seconds: float, minimum: int) -> list[float]:
    """Closed loop: iterations back to back until ``seconds`` have passed
    and at least ``minimum`` ran; stops early rather than overrun by a
    whole iteration."""
    times: list[float] = []
    start = perf_counter()
    while True:
        times.append(iterate())
        elapsed = perf_counter() - start
        if len(times) >= minimum and elapsed + statistics.median(times) > seconds:
            return times


def iteration_seconds(times: dict[str, list[float]], iterations: int) -> float:
    """One iteration's time built from per-op medians: each op kind's
    median times how often it runs per iteration.  Medians over every op
    of a run are steadier than the median of a few iteration sums."""
    return sum(len(v) / iterations * statistics.median(v) for v in times.values())


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "depmark").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def run_untraced(bench, workload, args) -> tuple[dict, dict]:
    """End-to-end metrics, tracing off."""
    from workloads import tail, time_setup

    ops = bench.ops
    setup = [s for s in (ops.attempt("setup child", time_setup, bench, type(workload))
                         for _ in range(bench.size.setup_reps)) if s is not None]
    iterations = measure(workload.iteration, args.seconds, bench.size.min_iterations)
    metrics = {
        "setup_s": {"value": statistics.median(cpu for _, cpu in setup) if setup else None, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(children=args.workload == "cli_tour"), "unit": "MB"},
        "iteration_cpu_s": {"value": iteration_seconds(ops.cpu_times, len(iterations)), "unit": "s"},
    }
    extra = {
        "setup_wall_cpu_samples_s": setup,
        "iteration_wall_s": iteration_seconds(ops.times, len(iterations)),
        "iteration_samples_s": iterations,
        "ops": {
            kind: {"median_s": statistics.median(v), **tail(v),
                   "cpu_median_s": statistics.median(ops.cpu_times[kind])}
            for kind, v in ops.times.items()
        },
        "detail": workload.detail(iterations),
    }
    return metrics, extra


def run_traced(bench, workload, args) -> tuple[dict, dict]:
    """The workload untraced and traced in turn, then the per-layer probes."""
    import probes
    from tracing import Tracer

    traced_tr = Tracer(True)
    untraced, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start < TRACE_SHARE * args.seconds:
        bench.tr = Tracer(False)
        untraced.append(workload.iteration())
        bench.tr = traced_tr
        traced.append(workload.iteration())
    bench.tr = Tracer(False)

    probe_tr = Tracer(True)
    sweep_values = bench.seeded_values(bench.size.sweep_points, 2)
    span_costs: list[float] = []
    while True:
        t0 = perf_counter()
        cost = bench.ops.attempt("probe", probes.probe_round, bench, probe_tr, sweep_values, bench.sub_seed(1))
        if cost is None:
            break
        span_costs.append(cost)
        if perf_counter() - start + (perf_counter() - t0) > args.seconds:
            break
    metrics = bench.ops.attempt("per-layer", probes.per_layer, probe_tr, bench.ops.counts) or {}
    metrics["trace.overhead_ms"] = {
        "value": 1e3 * (statistics.median(traced) - statistics.median(untraced)), "unit": "ms"}
    if span_costs:
        metrics["trace.span_cost_us"] = {"value": 1e6 * statistics.median(span_costs), "unit": "us"}

    stem = f"spans-{args.workload}-seed{args.seed}"
    about = {"workload": args.workload, "seed": args.seed}
    traced_tr.write(OUT_DIR / f"{stem}-workload.json", about)
    probe_tr.write(OUT_DIR / f"{stem}-probes.json", about)
    extra = {
        "untraced_iteration_s": untraced, "traced_iteration_s": traced,
        "probe_rounds": len(span_costs), "derived": list(probes.DERIVED),
    }
    return metrics, extra


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "depmark" / "__init__.py").is_file():
        print(f"error: no depmark sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    import numpy
    import scipy

    import probes
    from tracing import Tracer
    from workloads import SIZES, WORKLOADS, Bench

    bench = Bench(ROOT, SIZES[args.size], args.seed, Tracer(False))
    ops = bench.ops
    for name, value in probes.static_counts(bench).items():
        ops.count(name, value)
    workload = ops.attempt("setup", WORKLOADS[args.workload], bench)
    metrics: dict = {}
    extra: dict = {}
    if workload is not None:
        run = run_traced if args.trace else run_untraced
        metrics, extra = run(bench, workload, args)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "load": "closed loop, one client, one op at a time",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "inputs": workload.inputs() if workload else {},
        "error_rate": {"value": len(ops.failures) / ops.attempted,
                       "base": f"{len(ops.failures)} failed of {ops.attempted} ops attempted"},
        "failures": ops.failures[:20],
        "counts": ops.counts,
        "counts_not_repeating": sorted(ops.count_mismatch),
        **extra,
    }
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, **result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
