"""Run the bit-for-bit solver tests under each OpenBLAS kernel the CPU can run.

Usage::

    python tests/kernels.py               # every core type the CPU can execute
    python tests/kernels.py Haswell ...   # the named ones

numpy and SciPy ship OpenBLAS built for many CPUs and pick its kernels by CPU
when they load; ``OPENBLAS_CORETYPE`` in a process's environment picks them
instead.  The script reads the CPU flags from ``/proc/cpuinfo`` (none where
that file is missing) and, for each core type in ``CORE_TYPES`` whose flag is
among them, runs one pytest child over ``BIT_FOR_BIT``, the tests that hold
solver rows to each other bit for bit, with that variable set.  A core type
whose instructions the CPU lacks is never started: its child would crash.

Each core type prints one line: ``clean``, ``excepted`` (it failed only its
measured exceptions in ``EXCEPTIONS``) or ``FAILED`` with the other failing
tests.  The exit status is 1 if any core type has a failure that is not a
measured exception, or its child ends without a verdict.  The children run
one at a time; the whole check takes about 80 s on a 2-core x86-64 host,
so it is not part of the suite.  Standard library only.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: OpenBLAS core types, newest first, each with the CPU flag it needs
#: (``pni`` is how Linux names SSE3).
CORE_TYPES = (("SkylakeX", "avx512f"), ("Haswell", "avx2"), ("Sandybridge", "avx"), ("Prescott", "pni"))

BIT_FOR_BIT = ("tests/test_solver.py", "tests/test_grid.py", "tests/test_clamp.py", "tests/test_power_ring.py")

#: Failures measured under one core type and kept on record, not hidden: at
#: n = 13 the ring's lift and the reference block's doubling multiply slabs
#: of different heights, and SSE3's kernels round those products differently.
#: A grid row still equals its one-point solve under Prescott.
EXCEPTIONS = {
    "Prescott": frozenset({
        "tests/test_power_ring.py::TestDifferential::test_ring_rows_equal_block_rows[13]",
        "tests/test_power_ring.py::TestDifferential::test_width_one_window_equals_the_stacked_block_row[13]",
    }),
}


def cpu_flags() -> frozenset[str]:
    """The flags of the first CPU in ``/proc/cpuinfo``; empty where it cannot be read."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            line = next((line for line in fh if line.startswith("flags")), "")
    except OSError:
        return frozenset()
    return frozenset(line.partition(":")[2].split())


def run(core_type: str) -> tuple[str, list[str], str]:
    """The verdict, the failures other than the measured exceptions and
    pytest's last line, for the bit-for-bit tests under one core type."""
    env = dict(os.environ, OPENBLAS_CORETYPE=core_type)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *BIT_FOR_BIT],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    failed = {line.split(" ", 2)[1] for line in lines if line.startswith(("FAILED ", "ERROR "))}
    unexpected = sorted(failed - EXCEPTIONS.get(core_type, frozenset()))
    # exit status 1 is a failing test; any other (usage, collection, a crash) is no verdict
    if proc.returncode not in (0, 1):
        return "no verdict", unexpected, (lines or proc.stderr.splitlines() or [""])[-1]
    return ("FAILED" if unexpected else "excepted" if failed else "clean"), unexpected, lines[-1]


def main(names: list[str]) -> int:
    flags = cpu_flags()
    runnable = [name for name, flag in CORE_TYPES if flag in flags]
    unknown = set(names) - {name for name, _ in CORE_TYPES}
    if unknown:
        print(f"unknown core type(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    for name in sorted(set(names) - set(runnable)):
        print(f"{'not run':>10}  {name}: the CPU lacks its instructions")
    chosen = [name for name in runnable if not names or name in names]
    bad = 0
    for name in chosen:
        verdict, unexpected, summary = run(name)
        print(f"{verdict:>10}  {name}: {summary}", flush=True)
        for node in unexpected:
            print(f"{'':>12}{node}")
        bad += verdict in ("FAILED", "no verdict")
    print(f"{len(chosen) - bad} of {len(chosen)} core types clean or excepted")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
