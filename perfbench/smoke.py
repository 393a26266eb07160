"""Smoke test of the benchmark harness; no timing is asserted.

    python3 perfbench/smoke.py

Runs every workload at the tiny size for one second, untraced on two
seeds and traced on one, and checks that:

* every metric BENCHMARK.json names is printed, with its unit;
* no op failed (error rate 0) and the result says correct;
* another seed changes the workload's inputs but none of the count.Lt.*
  and count.src_lines.* counts;
* in a directory holding only BENCHMARK.json and the benchmark's own
  files, the benchmark exits non-zero without printing a result.

Takes a few minutes, mostly in the CLI tour's child interpreters.  The
file is not named test_*.py so the repository's test run does not pick
it up.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = (1, 2)


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def parse(proc: subprocess.CompletedProcess, what: str) -> tuple[dict, dict]:
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def check_result(result: dict, meta: dict, expected: list[dict], what: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] and result["failed"] == 0, f"{what}: {meta['failures']}"
    assert result["attempted"] >= 1, what
    for spec in expected:
        got = result["metrics"].get(spec["name"])
        assert got is not None, f"{what}: metric {spec['name']} missing"
        assert got["unit"] == spec["unit"], f"{what}: {spec['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{what}: {spec['name']} = {got['value']!r}"
    assert meta["error_rate"]["value"] == 0.0, what


def fixed_counts(meta: dict) -> dict:
    return {k: v for k, v in meta["counts"].items()
            if k.startswith(("count.Lt.", "count.src_lines."))}


def main() -> int:
    for workload in (w["name"] for w in BENCH["workloads"]):
        metas = []
        for seed in SEEDS:
            what = f"{workload} seed {seed} untraced"
            meta, result = parse(run(workload, seed, 0), what)
            check_result(result, meta, BENCH["end_to_end"], what)
            metas.append(meta)
            print(f"ok  {what}", flush=True)
        if metas[0]["inputs"]:
            assert metas[0]["inputs"] != metas[1]["inputs"], f"{workload}: seed does not change inputs"
        assert fixed_counts(metas[0]) == fixed_counts(metas[1]), f"{workload}: counts moved with the seed"
        assert fixed_counts(metas[0]), f"{workload}: no counts recorded"

        what = f"{workload} seed {SEEDS[0]} traced"
        meta, result = parse(run(workload, SEEDS[0], 1), what)
        check_result(result, meta, BENCH["per_layer"], what)
        assert not meta["counts_not_repeating"], f"{what}: {meta['counts_not_repeating']}"
        print(f"ok  {what}", flush=True)

    lone = ROOT / ".perfbench" / "lone"
    shutil.rmtree(lone, ignore_errors=True)
    lone.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", lone)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, lone / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(BENCH["workloads"][0]["name"], SEEDS[0], 0, cwd=lone)
    shutil.rmtree(lone)
    assert proc.returncode != 0 and not proc.stdout.strip(), "ran without the depmark sources"
    print("ok  refuses to run without the depmark sources")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
