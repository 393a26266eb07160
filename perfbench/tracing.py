"""Spans recorded by the harness around its calls into depmark.

A span is (name, start, end, cpu, parent, op, reps): wall-clock start and
end, and the CPU seconds this process and its children spent inside it.
Spans are kept in memory and written out once, when the run ends.  With
tracing disabled every call goes straight through, so the untraced run
pays one attribute test per call and nothing else.

Where the benchmark times a public function and, separately and on the
same inputs, the public functions it calls, the inner calls are recorded
as children of the outer span even though they ran after it; the outer
call's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import json
import resource
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Callable, Iterator


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children.  Unlike wall
    time it leaves out time the host steals from a shared VM."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(
        self, name: str, op: int | None = None, parent: int | None = None, reps: int = 1
    ) -> Iterator[int | None]:
        if not self.enabled:
            yield None
            return
        if parent is None and self._stack:
            parent = self._stack[-1]
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        index = len(self.spans)
        record = {"name": name, "start": 0.0, "end": 0.0, "cpu": 0.0,
                  "parent": parent, "op": op, "reps": reps}
        self.spans.append(record)
        self._stack.append(index)
        cpu0 = cpu_seconds()
        record["start"] = perf_counter()
        try:
            yield index
        finally:
            record["end"] = perf_counter()
            record["cpu"] = cpu_seconds() - cpu0
            self._stack.pop()

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    # -- summaries ----------------------------------------------------

    def _times(self, cpu: bool) -> list[float]:
        return [s["cpu"] if cpu else s["end"] - s["start"] for s in self.spans]

    def self_times(self, cpu: bool) -> list[float]:
        """Duration minus the durations of the direct children, per span."""
        total = self._times(cpu)
        own = list(total)
        for i, s in enumerate(self.spans):
            if s["parent"] is not None:
                own[s["parent"]] -= total[i]
        return own

    def per_call(self, name: str, self_time: bool = False, cpu: bool = True) -> float | None:
        """Median seconds per call of the spans called ``name``."""
        times = self.self_times(cpu) if self_time else self._times(cpu)
        values = [times[i] / s["reps"] for i, s in enumerate(self.spans) if s["name"] == name]
        return statistics.median(values) if values else None

    def summary(self) -> dict[str, dict[str, float]]:
        columns = {
            "wall_ms": self._times(cpu=False), "wall_self_ms": self.self_times(cpu=False),
            "cpu_ms": self._times(cpu=True), "cpu_self_ms": self.self_times(cpu=True),
        }
        names = sorted({s["name"] for s in self.spans})
        out: dict[str, dict[str, float]] = {}
        for name in names:
            idx = [i for i, s in enumerate(self.spans) if s["name"] == name]
            out[name] = {"spans": len(idx)}
            for key, times in columns.items():
                out[name][f"median_{key}"] = 1e3 * statistics.median(
                    times[i] / self.spans[i]["reps"] for i in idx)
        return out

    def write(self, path: Path, extra: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.spans[0]["start"] if self.spans else 0.0
        spans = [
            dict(s, start=s["start"] - base, end=s["end"] - base) for s in self.spans
        ]
        payload = dict(extra, summary=self.summary(), spans=spans)
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
