"""Dependability metrics on top of the transient solvers.

A distribution over the model's states is collapsed into four numbers:

* reliability R(t): probability the system still delivers service, i.e.
  the mass on operational plus fail-operational states;
* probability of a detected, safely-parked failure Pfs(t): mass on
  fail-safe states;
* probability of an undetected failure Pfu(t): mass on fail-unsafe
  states;
* safety S(t) = R(t) + Pfs(t), everything except the unsafe mass.

The module also sweeps a parameter (typically the detection coverage)
across values as one stack of generators in one solver call, checks the
two bundled numeric requirements, audits external metric tables for
internal consistency, and composes independently failing subsystems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from .model import DepmarkError, MarkovModel, StateClass, build_generators

if TYPE_CHECKING:  # numpy and the solvers load on first use: audit_table needs neither
    import numpy as np
    from .solve import SolverConfig, Trajectory

__all__ = [
    "RELIABILITY_TARGET",
    "UNSAFE_CEILING",
    "CLOSURE_TOL",
    "TOTAL_TOL",
    "DependabilityMetrics",
    "LengthMismatchError",
    "TimeMismatchError",
    "SweepRow",
    "RequirementVerdict",
    "AuditRow",
    "AuditReport",
    "metrics",
    "metrics_rows",
    "sweep",
    "check_requirements",
    "compose_independent",
    "audit_table",
    "export_timeseries",
]

#: Minimum acceptable mission reliability (inclusive bound).
RELIABILITY_TARGET = 0.99
#: Maximum acceptable probability of undetected failure (inclusive bound).
UNSAFE_CEILING = 1e-3

#: Audit tolerance for the closure identity S = R + Pfs.
CLOSURE_TOL = 1e-6
#: Audit tolerance for the totality identity S + Pfu = 1 (loose, since
#: published tables are rounded to a few digits).
TOTAL_TOL = 1e-3


class LengthMismatchError(DepmarkError):
    """Distribution length does not match the model's state count."""


class TimeMismatchError(DepmarkError):
    """Composed metrics refer to different mission times."""


@dataclass(frozen=True, slots=True)
class DependabilityMetrics:
    """The four service-delivery numbers at one mission time."""

    t: float
    reliability: float
    safety: float
    prob_fail_safe: float
    prob_fail_unsafe: float

    def as_row(self) -> tuple[float, float, float, float, float]:
        return (self.t, self.reliability, self.safety, self.prob_fail_safe, self.prob_fail_unsafe)


#: The metric each state class is summed into: R, Pfs or Pfu.
_METRIC_OF_CLASS = {
    StateClass.OPERATIONAL: 0,
    StateClass.FAIL_OPERATIONAL: 0,
    StateClass.FAIL_SAFE: 1,
    StateClass.FAIL_UNSAFE: 2,
}


def _metric_columns(probs: np.ndarray, model: MarkovModel) -> tuple[np.ndarray, ...]:
    """R, S, Pfs and Pfu of a distribution, or of each row of a (rows, n)
    block, with S = R + Pfs.  One loop adds each class's members in state
    order from 0.0 on every path: numpy would sum 8 or more entries of a
    vector pairwise but the rows of a block in sequence."""
    import numpy as np
    sums = [np.zeros(probs.shape[:-1]) for _ in range(3)]
    # the transpose puts the state axis first for a vector and a block alike
    for column, state in zip(probs.T, model.states):
        sums[_METRIC_OF_CLASS[state.state_class]] += column
    reliability, prob_fail_safe, prob_fail_unsafe = sums
    return reliability, reliability + prob_fail_safe, prob_fail_safe, prob_fail_unsafe


def metrics(dist: Sequence[float] | np.ndarray, model: MarkovModel, t: float) -> DependabilityMetrics:
    """Collapse one distribution into the four metrics.

    Safety is computed as reliability + prob_fail_safe, so the closure
    identity holds exactly in floating point, not just approximately.
    """
    import numpy as np
    vec = np.asarray(dist, dtype=float)
    if vec.shape != (model.n,):
        raise LengthMismatchError(
            f"distribution has shape {vec.shape}, model has {model.n} states"
        )
    return DependabilityMetrics(float(t), *map(float, _metric_columns(vec, model)))


def metrics_rows(trajectory: Trajectory, model: MarkovModel) -> list[DependabilityMetrics]:
    """Metrics for every row of a solved trajectory."""
    columns = [column.tolist() for column in _metric_columns(trajectory.probs, model)]
    return [DependabilityMetrics(*row) for row in zip(trajectory.times.tolist(), *columns)]


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One point of a parameter sweep: the value tried and the metrics
    it produced."""

    value: float
    metrics: DependabilityMetrics


def sweep(
    model: MarkovModel,
    param: str,
    values: Iterable[float],
    t: float,
    config: SolverConfig | None = None,
) -> list[SweepRow]:
    """Solve the model at time t for each value of one parameter.

    Values are processed in ascending order, duplicates kept, as one
    stack of generators in one solver call; row b equals
    ``metrics(solve_at(model.with_params({param: value}), config, t), ...)``
    for the b-th value, bit for bit.  When the stack fails, the values
    are solved one by one in that order, and the first failure is
    re-raised with ``param=value`` prepended so a long sweep pinpoints
    the offending point.
    """
    from .solve import SolverConfig, _solve_stack, solve_at
    if config is None:
        config = SolverConfig()
    ordered = sorted(float(v) for v in values)
    if not ordered:
        return []
    try:
        probs = _solve_stack(model, build_generators(model, param, ordered), config, [t])[:, 0]
    except DepmarkError:
        for value in ordered:
            try:
                solve_at(model.with_params({param: value}), config, t)
            except DepmarkError as err:
                message = err.args[0] if err.args else str(err)
                err.args = (f"{param}={value:g}: {message}",) + err.args[1:]
                raise err from None
        raise
    columns = [column.tolist() for column in _metric_columns(probs, model)]
    return [SweepRow(value, DependabilityMetrics(float(t), *row)) for value, *row in zip(ordered, *columns)]


@dataclass(frozen=True, slots=True)
class RequirementVerdict:
    """Outcome of the two bundled numeric requirements at one time."""

    metrics: DependabilityMetrics
    reliability_ok: bool
    unsafe_ok: bool

    @property
    def horizon(self) -> float:
        return self.metrics.t

    @property
    def ok(self) -> bool:
        return self.reliability_ok and self.unsafe_ok


def check_requirements(m: DependabilityMetrics) -> RequirementVerdict:
    """R >= 0.99 and Pfu <= 1e-3, both bounds inclusive."""
    return RequirementVerdict(
        metrics=m,
        reliability_ok=m.reliability >= RELIABILITY_TARGET,
        unsafe_ok=m.prob_fail_unsafe <= UNSAFE_CEILING,
    )


def compose_independent(a: DependabilityMetrics, b: DependabilityMetrics) -> DependabilityMetrics:
    """Metrics of a serial system of two independently failing parts.

    Both parts must deliver service for the whole to (R = Ra * Rb); the
    whole is unsafe as soon as either part fails unsafely
    (Pfu = Pa + Pb - Pa * Pb); safety is the complement 1 - Pfu and the
    fail-safe mass is whatever safety exceeds reliability by.
    """
    if a.t != b.t:
        raise TimeMismatchError(
            f"cannot compose metrics at different times ({a.t!r} vs {b.t!r})"
        )
    reliability = a.reliability * b.reliability
    prob_fail_unsafe = (
        a.prob_fail_unsafe + b.prob_fail_unsafe - a.prob_fail_unsafe * b.prob_fail_unsafe
    )
    safety = 1.0 - prob_fail_unsafe
    return DependabilityMetrics(
        t=a.t,
        reliability=reliability,
        safety=safety,
        prob_fail_safe=safety - reliability,
        prob_fail_unsafe=prob_fail_unsafe,
    )


@dataclass(frozen=True, slots=True)
class AuditRow:
    """One audited table row; defect fields are signed residuals."""

    param: float
    reliability: float
    safety: float
    prob_fail_safe: float
    prob_fail_unsafe: float
    closure_defect: float  # R + Pfs - S
    total_defect: float  # S + Pfu - 1
    closure_ok: bool
    total_ok: bool

    @property
    def ok(self) -> bool:
        return self.closure_ok and self.total_ok


@dataclass(frozen=True, slots=True)
class AuditReport:
    rows: tuple[AuditRow, ...]

    @property
    def flagged(self) -> tuple[AuditRow, ...]:
        return tuple(row for row in self.rows if not row.ok)

    @property
    def ok(self) -> bool:
        return not self.flagged


#: A metrics table's columns: the swept or audited parameter, then the metrics.
_TABLE_COLUMNS = ("param", "R", "S", "Pfs", "Pfu")


def audit_table(rows: Iterable[Mapping[str, float] | Sequence[float]]) -> AuditReport:
    """Check R + Pfs = S (to 1e-6) and S + Pfu = 1 (to 1e-3) per row.

    Accepts mappings with keys param/R/S/Pfs/Pfu (the external table
    column names) or plain 5-sequences in that order.
    """
    audited: list[AuditRow] = []
    for row in rows:
        cells = (row[key] for key in _TABLE_COLUMNS) if isinstance(row, Mapping) else row
        param, r, s, pfs, pfu = map(float, cells)
        closure = r + pfs - s
        total = s + pfu - 1.0
        audited.append(
            AuditRow(
                param=param,
                reliability=r,
                safety=s,
                prob_fail_safe=pfs,
                prob_fail_unsafe=pfu,
                closure_defect=closure,
                total_defect=total,
                closure_ok=abs(closure) <= CLOSURE_TOL,
                total_ok=abs(total) <= TOTAL_TOL,
            )
        )
    return AuditReport(rows=tuple(audited))


def _disambiguated_labels(model: MarkovModel) -> Iterator[str]:
    """A column name per state: its label, with ``_<id>`` appended until no
    metric column or earlier state column has that name."""
    taken = {"t", *_TABLE_COLUMNS[1:], "mass_defect"}
    for state in model.states:
        name = state.label
        while name in taken:
            name += f"_{state.id}"
        taken.add(name)
        yield name


def export_timeseries(
    trajectory: Trajectory,
    model: MarkovModel,
    mass_defect: Callable[[int], float] | None = None,
) -> tuple[list[str], list[list[float]]]:
    """Flatten a trajectory into (header, rows) for tabular output.

    Columns: t, one per state label (a name already taken gets an ``_<id>``
    suffix), then R, S, Pfs, Pfu, and optionally mass_defect(row_index) last.
    """
    import numpy as np
    header = ["t", *_disambiguated_labels(model), *_TABLE_COLUMNS[1:]]
    columns = [trajectory.times, trajectory.probs, *_metric_columns(trajectory.probs, model)]
    if mass_defect is not None:
        header.append("mass_defect")
        columns.append([float(mass_defect(k)) for k in range(len(trajectory))])
    return header, np.column_stack(columns).tolist()
