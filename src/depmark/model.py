"""Core types for continuous-time Markov dependability models.

A model is a finite set of integer-id states, each tagged with a service
class, plus transitions whose rates are small arithmetic expressions over
named nonnegative parameters.  ``build_generator`` turns a model into the
generator matrix Q that every solver consumes; rows of Q sum to zero by
construction because the diagonal is set to the negative off-diagonal sum.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "SIX_MONTHS_HOURS",
    "DepmarkError",
    "UnknownParameterError",
    "NegativeRateError",
    "ParameterDomainError",
    "StateClass",
    "TransitionKind",
    "State",
    "Transition",
    "RateExpr",
    "Constant",
    "ParamRef",
    "Sum",
    "Difference",
    "Product",
    "ParameterSet",
    "MarkovModel",
    "GeneratorMatrix",
    "Severity",
    "Finding",
    "ValidationReport",
    "evaluate_rate",
    "referenced_parameters",
    "build_generator",
    "validate",
    "absorbing_states",
]

#: Mission horizon, in hours, used when neither the model file nor the
#: caller supplies one (six months of continuous operation).
SIX_MONTHS_HOURS = 4380.0


class DepmarkError(Exception):
    """Base class for every error raised by this package."""


class UnknownParameterError(DepmarkError):
    """A rate expression or an override names a parameter that does not exist."""


class NegativeRateError(DepmarkError):
    """A transition rate evaluated to a negative or non-finite value."""


class ParameterDomainError(DepmarkError):
    """A parameter value lies outside its allowed domain."""


class StateClass(Enum):
    """Service classification of a state."""

    OPERATIONAL = "operational"
    FAIL_OPERATIONAL = "fail_operational"
    FAIL_SAFE = "fail_safe"
    FAIL_UNSAFE = "fail_unsafe"

    @property
    def keyword(self) -> str:
        """Spelling used by the model language."""
        return self.value

    @property
    def delivers_service(self) -> bool:
        """True for states counted toward reliability."""
        return self in (StateClass.OPERATIONAL, StateClass.FAIL_OPERATIONAL)

    @classmethod
    def from_keyword(cls, word: str) -> "StateClass":
        for member in cls:
            if member.value == word:
                return member
        raise ValueError(f"unknown state class {word!r}")


class TransitionKind(Enum):
    FAILURE = "failure"
    REPAIR = "repair"


# --------------------------------------------------------------------------
# rate expressions


class RateExpr:
    """Arithmetic expression tree for a transition rate.

    Nodes are immutable; :func:`evaluate_rate` checks the root value is
    finite and nonnegative, intermediate values are unconstrained (so
    ``1 - C`` is fine inside a product).
    """

    __slots__ = ()

    def _eval(self, params: Mapping[str, float]) -> float:
        raise NotImplementedError

    # precedence used by __str__; atoms bind tightest
    _PREC = 3

    def _fmt(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self._fmt()


def _wrap(child: RateExpr, parent_prec: int, right: bool = False) -> str:
    # parenthesize just enough that the printed form reparses to the
    # identical tree: same-precedence right operands need parens because
    # the grammar is left-associative
    need = child._PREC < parent_prec or (right and child._PREC == parent_prec)
    text = child._fmt()
    return f"({text})" if need else text


@dataclass(frozen=True, slots=True)
class Constant(RateExpr):
    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"rate constant must be finite and >= 0, got {self.value!r}")
        object.__setattr__(self, "value", v + 0.0)  # normalize -0.0

    def _eval(self, params: Mapping[str, float]) -> float:
        return self.value

    def _fmt(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, slots=True)
class ParamRef(RateExpr):
    name: str

    def _eval(self, params: Mapping[str, float]) -> float:
        try:
            return params[self.name]
        except KeyError:
            raise UnknownParameterError(f"unknown parameter {self.name!r}") from None

    def _fmt(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Sum(RateExpr):
    lhs: RateExpr
    rhs: RateExpr
    _PREC = 1

    def _eval(self, params: Mapping[str, float]) -> float:
        return self.lhs._eval(params) + self.rhs._eval(params)

    def _fmt(self) -> str:
        return f"{_wrap(self.lhs, 1)} + {_wrap(self.rhs, 1, right=True)}"


@dataclass(frozen=True, slots=True)
class Difference(RateExpr):
    lhs: RateExpr
    rhs: RateExpr
    _PREC = 1

    def _eval(self, params: Mapping[str, float]) -> float:
        return self.lhs._eval(params) - self.rhs._eval(params)

    def _fmt(self) -> str:
        return f"{_wrap(self.lhs, 1)} - {_wrap(self.rhs, 1, right=True)}"


@dataclass(frozen=True, slots=True)
class Product(RateExpr):
    lhs: RateExpr
    rhs: RateExpr
    _PREC = 2

    def _eval(self, params: Mapping[str, float]) -> float:
        return self.lhs._eval(params) * self.rhs._eval(params)

    def _fmt(self) -> str:
        return f"{_wrap(self.lhs, 2)} * {_wrap(self.rhs, 2, right=True)}"


def referenced_parameters(expr: RateExpr) -> frozenset[str]:
    """Names of every parameter the expression mentions."""
    if isinstance(expr, ParamRef):
        return frozenset((expr.name,))
    if isinstance(expr, (Sum, Difference, Product)):
        return referenced_parameters(expr.lhs) | referenced_parameters(expr.rhs)
    return frozenset()


def evaluate_rate(expr: RateExpr, params: Mapping[str, float]) -> float:
    """Evaluate an expression tree against a parameter set.

    The root value must be finite and nonnegative; a negative result
    typically signals a coverage set above 1 inside a ``1 - C`` factor.
    """
    value = expr._eval(params)
    if not math.isfinite(value):
        raise NegativeRateError(f"rate {expr} evaluated to non-finite value {value!r}")
    if value < 0.0:
        raise NegativeRateError(f"rate {expr} evaluated to negative value {value!r}")
    return float(value)


# --------------------------------------------------------------------------
# parameters, states, transitions


class ParameterSet(Mapping):
    """Immutable name-to-value map; every value must be finite and >= 0."""

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, float] | None = None, **kwargs: float):
        merged: dict[str, float] = {}
        for source in (values or {}), kwargs:
            for name, raw in source.items():
                v = float(raw)
                if not math.isfinite(v) or v < 0.0:
                    raise ParameterDomainError(
                        f"parameter {name!r} must be finite and >= 0, got {raw!r}"
                    )
                merged[str(name)] = v + 0.0
        self._values = merged

    def __getitem__(self, name: str) -> float:
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._values.items()))
        return f"ParameterSet({inner})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ParameterSet):
            return self._values == other._values
        if isinstance(other, Mapping):
            return self._values == dict(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def updated(self, overrides: Mapping[str, float]) -> "ParameterSet":
        """New set with ``overrides`` merged in (values re-validated)."""
        merged = dict(self._values)
        merged.update(overrides)
        return ParameterSet(merged)


_LABEL_FORBIDDEN = ('"', "\n", "\r")


@dataclass(frozen=True, slots=True)
class State:
    id: int
    label: str
    state_class: StateClass

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"state id must be >= 0, got {self.id}")
        if not self.label:
            raise ValueError("state label must be non-empty")
        if any(ch in self.label for ch in _LABEL_FORBIDDEN):
            raise ValueError(f"state label may not contain quotes or newlines: {self.label!r}")


@dataclass(frozen=True, slots=True)
class Transition:
    source: int
    target: int
    rate: RateExpr
    kind: TransitionKind = TransitionKind.FAILURE


@dataclass(frozen=True)
class MarkovModel:
    """A complete model: states, transitions, parameters, initial law.

    States are kept sorted by id and transitions by (source, target);
    construction therefore yields a canonical ordering regardless of the
    order the caller supplied.  Instances are immutable; derive variants
    with :meth:`with_params`.
    """

    states: tuple[State, ...]
    transitions: tuple[Transition, ...]
    params: ParameterSet
    initial: Mapping[int, float]
    coverage: frozenset[str] = frozenset()
    horizon: float | None = None

    def __post_init__(self) -> None:
        states = tuple(sorted(self.states, key=lambda s: s.id))
        ids = [s.id for s in states]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate state ids")
        object.__setattr__(self, "states", states)
        object.__setattr__(
            self, "transitions", tuple(sorted(self.transitions, key=lambda t: (t.source, t.target)))
        )
        if not isinstance(self.params, ParameterSet):
            object.__setattr__(self, "params", ParameterSet(self.params))
        object.__setattr__(self, "initial", {int(k): float(v) for k, v in self.initial.items()})
        object.__setattr__(self, "coverage", frozenset(self.coverage))
        object.__setattr__(self, "_index", {s.id: i for i, s in enumerate(states)})

    # -- queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(s.id for s in self.states)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.states)

    def index_of(self, state_id: int) -> int:
        """Row/column index of a state id in the generator ordering."""
        try:
            return self._index[state_id]  # type: ignore[attr-defined]
        except KeyError:
            raise KeyError(f"no state with id {state_id}") from None

    def state(self, state_id: int) -> State:
        return self.states[self.index_of(state_id)]

    def initial_vector(self) -> np.ndarray:
        """Initial distribution as a dense row vector in state order."""
        p0 = np.zeros(self.n)
        for state_id, prob in self.initial.items():
            p0[self.index_of(state_id)] = prob
        return p0

    def class_indices(self, *classes: StateClass) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.states) if s.state_class in classes)

    # -- derivation ---------------------------------------------------

    def with_params(self, overrides: Mapping[str, float]) -> "MarkovModel":
        """Copy of the model with parameter overrides applied.

        Overriding an undeclared name raises UnknownParameterError; a
        coverage parameter pushed outside [0, 1] raises
        ParameterDomainError.
        """
        for name, value in overrides.items():
            if name not in self.params:
                raise UnknownParameterError(f"cannot override undeclared parameter {name!r}")
            if name in self.coverage and not 0.0 <= float(value) <= 1.0:
                raise ParameterDomainError(
                    f"coverage parameter {name!r} must lie in [0, 1], got {value!r}"
                )
        return MarkovModel(
            states=self.states,
            transitions=self.transitions,
            params=self.params.updated(overrides),
            initial=self.initial,
            coverage=self.coverage,
            horizon=self.horizon,
        )


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Dense generator Q in state order: off-diagonals are transition
    rates, each diagonal entry is the negative sum of its row's
    off-diagonals."""

    ids: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self) -> None:
        self.entries.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.ids)


def build_generator(model: MarkovModel) -> GeneratorMatrix:
    """Evaluate every transition rate and assemble Q.

    Parallel transitions between the same pair of states accumulate.
    Self-loops contribute nothing (they cancel against the conservation
    diagonal and are flagged by :func:`validate`).
    """
    n = model.n
    try:
        entries = [
            (model.index_of(tr.source), model.index_of(tr.target), evaluate_rate(tr.rate, model.params))
            for tr in model.transitions
        ]
    except KeyError as err:
        raise DepmarkError(f"transition references a missing state: {err}") from None
    q = np.zeros((n, n))
    for i, j, rate in entries:
        if i != j:
            q[i, j] += rate
    q[np.diag_indices(n)] = -q.sum(axis=1)
    return GeneratorMatrix(ids=model.ids, entries=q)


# --------------------------------------------------------------------------
# validation


class Severity(Enum):
    FATAL = "fatal"
    WARNING = "warning"


@dataclass(frozen=True, slots=True)
class Finding:
    severity: Severity
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    @property
    def fatal(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity is Severity.FATAL)

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity is Severity.WARNING)

    @property
    def ok(self) -> bool:
        return not self.fatal


_INIT_SUM_TOL = 1e-12


def validate(model: MarkovModel) -> ValidationReport:
    """Structural and domain checks, fatal findings first.

    Fatal: dangling state references (transitions or initial entries),
    unknown parameters in rate expressions, an initial distribution that
    does not sum to 1 within 1e-12 or has entries outside [0, 1], and
    coverage designations that are undeclared or outside [0, 1].
    Warnings: states unreachable from the initial support, outgoing
    transitions from fail-safe/fail-unsafe states, and self-loops.
    """
    findings: list[Finding] = []
    known = set(model.ids)

    for tr in model.transitions:
        for endpoint in (tr.source, tr.target):
            if endpoint not in known:
                findings.append(
                    Finding(
                        Severity.FATAL,
                        "dangling-state",
                        f"transition {tr.source} -> {tr.target} references undeclared state {endpoint}",
                    )
                )

    declared = set(model.params)
    for tr in model.transitions:
        for name in sorted(referenced_parameters(tr.rate) - declared):
            findings.append(
                Finding(
                    Severity.FATAL,
                    "unknown-parameter",
                    f"transition {tr.source} -> {tr.target} uses undeclared parameter {name!r}",
                )
            )

    total = 0.0
    for state_id, prob in sorted(model.initial.items()):
        if state_id not in known:
            findings.append(
                Finding(
                    Severity.FATAL,
                    "dangling-state",
                    f"initial distribution references undeclared state {state_id}",
                )
            )
        if not (math.isfinite(prob) and -_INIT_SUM_TOL <= prob <= 1.0 + _INIT_SUM_TOL):
            findings.append(
                Finding(
                    Severity.FATAL,
                    "initial-distribution",
                    f"initial probability of state {state_id} is outside [0, 1]: {prob!r}",
                )
            )
        total += prob
    if not (math.isfinite(total) and abs(total - 1.0) <= _INIT_SUM_TOL):
        findings.append(
            Finding(
                Severity.FATAL,
                "initial-distribution",
                f"initial probabilities sum to {total!r}, expected 1 within {_INIT_SUM_TOL:g}",
            )
        )

    for name in sorted(model.coverage):
        if name not in model.params:
            findings.append(
                Finding(
                    Severity.FATAL,
                    "coverage-domain",
                    f"coverage designation names undeclared parameter {name!r}",
                )
            )
        elif not 0.0 <= model.params[name] <= 1.0:
            findings.append(
                Finding(
                    Severity.FATAL,
                    "coverage-domain",
                    f"coverage parameter {name!r} = {model.params[name]!r} is outside [0, 1]",
                )
            )

    for tr in model.transitions:
        if tr.source == tr.target and tr.source in known:
            findings.append(
                Finding(
                    Severity.WARNING,
                    "self-loop",
                    f"self-loop on state {tr.source} has no effect on the dynamics",
                )
            )

    # reachability from the initial support, over declared states only
    support = [s for s, p in model.initial.items() if p > 0.0 and s in known]
    adjacency: dict[int, set[int]] = {s.id: set() for s in model.states}
    for tr in model.transitions:
        if tr.source in known and tr.target in known and tr.source != tr.target:
            adjacency[tr.source].add(tr.target)
    seen = set(support)
    frontier = list(support)
    while frontier:
        nxt = frontier.pop()
        for target in adjacency[nxt]:
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    unreachable = [s.id for s in model.states if s.id not in seen]
    if unreachable and support:
        listed = ", ".join(str(s) for s in unreachable)
        findings.append(
            Finding(
                Severity.WARNING,
                "unreachable-state",
                f"states unreachable from the initial distribution: {listed}",
            )
        )

    for tr in model.transitions:
        if tr.source in known and tr.source != tr.target:
            cls = model.state(tr.source).state_class
            if cls in (StateClass.FAIL_SAFE, StateClass.FAIL_UNSAFE):
                findings.append(
                    Finding(
                        Severity.WARNING,
                        "absorbing-class-outflow",
                        f"state {tr.source} is {cls.keyword} but has an outgoing transition "
                        f"to {tr.target}; such states are conventionally absorbing",
                    )
                )

    findings.sort(key=lambda f: (f.severity is not Severity.FATAL))
    return ValidationReport(findings=tuple(findings))


def absorbing_states(model: MarkovModel) -> tuple[int, ...]:
    """Ids of states with no outgoing transitions (self-loops ignored)."""
    outgoing = {tr.source for tr in model.transitions if tr.source != tr.target}
    return tuple(s.id for s in model.states if s.id not in outgoing)
