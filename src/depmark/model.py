"""Core types for continuous-time Markov dependability models.

A model is a finite set of integer-id states, each tagged with a service
class, plus transitions whose rates are small arithmetic expressions over
named nonnegative parameters.  ``build_generators`` turns a model into
the generator matrix Q that every solver consumes, or into a stack of Q
over the values of one parameter; rows of Q sum to zero by construction
because the diagonal is set to the negative off-diagonal sum.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
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
    "build_generators",
    "validate",
    "absorbing_states",
]

#: Mission horizon, in hours, used when neither the model file nor the
#: caller supplies one (six months of continuous operation).
SIX_MONTHS_HOURS = 4380.0

#: Most states of a model whose dense n x n generator may be assembled.
STATE_CAP = 1000


class DepmarkError(Exception):
    """Base class for every error raised by this package."""


class UnknownParameterError(DepmarkError):
    """A rate expression or an override names a parameter that does not exist."""


class NegativeRateError(DepmarkError):
    """A transition rate evaluated to a negative or non-finite value."""


class ParameterDomainError(DepmarkError):
    """A parameter value lies outside its allowed domain."""


class NumericFailureError(DepmarkError):
    """A computation would run away or miss its accuracy (exported by solve)."""


class StepTooLargeError(DepmarkError):
    """An Euler step breaks the guard dt * max|Q_ii| < 1 (exported by solve)."""


class Method(Enum):
    """Transient solver methods (exported by solve; numpy-free for the CLI)."""

    UNIFORMIZATION = "uniformization"
    MATRIX_EXP = "expm"
    EULER = "euler"
    PAPER_LITERAL = "paper-literal"

    @classmethod
    def from_name(cls, name: str) -> "Method":
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(f"unknown solver method {name!r}")


@dataclass(frozen=True, slots=True)
class SolverConfig:
    """Solver selection and tuning knobs (exported by solve; numpy-free, so
    the CLI refuses a bad value before it loads numpy or a model).

    ``eps`` bounds the truncation error of the uniformization series;
    ``dt`` is the step of the Euler and literal modes; ``horizon`` is the
    default end time for the literal mode (falling back to the model's
    ``option horizon`` and then to six months).
    """

    method: Method = Method.UNIFORMIZATION
    eps: float = 1e-12
    dt: float = 1.0
    horizon: float | None = None

    def __post_init__(self) -> None:
        if not 1e-300 <= self.eps < 1.0:
            raise ValueError(f"eps must be in [1e-300, 1), got {self.eps!r}")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if self.horizon is not None and not 0.0 <= self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and >= 0, got {self.horizon!r}")


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
class _Binary(RateExpr):
    """``lhs <symbol> rhs``: each subclass names its precedence, symbol and
    operator."""

    lhs: RateExpr
    rhs: RateExpr

    def _eval(self, params: Mapping[str, float]) -> float:
        return self._OP(self.lhs._eval(params), self.rhs._eval(params))

    def _fmt(self) -> str:
        return f"{_wrap(self.lhs, self._PREC)} {self._SYMBOL} {_wrap(self.rhs, self._PREC, right=True)}"


@dataclass(frozen=True, slots=True)
class Sum(_Binary):
    _PREC, _SYMBOL, _OP = 1, "+", operator.add


@dataclass(frozen=True, slots=True)
class Difference(_Binary):
    _PREC, _SYMBOL, _OP = 1, "-", operator.sub


@dataclass(frozen=True, slots=True)
class Product(_Binary):
    _PREC, _SYMBOL, _OP = 2, "*", operator.mul


def referenced_parameters(expr: RateExpr) -> frozenset[str]:
    """Names of every parameter the expression mentions."""
    if isinstance(expr, ParamRef):
        return frozenset((expr.name,))
    if isinstance(expr, _Binary):
        return referenced_parameters(expr.lhs) | referenced_parameters(expr.rhs)
    return frozenset()


def evaluate_rate(expr: RateExpr, params: Mapping[str, float]) -> float:
    """Evaluate an expression tree against a parameter set.

    The root value must be finite and nonnegative; a negative result
    typically signals a coverage set above 1 inside a ``1 - C`` factor.
    A parameter bound to an array gives an array of rates, each checked.
    """
    value = expr._eval(params)
    if getattr(value, "ndim", 0):  # 0 <= x < inf holds just for finite x >= 0
        bad = ~((value >= 0.0) & (value < math.inf))
        if not bad.any():
            return value
        value = float(value[bad.argmax()])
    if not math.isfinite(value):
        raise NegativeRateError(f"rate {expr} evaluated to non-finite value {value!r}")
    if value < 0.0:
        raise NegativeRateError(f"rate {expr} evaluated to negative value {value!r}")
    return float(value)


# --------------------------------------------------------------------------
# parameters, states, transitions


def _parameter_value(name: str, raw: float) -> float:
    """``raw`` as a parameter value: finite and >= 0, with -0.0 made 0.0."""
    v = float(raw)
    if not math.isfinite(v) or v < 0.0:
        raise ParameterDomainError(f"parameter {name!r} must be finite and >= 0, got {raw!r}")
    return v + 0.0


class ParameterSet(Mapping):
    """Immutable name-to-value map; every value must be finite and >= 0."""

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, float] | None = None, **kwargs: float):
        merged: dict[str, float] = {}
        for source in (values or {}), kwargs:
            for name, raw in source.items():
                merged[str(name)] = _parameter_value(name, raw)
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
        import numpy as np
        p0 = np.zeros(self.n)
        for state_id, prob in self.initial.items():
            p0[self.index_of(state_id)] = prob
        return p0

    def class_indices(self, *classes: StateClass) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.states) if s.state_class in classes)

    # -- derivation ---------------------------------------------------

    def _check_override(self, name: str, value: float) -> None:
        """Refuse an override of an undeclared name or a coverage outside
        [0, 1]; the finite and >= 0 check comes after, as ParameterSet's."""
        if name not in self.params:
            raise UnknownParameterError(f"cannot override undeclared parameter {name!r}")
        if name in self.coverage and not 0.0 <= float(value) <= 1.0:
            raise ParameterDomainError(
                f"coverage parameter {name!r} must lie in [0, 1], got {value!r}"
            )

    def with_params(self, overrides: Mapping[str, float]) -> "MarkovModel":
        """Copy of the model with parameter overrides applied.

        Overriding an undeclared name raises UnknownParameterError; a
        coverage parameter pushed outside [0, 1] raises
        ParameterDomainError.
        """
        for name, value in overrides.items():
            self._check_override(name, value)
        return replace(self, params=self.params.updated(overrides))


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


def build_generators(
    model: MarkovModel, param: str | None = None, values: Sequence[float] = ()
) -> np.ndarray:
    """Evaluate every transition rate and assemble Q as a (B, n, n) stack:
    slice b is Q of ``model.with_params({param: values[b]})`` bit for bit,
    each value checked as there; with no ``param``, the model's own Q.

    Parallel transitions between the same pair of states accumulate.
    Self-loops contribute nothing (they cancel against the conservation
    diagonal and are flagged by :func:`validate`).  A model of more than
    ``STATE_CAP`` states is a NumericFailureError, raised first.
    """
    import numpy as np
    n = model.n
    if n > STATE_CAP:
        raise NumericFailureError(f"model has {n} states, beyond the cap of {STATE_CAP}")
    params: dict[str, float | np.ndarray] = dict(model.params)
    if param is not None:
        for value in values:
            model._check_override(param, value)
        params[param] = np.array([_parameter_value(param, value) for value in values])
    try:
        with np.errstate(all="ignore"):  # overflow is inf, as for Python floats
            entries = [
                (model.index_of(tr.source), model.index_of(tr.target), evaluate_rate(tr.rate, params))
                for tr in model.transitions
            ]
    except KeyError as err:
        raise DepmarkError(f"transition references a missing state: {err}") from None
    q = np.zeros((1 if param is None else len(values), n, n))
    by_entry = q[0] if param is None else q.transpose(1, 2, 0)  # a lone Q takes fast scalar updates
    for i, j, rate in entries:
        if i != j:
            by_entry[i, j] += rate
    diagonal = np.arange(n)
    q[:, diagonal, diagonal] = -q.sum(axis=2)
    return q


def build_generator(model: MarkovModel) -> GeneratorMatrix:
    """The model's Q: the one-matrix case of :func:`build_generators`."""
    return GeneratorMatrix(ids=model.ids, entries=build_generators(model)[0])


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

    def fatal(code: str, message: str) -> None:
        findings.append(Finding(Severity.FATAL, code, message))

    def warning(code: str, message: str) -> None:
        findings.append(Finding(Severity.WARNING, code, message))

    known = set(model.ids)
    for tr in model.transitions:
        for endpoint in (tr.source, tr.target):
            if endpoint not in known:
                fatal("dangling-state", f"transition {tr.source} -> {tr.target} references undeclared state {endpoint}")

    declared = set(model.params)
    for tr in model.transitions:
        for name in sorted(referenced_parameters(tr.rate) - declared):
            fatal("unknown-parameter", f"transition {tr.source} -> {tr.target} uses undeclared parameter {name!r}")

    total = 0.0
    for state_id, prob in sorted(model.initial.items()):
        if state_id not in known:
            fatal("dangling-state", f"initial distribution references undeclared state {state_id}")
        if not (math.isfinite(prob) and -_INIT_SUM_TOL <= prob <= 1.0 + _INIT_SUM_TOL):
            fatal("initial-distribution", f"initial probability of state {state_id} is outside [0, 1]: {prob!r}")
        total += prob
    if not (math.isfinite(total) and abs(total - 1.0) <= _INIT_SUM_TOL):
        fatal("initial-distribution", f"initial probabilities sum to {total!r}, expected 1 within {_INIT_SUM_TOL:g}")

    for name in sorted(model.coverage):
        if name not in model.params:
            fatal("coverage-domain", f"coverage designation names undeclared parameter {name!r}")
        elif not 0.0 <= model.params[name] <= 1.0:
            fatal("coverage-domain", f"coverage parameter {name!r} = {model.params[name]!r} is outside [0, 1]")

    for tr in model.transitions:
        if tr.source == tr.target and tr.source in known:
            warning("self-loop", f"self-loop on state {tr.source} has no effect on the dynamics")

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
        warning("unreachable-state", f"states unreachable from the initial distribution: {listed}")

    for tr in model.transitions:
        if tr.source in known and tr.source != tr.target:
            cls = model.state(tr.source).state_class
            if cls in (StateClass.FAIL_SAFE, StateClass.FAIL_UNSAFE):
                warning(
                    "absorbing-class-outflow",
                    f"state {tr.source} is {cls.keyword} but has an outgoing transition "
                    f"to {tr.target}; such states are conventionally absorbing",
                )

    findings.sort(key=lambda f: (f.severity is not Severity.FATAL))
    return ValidationReport(findings=tuple(findings))


def absorbing_states(model: MarkovModel) -> tuple[int, ...]:
    """Ids of states with no outgoing transitions (self-loops ignored)."""
    outgoing = {tr.source for tr in model.transitions if tr.source != tr.target}
    return tuple(s.id for s in model.states if s.id not in outgoing)
