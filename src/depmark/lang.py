"""Textual model language: parser and canonical serializer.

A document is a sequence of ``;``-terminated statements::

    param NAME = NUMBER [coverage] ;
    state INT "label" class = operational|fail_operational|fail_safe|fail_unsafe ;
    trans INT -> INT rate = EXPR [kind = failure|repair] ;
    init INT = NUMBER ;
    option horizon = NUMBER ;

Rate expressions use ``+``, ``-``, ``*`` and parentheses over numbers and
parameter names; there is no division and no unary minus, so the grammar
cannot spell a negative rate.  ``#`` starts a comment running to the end
of the line.  Parsing never raises anything but :class:`ModelParseError`,
which carries one spanned :class:`ParseError` per problem found; the
parser resynchronizes at statement boundaries so several errors can be
reported in one pass.

When a document has no ``init`` statement, the initial distribution
defaults to probability 1 on the lowest-id operational state.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .model import (
    Constant,
    DepmarkError,
    Difference,
    MarkovModel,
    ParamRef,
    ParameterSet,
    Product,
    RateExpr,
    State,
    StateClass,
    Sum,
    Transition,
    TransitionKind,
)

__all__ = [
    "SourceSpan",
    "ParseErrorKind",
    "ParseError",
    "ModelParseError",
    "parse",
    "serialize",
    "load_model",
    "bundled_model_path",
    "bundled_table_path",
]


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """1-based position of a token in the source text."""

    line: int
    column: int
    length: int


class ParseErrorKind(Enum):
    LEXICAL = "lexical"
    SYNTACTIC = "syntactic"
    SEMANTIC = "semantic"


@dataclass(frozen=True, slots=True)
class ParseError:
    span: SourceSpan
    message: str
    kind: ParseErrorKind


class ModelParseError(DepmarkError):
    """Raised by :func:`parse`; ``errors`` holds every problem found."""

    def __init__(self, errors: list[ParseError]):
        self.errors = tuple(errors)
        lines = [
            f"{e.span.line}:{e.span.column}: {e.kind.value}: {e.message}" for e in self.errors
        ]
        super().__init__("\n".join(lines) or "parse failed")


# --------------------------------------------------------------------------
# lexer

# One named group per token kind, tried in order.  Strings stop at the
# line end; one without its closing quote is an error.
_TOKEN_RE = re.compile(
    r'(?P<newline>\n)|(?P<blank>[ \t\r]+)|(?P<comment>#[^\n]*)|(?P<string>"[^"\n]*"?)'
    r"|(?P<arrow>->)|(?P<punct>[;=()+*-])|(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<other>.)"
)


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # ident | number | string | arrow | punct | eof
    text: str
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column, max(len(self.text), 1))

    def describe(self) -> str:
        if self.kind == "eof":
            return "end of input"
        return repr(self.text)


def _lex(text: str, errors: list[ParseError]) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        if kind == "newline":
            line, col = line + 1, 1
            continue
        if kind == "string" and not lexeme.endswith('"', 1):
            errors.append(ParseError(SourceSpan(line, col, len(lexeme)), "unterminated string", ParseErrorKind.LEXICAL))
        elif kind == "other":
            errors.append(ParseError(SourceSpan(line, col, 1), f"unexpected character {lexeme!r}", ParseErrorKind.LEXICAL))
        elif kind == "string":
            tokens.append(_Token(kind, lexeme[1:-1], line, col))
        elif kind not in ("blank", "comment"):
            tokens.append(_Token(kind, lexeme, line, col))
        if kind != "comment":  # only an eof can follow a comment on its line; it sits at the '#'
            col += len(lexeme)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# --------------------------------------------------------------------------
# parser

_STATEMENT_KEYWORDS = ("param", "state", "trans", "init", "option")
_CLASS_KEYWORDS = {cls.keyword: cls for cls in StateClass}
_KIND_KEYWORDS = {kind.value: kind for kind in TransitionKind}


class _Unexpected(Exception):
    def __init__(self, token: _Token, expected: str):
        self.token = token
        self.expected = expected
        super().__init__(f"expected {expected}, found {token.describe()}")


@dataclass(slots=True)
class _ParamStmt:
    name: str
    value: float
    coverage: bool
    span: SourceSpan


@dataclass(slots=True)
class _StateStmt:
    id: int
    label: str
    state_class: StateClass
    span: SourceSpan
    label_span: SourceSpan


@dataclass(slots=True)
class _TransStmt:
    source: int
    target: int
    rate: RateExpr
    kind: TransitionKind
    span: SourceSpan
    target_span: SourceSpan
    refs: list[tuple[str, SourceSpan]]


@dataclass(slots=True)
class _InitStmt:
    id: int
    prob: float
    span: SourceSpan


@dataclass(slots=True)
class _OptionStmt:
    name: str
    value: float
    span: SourceSpan


class _Parser:
    def __init__(self, tokens: list[_Token], errors: list[ParseError]):
        self.tokens = tokens
        self.errors = errors
        self.pos = 0
        self.params: list[_ParamStmt] = []
        self.states: list[_StateStmt] = []
        self.trans: list[_TransStmt] = []
        self.inits: list[_InitStmt] = []
        self.options: list[_OptionStmt] = []

    # token helpers ----------------------------------------------------

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _accept(self, kind: str, text: str | None = None) -> _Token | None:
        # consume the next token only if it has this kind (and text); a token
        # that fails stays put, so _synchronize starts from it
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            return None
        self.pos += 1
        return tok

    def _expect(self, kind: str, what: str = "", text: str | None = None) -> _Token:
        # ``what`` names the token in the error; by default it is the quoted text
        tok = self._accept(kind, text)
        if tok is None:
            raise _Unexpected(self._peek(), what or f"'{text}'")
        return tok

    def _state_id(self) -> _Token:
        # a number token of decimal digits only: not 1.5, not 1e3
        if self._peek().text.isdecimal():
            return self._expect("number", "integer state id")
        raise _Unexpected(self._peek(), "integer state id")

    def _error(self, span: SourceSpan, message: str, kind: ParseErrorKind) -> None:
        self.errors.append(ParseError(span, message, kind))

    def _synchronize(self) -> None:
        # skip forward past the next ';' so later statements still parse
        while self._peek().kind != "eof" and not self._accept("punct", ";"):
            self.pos += 1

    # grammar ------------------------------------------------------------

    def run(self) -> None:
        while (tok := self._peek()).kind != "eof":
            try:
                if tok.kind != "ident" or tok.text not in _STATEMENT_KEYWORDS:
                    raise _Unexpected(tok, "statement keyword (param, state, trans, init, option)")
                self.pos += 1  # the keyword
                getattr(self, f"_parse_{tok.text}")()
            except _Unexpected as err:
                self._error(err.token.span, str(err), ParseErrorKind.SYNTACTIC)
                self._synchronize()

    def _parse_param(self) -> None:
        name_tok = self._expect("ident", "parameter name")
        self._expect("punct", text="=")
        value_tok = self._expect("number", "parameter value")
        coverage = self._accept("ident", "coverage") is not None
        self._expect("punct", text=";")
        value = float(value_tok.text)
        if not math.isfinite(value):
            self._error(value_tok.span, f"parameter value is not finite: {value_tok.text}", ParseErrorKind.SEMANTIC)
            value = 0.0
        self.params.append(_ParamStmt(name_tok.text, value, coverage, name_tok.span))

    def _parse_state(self) -> None:
        id_tok = self._state_id()
        label_tok = self._expect("string", "quoted state label")
        self._expect("ident", text="class")
        self._expect("punct", text="=")
        cls_tok = self._expect("ident", "state class")
        if cls_tok.text not in _CLASS_KEYWORDS:
            allowed = ", ".join(sorted(_CLASS_KEYWORDS))
            raise _Unexpected(cls_tok, f"state class ({allowed})")
        self._expect("punct", text=";")
        self.states.append(
            _StateStmt(int(id_tok.text), label_tok.text, _CLASS_KEYWORDS[cls_tok.text], id_tok.span, label_tok.span)
        )

    def _parse_trans(self) -> None:
        src_tok = self._state_id()
        self._expect("arrow", text="->")
        dst_tok = self._state_id()
        self._expect("ident", text="rate")
        self._expect("punct", text="=")
        refs: list[tuple[str, SourceSpan]] = []
        rate = self._parse_expr(refs)
        kind = TransitionKind.FAILURE
        if self._accept("ident", "kind"):
            self._expect("punct", text="=")
            kind_tok = self._expect("ident", "transition kind")
            if kind_tok.text not in _KIND_KEYWORDS:
                raise _Unexpected(kind_tok, "transition kind (failure, repair)")
            kind = _KIND_KEYWORDS[kind_tok.text]
        self._expect("punct", text=";")
        self.trans.append(
            _TransStmt(int(src_tok.text), int(dst_tok.text), rate, kind, src_tok.span, dst_tok.span, refs)
        )

    def _parse_init(self) -> None:
        id_tok = self._state_id()
        self._expect("punct", text="=")
        prob_tok = self._expect("number", "probability")
        self._expect("punct", text=";")
        self.inits.append(_InitStmt(int(id_tok.text), float(prob_tok.text), id_tok.span))

    def _parse_option(self) -> None:
        name_tok = self._expect("ident", "option name")
        self._expect("punct", text="=")
        value_tok = self._expect("number", "option value")
        self._expect("punct", text=";")
        value = float(value_tok.text)
        if name_tok.text != "horizon":
            self._error(name_tok.span, f"unknown option {name_tok.text!r}", ParseErrorKind.SEMANTIC)
            return
        if not math.isfinite(value):
            self._error(value_tok.span, f"option value is not finite: {value_tok.text}", ParseErrorKind.SEMANTIC)
            return
        self.options.append(_OptionStmt(name_tok.text, value, name_tok.span))

    # expressions: expr := term (('+'|'-') term)*, term := factor ('*' factor)*,
    # factor := NUMBER | NAME | '(' expr ')'; left-associative throughout

    def _parse_expr(self, refs: list[tuple[str, SourceSpan]]) -> RateExpr:
        node = self._parse_term(refs)
        while op := self._accept("punct", "+") or self._accept("punct", "-"):
            rhs = self._parse_term(refs)
            node = Sum(node, rhs) if op.text == "+" else Difference(node, rhs)
        return node

    def _parse_term(self, refs: list[tuple[str, SourceSpan]]) -> RateExpr:
        node = self._parse_factor(refs)
        while self._accept("punct", "*"):
            node = Product(node, self._parse_factor(refs))
        return node

    def _parse_factor(self, refs: list[tuple[str, SourceSpan]]) -> RateExpr:
        if tok := self._accept("number"):
            try:
                return Constant(float(tok.text))
            except ValueError:
                self._error(tok.span, f"rate constant is not finite: {tok.text}", ParseErrorKind.SEMANTIC)
                return Constant(0.0)
        if tok := self._accept("ident"):
            refs.append((tok.text, tok.span))
            return ParamRef(tok.text)
        if self._accept("punct", "("):
            node = self._parse_expr(refs)
            self._expect("punct", text=")")
            return node
        raise _Unexpected(self._peek(), "number, parameter name, or '('")


def parse(text: str) -> MarkovModel:
    """Parse a document into a model.

    Raises :class:`ModelParseError` carrying every lexical, syntactic,
    and semantic problem found.  A successfully returned model is
    structurally sound (all state and parameter references resolve);
    value-domain problems such as an initial distribution that does not
    sum to 1 are left to :func:`depmark.model.validate` so that they can
    be reported as findings rather than parse failures.
    """
    errors: list[ParseError] = []
    tokens = _lex(text, errors)
    parser = _Parser(tokens, errors)
    parser.run()

    # semantic pass: duplicates first, then reference resolution
    param_values: dict[str, float] = {}
    coverage: set[str] = set()
    for stmt in parser.params:
        if stmt.name in param_values:
            errors.append(
                ParseError(stmt.span, f"duplicate parameter {stmt.name!r}", ParseErrorKind.SEMANTIC)
            )
            continue
        param_values[stmt.name] = stmt.value
        if stmt.coverage:
            coverage.add(stmt.name)

    states: dict[int, _StateStmt] = {}
    for stmt in parser.states:
        if stmt.id in states:
            errors.append(
                ParseError(stmt.span, f"duplicate state id {stmt.id}", ParseErrorKind.SEMANTIC)
            )
            continue
        if not stmt.label:
            errors.append(ParseError(stmt.label_span, "state label is empty", ParseErrorKind.SEMANTIC))
            continue
        if "\r" in stmt.label:
            errors.append(ParseError(stmt.label_span, "state label contains a carriage return", ParseErrorKind.SEMANTIC))
            continue
        states[stmt.id] = stmt

    if not parser.states:
        errors.append(ParseError(SourceSpan(1, 1, 1), "document declares no states", ParseErrorKind.SEMANTIC))

    for stmt in parser.trans:
        if stmt.source not in states:
            errors.append(
                ParseError(stmt.span, f"transition source {stmt.source} is not a declared state", ParseErrorKind.SEMANTIC)
            )
        if stmt.target not in states:
            errors.append(
                ParseError(stmt.target_span, f"transition target {stmt.target} is not a declared state", ParseErrorKind.SEMANTIC)
            )
        for name, span in stmt.refs:
            if name not in param_values:
                errors.append(
                    ParseError(span, f"undeclared parameter {name!r} in rate expression", ParseErrorKind.SEMANTIC)
                )

    init_entries: dict[int, tuple[float, SourceSpan]] = {}
    for stmt in parser.inits:
        if stmt.id in init_entries:
            errors.append(
                ParseError(stmt.span, f"duplicate init entry for state {stmt.id}", ParseErrorKind.SEMANTIC)
            )
            continue
        if stmt.id not in states:
            errors.append(
                ParseError(stmt.span, f"init references undeclared state {stmt.id}", ParseErrorKind.SEMANTIC)
            )
            continue
        init_entries[stmt.id] = (stmt.prob, stmt.span)

    horizon: float | None = None
    for stmt in parser.options:
        if horizon is not None:
            errors.append(ParseError(stmt.span, "duplicate option 'horizon'", ParseErrorKind.SEMANTIC))
            continue
        horizon = stmt.value

    if not parser.inits and states:
        operational = sorted(s.id for s in states.values() if s.state_class is StateClass.OPERATIONAL)
        if operational:
            init_entries[operational[0]] = (1.0, SourceSpan(1, 1, 1))
        else:
            errors.append(
                ParseError(
                    SourceSpan(1, 1, 1),
                    "no init statement and no operational state to default to",
                    ParseErrorKind.SEMANTIC,
                )
            )

    if errors:
        raise ModelParseError(errors)

    return MarkovModel(
        states=tuple(State(s.id, s.label, s.state_class) for s in states.values()),
        transitions=tuple(Transition(t.source, t.target, t.rate, t.kind) for t in parser.trans),
        params=ParameterSet(param_values),
        initial={sid: prob for sid, (prob, _) in init_entries.items()},
        coverage=frozenset(coverage),
        horizon=horizon,
    )


# --------------------------------------------------------------------------
# serializer


def serialize(model: MarkovModel) -> str:
    """Canonical text for a model: parameters sorted by name, states by
    id, transitions by (source, target).  ``parse(serialize(m))`` is
    structurally identical to ``m``."""
    lines: list[str] = []
    for name in sorted(model.params):
        suffix = " coverage" if name in model.coverage else ""
        lines.append(f"param {name} = {model.params[name]!r}{suffix} ;")
    for state in model.states:
        lines.append(f'state {state.id} "{state.label}" class = {state.state_class.keyword} ;')
    for tr in model.transitions:
        kind = " kind = repair" if tr.kind is TransitionKind.REPAIR else ""
        lines.append(f"trans {tr.source} -> {tr.target} rate = {tr.rate}{kind} ;")
    for sid in sorted(model.initial):
        lines.append(f"init {sid} = {model.initial[sid]!r} ;")
    if model.horizon is not None:
        lines.append(f"option horizon = {model.horizon!r} ;")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# files


def load_model(path: str | Path) -> MarkovModel:
    """Read and parse a model file (UTF-8, with or without a byte-order mark)."""
    return parse(Path(path).read_text(encoding="utf-8-sig"))


def _bundled(kind: str, name: str, suffix: str) -> Path:
    from importlib import resources

    if not name.endswith(suffix):
        name += suffix
    return Path(str(resources.files("depmark").joinpath(kind, name)))


def bundled_model_path(name: str) -> Path:
    """Path of a model file shipped with the package, e.g. ``dfwcs``."""
    return _bundled("models", name, ".mdl")


def bundled_table_path(name: str) -> Path:
    """Path of a reference table shipped with the package, e.g. ``table3``."""
    return _bundled("tables", name, ".csv")
