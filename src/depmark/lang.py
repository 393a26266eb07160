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

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_PUNCT = ";=()+-*"


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
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            end = i + 1
            while end < n and text[end] not in ('"', "\n"):
                end += 1
            if end < n and text[end] == '"':
                tokens.append(_Token("string", text[i + 1 : end], line, col))
                col += end - i + 1
                i = end + 1
            else:
                errors.append(
                    ParseError(
                        SourceSpan(line, col, end - i),
                        "unterminated string",
                        ParseErrorKind.LEXICAL,
                    )
                )
                col += end - i
                i = end
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(_Token("arrow", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append(_Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m and (ch.isdigit() or ch == "."):
            tokens.append(_Token("number", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        errors.append(
            ParseError(SourceSpan(line, col, 1), f"unexpected character {ch!r}", ParseErrorKind.LEXICAL)
        )
        i += 1
        col += 1
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

    def _advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def _expect_punct(self, ch: str) -> _Token:
        tok = self._peek()
        if tok.kind == "punct" and tok.text == ch:
            return self._advance()
        raise _Unexpected(tok, f"'{ch}'")

    def _expect_ident(self, what: str = "identifier") -> _Token:
        tok = self._peek()
        if tok.kind == "ident":
            return self._advance()
        raise _Unexpected(tok, what)

    def _expect_number(self, what: str = "number") -> tuple[float, _Token]:
        tok = self._peek()
        if tok.kind == "number":
            self._advance()
            return float(tok.text), tok
        raise _Unexpected(tok, what)

    def _expect_int(self, what: str = "integer state id") -> tuple[int, _Token]:
        tok = self._peek()
        if tok.kind == "number" and re.fullmatch(r"\d+", tok.text):
            self._advance()
            return int(tok.text), tok
        raise _Unexpected(tok, what)

    def _expect_string(self) -> _Token:
        tok = self._peek()
        if tok.kind == "string":
            return self._advance()
        raise _Unexpected(tok, "quoted state label")

    def _expect_keyword(self, word: str) -> _Token:
        tok = self._peek()
        if tok.kind == "ident" and tok.text == word:
            return self._advance()
        raise _Unexpected(tok, f"'{word}'")

    def _error(self, span: SourceSpan, message: str, kind: ParseErrorKind) -> None:
        self.errors.append(ParseError(span, message, kind))

    def _synchronize(self) -> None:
        # skip forward past the next ';' so later statements still parse
        while True:
            tok = self._advance()
            if tok.kind == "eof" or (tok.kind == "punct" and tok.text == ";"):
                return

    # grammar ------------------------------------------------------------

    def run(self) -> None:
        while self._peek().kind != "eof":
            tok = self._peek()
            try:
                if tok.kind != "ident" or tok.text not in _STATEMENT_KEYWORDS:
                    raise _Unexpected(tok, "statement keyword (param, state, trans, init, option)")
                getattr(self, f"_parse_{tok.text}")()
            except _Unexpected as err:
                self._error(err.token.span, str(err), ParseErrorKind.SYNTACTIC)
                self._synchronize()

    def _parse_param(self) -> None:
        self._expect_keyword("param")
        name_tok = self._expect_ident("parameter name")
        self._expect_punct("=")
        value, value_tok = self._expect_number("parameter value")
        coverage = False
        if self._peek().kind == "ident" and self._peek().text == "coverage":
            self._advance()
            coverage = True
        self._expect_punct(";")
        if not math.isfinite(value):
            self._error(value_tok.span, f"parameter value is not finite: {value_tok.text}", ParseErrorKind.SEMANTIC)
            value = 0.0
        self.params.append(_ParamStmt(name_tok.text, value, coverage, name_tok.span))

    def _parse_state(self) -> None:
        self._expect_keyword("state")
        sid, id_tok = self._expect_int()
        label_tok = self._expect_string()
        self._expect_keyword("class")
        self._expect_punct("=")
        cls_tok = self._expect_ident("state class")
        if cls_tok.text not in _CLASS_KEYWORDS:
            allowed = ", ".join(sorted(_CLASS_KEYWORDS))
            raise _Unexpected(cls_tok, f"state class ({allowed})")
        self._expect_punct(";")
        self.states.append(
            _StateStmt(sid, label_tok.text, _CLASS_KEYWORDS[cls_tok.text], id_tok.span, label_tok.span)
        )

    def _parse_trans(self) -> None:
        self._expect_keyword("trans")
        src, src_tok = self._expect_int()
        tok = self._peek()
        if tok.kind != "arrow":
            raise _Unexpected(tok, "'->'")
        self._advance()
        dst, dst_tok = self._expect_int()
        self._expect_keyword("rate")
        self._expect_punct("=")
        refs: list[tuple[str, SourceSpan]] = []
        rate = self._parse_expr(refs)
        kind = TransitionKind.FAILURE
        if self._peek().kind == "ident" and self._peek().text == "kind":
            self._advance()
            self._expect_punct("=")
            kind_tok = self._expect_ident("transition kind")
            if kind_tok.text not in _KIND_KEYWORDS:
                raise _Unexpected(kind_tok, "transition kind (failure, repair)")
            kind = _KIND_KEYWORDS[kind_tok.text]
        self._expect_punct(";")
        self.trans.append(_TransStmt(src, dst, rate, kind, src_tok.span, dst_tok.span, refs))

    def _parse_init(self) -> None:
        self._expect_keyword("init")
        sid, id_tok = self._expect_int()
        self._expect_punct("=")
        prob, _ = self._expect_number("probability")
        self._expect_punct(";")
        self.inits.append(_InitStmt(sid, prob, id_tok.span))

    def _parse_option(self) -> None:
        self._expect_keyword("option")
        name_tok = self._expect_ident("option name")
        self._expect_punct("=")
        value, value_tok = self._expect_number("option value")
        self._expect_punct(";")
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
        while True:
            tok = self._peek()
            if tok.kind == "punct" and tok.text in "+-":
                self._advance()
                rhs = self._parse_term(refs)
                node = Sum(node, rhs) if tok.text == "+" else Difference(node, rhs)
            else:
                return node

    def _parse_term(self, refs: list[tuple[str, SourceSpan]]) -> RateExpr:
        node = self._parse_factor(refs)
        while True:
            tok = self._peek()
            if tok.kind == "punct" and tok.text == "*":
                self._advance()
                node = Product(node, self._parse_factor(refs))
            else:
                return node

    def _parse_factor(self, refs: list[tuple[str, SourceSpan]]) -> RateExpr:
        tok = self._peek()
        if tok.kind == "number":
            self._advance()
            try:
                return Constant(float(tok.text))
            except ValueError:
                self._error(tok.span, f"rate constant is not finite: {tok.text}", ParseErrorKind.SEMANTIC)
                return Constant(0.0)
        if tok.kind == "ident":
            self._advance()
            refs.append((tok.text, tok.span))
            return ParamRef(tok.text)
        if tok.kind == "punct" and tok.text == "(":
            self._advance()
            node = self._parse_expr(refs)
            self._expect_punct(")")
            return node
        raise _Unexpected(tok, "number, parameter name, or '('")


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
