"""The model-language lexer as it was before it became one token table,
kept verbatim as the reference for the differential tests: for the same
text, ``depmark.lang._lex`` must return the same tokens and errors."""

import re

from depmark.lang import ParseError, ParseErrorKind, SourceSpan, _Token

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_PUNCT = ";=()+-*"


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
