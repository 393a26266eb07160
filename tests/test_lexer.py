"""The token-table lexer against the character-loop lexer it replaced
(``reference_lex``): the same tokens and the same errors on any text."""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import depmark
from depmark.lang import _lex
from reference_lex import _lex as reference_lex

# single characters and the few multi-character pieces the table treats
# specially: the arrow, exponents, a Unicode decimal digit (Arabic-Indic
# three, which \d accepts) and a superscript two (which it does not)
_NEAR_GRAMMAR = st.lists(
    st.sampled_from(
        list('paramstein_kcov =;()+-*0123456789.eE"#\n\r\t@٣²') + ["->", "1e-4", ".5", "7.", "kind", "coverage"]
    ),
    max_size=40,
).map("".join)

_BUNDLED = ("dfwcs.mdl", "dfwcs_pid.mdl", "toy_twostate.mdl")


def assert_same_lex(text: str) -> None:
    errors: list = []
    reference_errors: list = []
    assert _lex(text, errors) == reference_lex(text, reference_errors)
    assert errors == reference_errors


@seed(15)
@settings(max_examples=400)
@given(text=st.text(max_size=80))
def test_any_text(text):
    assert_same_lex(text)


@seed(15)
@settings(max_examples=1000)
@given(text=_NEAR_GRAMMAR)
def test_near_grammar_text(text):
    assert_same_lex(text)


@pytest.mark.parametrize("name", _BUNDLED)
def test_bundled_models(name):
    assert_same_lex(depmark.bundled_model_path(name).read_text(encoding="utf-8"))


@seed(15)
@settings(max_examples=200)
@given(name=st.sampled_from(_BUNDLED), data=st.data())
def test_bundled_model_prefixes(name, data):
    text = depmark.bundled_model_path(name).read_text(encoding="utf-8")
    assert_same_lex(text[: data.draw(st.integers(0, len(text)))])


@pytest.mark.parametrize("text", ["#", "# c", "param A = 1 # c", 'state 1 "s" #', "x\n  # c", "#\n#"])
def test_trailing_comment_at_end_of_input(text):
    assert_same_lex(text)


def test_end_of_input_after_trailing_comment_sits_at_the_hash():
    tokens = _lex("param A = 1 # no newline", [])
    assert (tokens[-1].kind, tokens[-1].line, tokens[-1].column) == ("eof", 1, 13)
