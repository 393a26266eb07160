"""Model language: lexing, parsing, error recovery, canonical output."""

import os
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import depmark
from conftest import REPO_ROOT
from depmark import (
    Constant,
    ModelParseError,
    ParamRef,
    ParseErrorKind,
    Product,
    StateClass,
    Sum,
    TransitionKind,
    parse,
    serialize,
)

# ---------------------------------------------------------------------------
# strategies

_ident = st.from_regex(r"[A-Z][A-Z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s not in {"E"}  # a bare E reads fine, but keep names boring
)

_number = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def _exprs(param_names):
    leaves = st.one_of(
        _number.map(Constant),
        st.sampled_from(sorted(param_names)).map(ParamRef) if param_names else _number.map(Constant),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: depmark.Sum(*ab)),
            st.tuples(children, children).map(lambda ab: depmark.Difference(*ab)),
            st.tuples(children, children).map(lambda ab: depmark.Product(*ab)),
        )

    return st.recursive(leaves, extend, max_leaves=8)


_label = st.from_regex(r"[a-z][a-z0-9_ ]{0,10}", fullmatch=True)


@st.composite
def models(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    ids = sorted(draw(st.sets(st.integers(min_value=0, max_value=30), min_size=n, max_size=n)))
    classes = [draw(st.sampled_from(list(StateClass))) for _ in ids]
    # make sure a default initial state exists
    classes[0] = StateClass.OPERATIONAL
    param_names = draw(st.sets(_ident, min_size=0, max_size=3))
    params = {name: draw(_number) for name in param_names}

    lines = [f"param {name} = {value!r};" for name, value in sorted(params.items())]
    for sid, cls in zip(ids, classes):
        label = draw(_label)
        lines.append(f'state {sid} "{label}" class = {cls.value};')

    n_trans = draw(st.integers(min_value=0, max_value=6))
    seen_pairs = set()
    for _ in range(n_trans):
        a = draw(st.sampled_from(ids))
        b = draw(st.sampled_from(ids))
        if (a, b) in seen_pairs:
            continue
        seen_pairs.add((a, b))
        expr = draw(_exprs(param_names))
        kind = draw(st.sampled_from([None, TransitionKind.FAILURE, TransitionKind.REPAIR]))
        suffix = f" kind = {kind.value}" if kind is not None else ""
        lines.append(f"trans {a} -> {b} rate = {expr}{suffix};")

    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# bundled documents

class TestBundledModels:
    def test_dfwcs_contents(self, dfwcs):
        assert dfwcs.n == 7
        assert len(dfwcs.transitions) == 13
        assert dict(dfwcs.params) == {
            "LAMBDA1": 3.3e-6,
            "LAMBDA2": 3.3e-6,
            "LAMBDA3": 1e-6,
            "LAMBDA4": 1e-6,
            "C": 0.9,
            "MU": 0.013888888888888888,
        }
        assert dfwcs.coverage == frozenset({"C"})
        assert dfwcs.initial == {1: 1.0}
        assert dfwcs.horizon == 4380.0
        assert dfwcs.labels[0] == "processors_ok"

    def test_pid_variant_differs_only_in_initial(self, dfwcs, dfwcs_pid):
        assert dfwcs_pid.initial == {4: 1.0}
        assert dfwcs_pid.states == dfwcs.states
        assert dfwcs_pid.transitions == dfwcs.transitions
        assert dfwcs_pid.params == dfwcs.params

    def test_toy_defaults_initial_to_lowest_operational(self, toy):
        assert toy.initial == {1: 1.0}
        assert toy.horizon is None

    def test_default_initial_is_the_lowest_id_operational_state(self):
        doc = (
            'state 9 "c" class = operational; state 2 "f" class = fail_safe;\n'
            'state 5 "a" class = operational; state 7 "b" class = operational;\n'
        )
        assert parse(doc).initial == {5: 1.0}

    def test_bundled_round_trip(self, dfwcs, dfwcs_pid, toy):
        for model in (dfwcs, dfwcs_pid, toy):
            again = parse(serialize(model))
            assert again == model
            assert serialize(again) == serialize(model)

    def test_bundled_path_adds_the_suffix(self):
        assert depmark.bundled_model_path("dfwcs") == depmark.bundled_model_path("dfwcs.mdl")

    def test_package_and_repo_copies_identical(self):
        import pathlib

        repo = pathlib.Path(__file__).resolve().parent.parent
        for name in ("dfwcs.mdl", "dfwcs_pid.mdl", "toy_twostate.mdl"):
            bundled = depmark.bundled_model_path(name).read_bytes()
            assert (repo / "models" / name).read_bytes() == bundled
        bundled = depmark.bundled_table_path("table3.csv").read_bytes()
        assert (repo / "tables" / "table3.csv").read_bytes() == bundled

    def test_repo_data_directories_mirror_the_package(self):
        # the README and the CLI tour use the root paths, so each root data
        # file keeps exactly one packaged twin, byte for byte, and is that
        # twin: the root directories link to the packaged ones
        for sub, pattern in (("models", "*.mdl"), ("tables", "*.csv")):
            root = sorted((REPO_ROOT / sub).glob(pattern))
            packaged = sorted((REPO_ROOT / "src" / "depmark" / sub).glob(pattern))
            assert [f.name for f in root] == [f.name for f in packaged]
            assert root, f"no {pattern} under {sub}/"
            for a, b in zip(root, packaged):
                assert a.read_bytes() == b.read_bytes(), a.name
                assert os.path.samefile(a, b), a.name


class TestReadme:
    def test_model_examples_parse(self):
        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        blocks = [
            block for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S)
            if re.search(r"^state\s", block, re.M)
        ]
        assert len(blocks) >= 2
        for block in blocks:
            model = parse(block)
            assert not depmark.validate(model).fatal
            assert parse(serialize(model)) == model


# ---------------------------------------------------------------------------
# grammar pieces

class TestGrammar:
    def test_numbers(self):
        doc = (
            "param A = 1e-6; param B = .5; param C = 5.; param D = 0.25e2;\n"
            'state 1 "s" class = operational;\n'
        )
        m = parse(doc)
        assert dict(m.params) == {"A": 1e-6, "B": 0.5, "C": 5.0, "D": 25.0}

    def test_comments_and_whitespace(self):
        doc = (
            "# leading comment\n"
            "  param L = 0.5 ;  # trailing comment\n"
            '\tstate 1 "up" class = operational;# dense\n'
            "\n"
        )
        m = parse(doc)
        assert m.params["L"] == 0.5

    def test_expression_precedence(self):
        doc = (
            "param A = 2; param B = 3; param C = 4;\n"
            'state 1 "s" class = operational; state 2 "t" class = fail_safe;\n'
            "trans 1 -> 2 rate = A + B * C;\n"
        )
        m = parse(doc)
        rate = m.transitions[0].rate
        assert rate == Sum(ParamRef("A"), Product(ParamRef("B"), ParamRef("C")))
        assert depmark.evaluate_rate(rate, m.params) == 14.0

    def test_left_associativity(self):
        doc = (
            'state 1 "s" class = operational; state 2 "t" class = fail_safe;\n'
            "trans 1 -> 2 rate = 8 - 4 - 2;\n"
        )
        m = parse(doc)
        assert depmark.evaluate_rate(m.transitions[0].rate, {}) == 2.0

    def test_no_unary_minus(self):
        doc = (
            'state 1 "s" class = operational; state 2 "t" class = fail_safe;\n'
            "trans 1 -> 2 rate = -1;\n"
        )
        with pytest.raises(ModelParseError):
            parse(doc)

    def test_kind_keyword(self, dfwcs):
        kinds = {(t.source, t.target): t.kind for t in dfwcs.transitions}
        assert kinds[(2, 1)] is TransitionKind.REPAIR
        assert kinds[(1, 2)] is TransitionKind.FAILURE

    def test_coverage_flag(self):
        m = parse('param C = 0.5 coverage;\nstate 1 "s" class = operational;\n')
        assert m.coverage == frozenset({"C"})

    def test_option_horizon(self):
        m = parse('state 1 "s" class = operational;\noption horizon = 100;\n')
        assert m.horizon == 100.0

    def test_init_statements(self):
        doc = (
            'state 1 "a" class = operational; state 2 "b" class = fail_safe;\n'
            "init 1 = 0.25; init 2 = 0.75;\n"
        )
        m = parse(doc)
        assert m.initial == {1: 0.25, 2: 0.75}


# ---------------------------------------------------------------------------
# errors

def kinds_of(exc: ModelParseError) -> set[ParseErrorKind]:
    return {e.kind for e in exc.errors}


class TestParseErrors:
    def test_unterminated_string_is_lexical(self):
        with pytest.raises(ModelParseError) as exc:
            parse('state 1 "oops\n')
        assert ParseErrorKind.LEXICAL in kinds_of(exc.value)

    def test_unexpected_character_is_lexical(self):
        with pytest.raises(ModelParseError) as exc:
            parse("param A = 1 @;\n")
        assert ParseErrorKind.LEXICAL in kinds_of(exc.value)

    def test_missing_semicolon_is_syntactic(self):
        with pytest.raises(ModelParseError) as exc:
            parse('state 1 "s" class = operational\n')
        assert ParseErrorKind.SYNTACTIC in kinds_of(exc.value)

    def test_error_carries_position(self):
        with pytest.raises(ModelParseError) as exc:
            parse('state 1 "s" class = operational;\nstate x "t" class = fail_safe;\n')
        err = next(e for e in exc.value.errors if e.kind is ParseErrorKind.SYNTACTIC)
        assert err.span.line == 2
        assert "2:" in str(exc.value)

    def test_duplicate_state_is_semantic(self):
        doc = 'state 1 "a" class = operational;\nstate 1 "b" class = fail_safe;\n'
        with pytest.raises(ModelParseError) as exc:
            parse(doc)
        assert ParseErrorKind.SEMANTIC in kinds_of(exc.value)

    def test_duplicate_param_is_semantic(self):
        doc = 'param A = 1; param A = 2;\nstate 1 "s" class = operational;\n'
        with pytest.raises(ModelParseError) as exc:
            parse(doc)
        assert ParseErrorKind.SEMANTIC in kinds_of(exc.value)

    def test_undeclared_trans_endpoint(self):
        doc = 'state 1 "s" class = operational;\ntrans 1 -> 2 rate = 1;\n'
        with pytest.raises(ModelParseError):
            parse(doc)

    def test_undeclared_param_in_rate(self):
        doc = (
            'state 1 "s" class = operational; state 2 "t" class = fail_safe;\n'
            "trans 1 -> 2 rate = MISSING;\n"
        )
        with pytest.raises(ModelParseError):
            parse(doc)

    def test_undeclared_init_state(self):
        doc = 'state 1 "s" class = operational;\ninit 7 = 1.0;\n'
        with pytest.raises(ModelParseError):
            parse(doc)

    def test_no_states(self):
        with pytest.raises(ModelParseError) as exc:
            parse("param A = 1;\n")
        assert any("no states" in e.message for e in exc.value.errors)

    def test_no_operational_state_for_default_init(self):
        with pytest.raises(ModelParseError):
            parse('state 1 "s" class = fail_safe;\n')

    def test_unknown_option(self):
        with pytest.raises(ModelParseError) as exc:
            parse('state 1 "s" class = operational;\noption color = 3;\n')
        assert ParseErrorKind.SEMANTIC in kinds_of(exc.value)

    def test_non_finite_horizon_is_semantic(self):
        with pytest.raises(ModelParseError) as exc:
            parse('state 1 "s" class = operational;\noption horizon = 1e999;\n')
        assert ParseErrorKind.SEMANTIC in kinds_of(exc.value)

    def test_recovery_reports_multiple_errors(self):
        doc = (
            "param = 1;\n"
            'state 1 "s" class = operational;\n'
            "trans 1 -> rate = 2;\n"
        )
        with pytest.raises(ModelParseError) as exc:
            parse(doc)
        assert len(exc.value.errors) >= 2

    def test_carriage_return_in_label_is_semantic(self):
        # the lexer lets a string hold '\r', but a State label may not
        with pytest.raises(ModelParseError) as exc:
            parse('state 1 "a\rb" class = operational;')
        assert str(exc.value) == "1:9: semantic: state label contains a carriage return"

    @pytest.mark.parametrize("statement, column", [
        ("state {} \"b\" class = fail_safe;", 7),
        ("trans 1 -> {} rate = 1;", 12),
        ("init {} = 1;", 6),
    ])
    def test_state_id_past_int_digit_limit(self, statement, column):
        # int() refuses more than 4300 decimal digits; the id is refused
        # at its own span instead of escaping as a ValueError
        huge = "9" * 5000
        with pytest.raises(ModelParseError) as exc:
            parse('state 1 "a" class = operational;\n' + statement.format(huge) + "\n")
        (err,) = exc.value.errors
        assert (err.span.line, err.span.column, err.span.length) == (2, column, 5000)
        assert err.kind is ParseErrorKind.SYNTACTIC
        assert err.message.endswith("found 5000 digits")

    def test_value_domain_defects_pass_parse(self):
        # init sums and coverage ranges are validation business, not syntax
        doc = (
            "param C = 1.5 coverage;\n"
            'state 1 "s" class = operational;\n'
            "init 1 = 0.5;\n"
        )
        m = parse(doc)
        report = depmark.validate(m)
        codes = {f.code for f in report.fatal}
        assert "coverage-domain" in codes
        assert "initial-distribution" in codes


# ---------------------------------------------------------------------------
# properties

class TestProperties:
    @given(doc=models())
    def test_generated_models_round_trip(self, doc):
        model = parse(doc)
        assert parse(serialize(model)) == model

    @given(expr=_exprs(frozenset({"A", "B"})))
    def test_expression_print_parse_identity(self, expr):
        doc = (
            "param A = 1; param B = 2;\n"
            'state 1 "s" class = operational; state 2 "t" class = fail_safe;\n'
            f"trans 1 -> 2 rate = {expr};\n"
        )
        assert parse(doc).transitions[0].rate == expr

    @given(text=st.text(max_size=200))
    def test_parse_is_total(self, text):
        try:
            parse(text)
        except ModelParseError:
            pass  # the only exception the contract allows

    @given(text=st.text(alphabet='paramstein "=;->#*+()0123456789.eE_\n', max_size=120))
    def test_parse_is_total_near_grammar(self, text):
        try:
            parse(text)
        except ModelParseError:
            pass

    @given(label=st.text(alphabet='ab\r\t"#\n ', max_size=12))
    def test_parse_is_total_on_any_label(self, label):
        try:
            parse(f'state 1 "{label}" class = operational;')
        except ModelParseError:
            pass
