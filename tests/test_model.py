"""Core model types: rate expressions, parameters, generator, validation."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import depmark
from depmark import (
    Constant,
    Difference,
    Finding,
    MarkovModel,
    NegativeRateError,
    ParamRef,
    ParameterDomainError,
    ParameterSet,
    Product,
    Severity,
    State,
    StateClass,
    Sum,
    Transition,
    TransitionKind,
    UnknownParameterError,
    NumericFailureError,
    absorbing_states,
    build_generator,
    build_generators,
    evaluate_rate,
    referenced_parameters,
    validate,
)


def tiny_model(**overrides):
    base = dict(
        states=(
            State(1, "up", StateClass.OPERATIONAL),
            State(2, "down", StateClass.FAIL_SAFE),
        ),
        transitions=(Transition(1, 2, Constant(0.5)),),
        params=ParameterSet(),
        initial={1: 1.0},
    )
    base.update(overrides)
    return MarkovModel(**base)


class TestStateClass:
    def test_keyword_round_trip(self):
        for cls in StateClass:
            assert StateClass(cls.value) is cls

    def test_unknown_keyword(self):
        with pytest.raises(ValueError):
            StateClass("nonsense")

    def test_service_delivery_split(self):
        assert StateClass.OPERATIONAL.delivers_service
        assert StateClass.FAIL_OPERATIONAL.delivers_service
        assert not StateClass.FAIL_SAFE.delivers_service
        assert not StateClass.FAIL_UNSAFE.delivers_service


class TestRateExpressions:
    def test_constant_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            Constant(-1.0)
        with pytest.raises(ValueError):
            Constant(float("nan"))
        with pytest.raises(ValueError):
            Constant(float("inf"))

    def test_constant_normalizes_negative_zero(self):
        assert str(Constant(-0.0)) == "0.0"

    def test_param_lookup(self):
        assert ParamRef("L")._eval({"L": 2.5}) == 2.5
        with pytest.raises(UnknownParameterError):
            ParamRef("L")._eval({})

    def test_evaluate_rate_rejects_negative_root(self):
        # 2 * (1 - C) with C above one: negative result at the root
        expr = Product(Constant(2.0), Difference(Constant(1.0), ParamRef("C")))
        with pytest.raises(NegativeRateError):
            evaluate_rate(expr, {"C": 2.0})

    def test_negative_intermediate_is_allowed(self):
        # (1 - C) + C is 1 even when the difference dips negative
        expr = Sum(Difference(Constant(1.0), ParamRef("C")), ParamRef("C"))
        assert evaluate_rate(expr, {"C": 2.0}) == 1.0

    def test_referenced_parameters(self):
        expr = Product(ParamRef("A"), Sum(ParamRef("B"), Constant(1.0)))
        assert referenced_parameters(expr) == frozenset({"A", "B"})

    def test_printer_parenthesizes_only_where_needed(self):
        a, b, c = ParamRef("A"), ParamRef("B"), ParamRef("C")
        assert str(Product(Sum(a, b), c)) == "(A + B) * C"
        assert str(Sum(a, Product(b, c))) == "A + B * C"
        # right-associated same-precedence children keep their parens
        assert str(Difference(a, Sum(b, c))) == "A - (B + C)"
        assert str(Sum(Sum(a, b), c)) == "A + B + C"

    def test_expression_nodes_have_no_instance_dict(self):
        a = ParamRef("A")
        for node in (Constant(1.0), a, Sum(a, a), Difference(a, a), Product(a, a)):
            assert not hasattr(node, "__dict__"), type(node).__name__

    def test_binary_nodes_are_frozen_values(self):
        a, b = ParamRef("A"), Constant(2.0)
        assert Sum(a, b) != Difference(a, b)
        assert hash(Product(a, Sum(a, b))) == hash(Product(ParamRef("A"), Sum(a, Constant(2.0))))
        assert repr(Difference(a, b)) == "Difference(lhs=ParamRef(name='A'), rhs=Constant(value=2.0))"
        tree = Product(Sum(a, b), Difference(b, a))
        assert pickle.loads(pickle.dumps(tree)) == tree
        swapped = dataclasses.replace(tree, lhs=b)
        assert type(swapped) is Product and swapped == Product(b, Difference(b, a))
        with pytest.raises(dataclasses.FrozenInstanceError):
            tree.lhs = b


class TestParameterSet:
    def test_mapping_behaviour(self):
        ps = ParameterSet({"A": 1.0, "B": 2.0})
        assert ps["A"] == 1.0
        assert set(ps) == {"A", "B"}
        assert len(ps) == 2
        assert dict(ps) == {"A": 1.0, "B": 2.0}

    def test_equality_with_plain_mapping(self):
        assert ParameterSet({"A": 1.0}) == {"A": 1.0}
        assert ParameterSet({"A": 1.0}) != {"A": 2.0}

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ParameterDomainError):
            ParameterSet({"A": -1.0})
        with pytest.raises(ParameterDomainError):
            ParameterSet({"A": float("nan")})

    def test_updated_returns_new_set(self):
        ps = ParameterSet({"A": 1.0})
        ps2 = ps.updated({"A": 3.0})
        assert ps["A"] == 1.0 and ps2["A"] == 3.0


class TestStateAndTransition:
    def test_label_constraints(self):
        with pytest.raises(ValueError):
            State(1, "", StateClass.OPERATIONAL)
        with pytest.raises(ValueError):
            State(1, 'has"quote', StateClass.OPERATIONAL)
        with pytest.raises(ValueError):
            State(1, "line\nbreak", StateClass.OPERATIONAL)
        with pytest.raises(ValueError):
            State(-1, "x", StateClass.OPERATIONAL)

    def test_default_transition_kind(self):
        assert Transition(1, 2, Constant(1.0)).kind is TransitionKind.FAILURE


class TestMarkovModel:
    def test_canonical_ordering(self):
        m = MarkovModel(
            states=(
                State(2, "b", StateClass.FAIL_SAFE),
                State(1, "a", StateClass.OPERATIONAL),
            ),
            transitions=(
                Transition(2, 1, Constant(1.0)),
                Transition(1, 2, Constant(2.0)),
            ),
            params=ParameterSet(),
            initial={1: 1.0},
        )
        assert m.ids == (1, 2)
        assert [(t.source, t.target) for t in m.transitions] == [(1, 2), (2, 1)]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            MarkovModel(
                states=(
                    State(1, "a", StateClass.OPERATIONAL),
                    State(1, "b", StateClass.FAIL_SAFE),
                ),
                transitions=(),
                params=ParameterSet(),
                initial={1: 1.0},
            )

    def test_plain_mapping_becomes_a_parameter_set(self):
        m = tiny_model(params={"L": 0.5})
        assert isinstance(m.params, ParameterSet)
        assert m.params == ParameterSet({"L": 0.5})

    def test_initial_vector(self):
        m = tiny_model(initial={2: 0.25, 1: 0.75})
        assert np.array_equal(m.initial_vector(), [0.75, 0.25])

    def test_class_indices(self, dfwcs):
        assert dfwcs.class_indices(StateClass.OPERATIONAL) == (0, 3)
        assert dfwcs.class_indices(StateClass.FAIL_UNSAFE) == (6,)

    def test_with_params_unknown_name(self, dfwcs):
        with pytest.raises(UnknownParameterError):
            dfwcs.with_params({"NOPE": 1.0})

    def test_with_params_coverage_domain(self, dfwcs):
        with pytest.raises(ParameterDomainError):
            dfwcs.with_params({"C": 1.5})
        assert dfwcs.with_params({"C": 1.0}).params["C"] == 1.0

    def test_with_params_checks_names_before_values(self, dfwcs):
        # every name and coverage is checked before any value's domain
        with pytest.raises(UnknownParameterError):
            dfwcs.with_params({"MU": -1.0, "NOPE": 1.0})
        with pytest.raises(ParameterDomainError, match="coverage parameter 'C'"):
            dfwcs.with_params({"MU": -1.0, "C": 1.5})

    def test_six_months_constant(self):
        assert depmark.SIX_MONTHS_HOURS == 4380.0


class TestGenerator:
    def test_dfwcs_shape_and_conservation(self, dfwcs):
        gen = build_generator(dfwcs)
        assert gen.n == 7
        assert np.all(np.abs(gen.entries.sum(axis=1)) <= 1e-12)
        # spot entries against the declared rates
        assert gen.entries[0, 1] == 3.3e-6 * 0.9
        assert gen.entries[1, 0] == 0.013888888888888888
        assert gen.entries[2, 1] == 2 * 0.013888888888888888

    def test_entries_read_only(self, dfwcs):
        gen = build_generator(dfwcs)
        with pytest.raises(ValueError):
            gen.entries[0, 0] = 1.0

    def test_duplicate_transitions_accumulate(self):
        m = tiny_model(
            transitions=(
                Transition(1, 2, Constant(0.25)),
                Transition(1, 2, Constant(0.25)),
            )
        )
        gen = build_generator(m)
        assert gen.entries[0, 1] == 0.5
        assert gen.entries[0, 0] == -0.5

    def test_self_loop_ignored(self):
        m = tiny_model(
            transitions=(
                Transition(1, 2, Constant(0.5)),
                Transition(1, 1, Constant(9.0)),
            )
        )
        gen = build_generator(m)
        assert gen.entries[0, 0] == -0.5

    def test_missing_endpoint_raises(self):
        m = tiny_model(transitions=(Transition(1, 9, Constant(0.5)),))
        with pytest.raises(depmark.DepmarkError):
            build_generator(m)

    @given(
        rates=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=6,
            max_size=6,
        )
    )
    def test_rows_always_sum_to_zero(self, rates):
        states = tuple(
            State(i, f"s{i}", StateClass.OPERATIONAL) for i in (1, 2, 3)
        )
        pairs = [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
        transitions = tuple(
            Transition(a, b, Constant(r)) for (a, b), r in zip(pairs, rates)
        )
        m = MarkovModel(states=states, transitions=transitions,
                        params=ParameterSet(), initial={1: 1.0})
        q = build_generator(m).entries
        assert np.all(np.abs(q.sum(axis=1)) <= 1e-12)
        off_diag = q - np.diag(np.diag(q))
        assert np.all(off_diag >= 0.0)


class TestValidate:
    def test_clean_model(self, toy):
        report = validate(toy)
        assert report.ok
        assert report.fatal == ()

    def test_dfwcs_unreachable_warning(self, dfwcs):
        report = validate(dfwcs)
        assert report.ok
        codes = [f.code for f in report.warnings]
        assert "unreachable-state" in codes

    def test_dangling_transition(self):
        m = tiny_model(transitions=(Transition(1, 9, Constant(0.5)),))
        report = validate(m)
        assert not report.ok
        assert any(f.code == "dangling-state" for f in report.fatal)

    def test_dangling_initial_entry(self):
        # the parser refuses this first: only a model built in Python gets here
        report = validate(tiny_model(initial={1: 0.5, 9: 0.5}))
        assert [(f.code, f.message) for f in report.fatal] == [
            ("dangling-state", "initial distribution references undeclared state 9")
        ]

    def test_unknown_parameter(self):
        m = tiny_model(transitions=(Transition(1, 2, ParamRef("MISSING")),))
        report = validate(m)
        assert any(f.code == "unknown-parameter" for f in report.fatal)

    def test_initial_sum_off(self):
        m = tiny_model(initial={1: 0.5})
        report = validate(m)
        assert any(f.code == "initial-distribution" for f in report.fatal)

    def test_initial_entry_out_of_range(self):
        m = tiny_model(initial={1: 1.5, 2: -0.5})
        report = validate(m)
        assert any(f.code == "initial-distribution" for f in report.fatal)

    def test_coverage_out_of_range(self):
        m = tiny_model(params=ParameterSet({"C": 1.5}), coverage=frozenset({"C"}))
        report = validate(m)
        assert any(f.code == "coverage-domain" for f in report.fatal)

    def test_coverage_undeclared(self):
        m = tiny_model(coverage=frozenset({"C"}))
        report = validate(m)
        assert any(f.code == "coverage-domain" for f in report.fatal)

    def test_self_loop_warning(self):
        m = tiny_model(
            transitions=(Transition(1, 2, Constant(0.5)), Transition(1, 1, Constant(1.0)))
        )
        report = validate(m)
        assert report.ok
        assert any(f.code == "self-loop" for f in report.warnings)

    def test_absorbing_class_outflow_warning(self):
        m = MarkovModel(
            states=(
                State(1, "up", StateClass.OPERATIONAL),
                State(2, "safe", StateClass.FAIL_SAFE),
            ),
            transitions=(
                Transition(1, 2, Constant(0.5)),
                Transition(2, 1, Constant(0.5)),
            ),
            params=ParameterSet(),
            initial={1: 1.0},
        )
        report = validate(m)
        assert any(f.code == "absorbing-class-outflow" for f in report.warnings)

    @pytest.mark.parametrize("keyword, warned", [
        ("operational", False), ("fail_operational", False), ("fail_safe", True), ("fail_unsafe", True),
    ])
    def test_outflow_warning_only_for_classes_out_of_service(self, keyword, warned):
        m = MarkovModel(
            states=(State(1, "up", StateClass.OPERATIONAL), State(2, "other", StateClass(keyword))),
            transitions=(Transition(1, 2, Constant(0.5)), Transition(2, 1, Constant(0.5))),
            params=ParameterSet(),
            initial={1: 1.0},
        )
        codes = [f.code for f in validate(m).warnings]
        assert codes == (["absorbing-class-outflow"] if warned else [])

    def test_fatal_sorted_first(self):
        m = tiny_model(
            transitions=(Transition(1, 1, Constant(1.0)), Transition(1, 9, Constant(0.5))),
        )
        report = validate(m)
        severities = [f.severity for f in report.findings]
        assert severities == sorted(
            severities, key=lambda s: 0 if s is Severity.FATAL else 1
        )

    def test_finding_is_frozen(self):
        f = Finding(Severity.WARNING, "x", "y")
        with pytest.raises(AttributeError):
            f.code = "z"


class TestAbsorbingStates:
    def test_dfwcs(self, dfwcs):
        assert absorbing_states(dfwcs) == (6, 7)

    def test_toy(self, toy):
        assert absorbing_states(toy) == (2,)

    def test_self_loop_does_not_count_as_outflow(self):
        m = tiny_model(
            transitions=(Transition(1, 2, Constant(0.5)), Transition(2, 2, Constant(1.0)))
        )
        assert absorbing_states(m) == (2,)


class TestGeneratorAssembly:
    @staticmethod
    def _loop_generator(model):
        # entry by entry, the diagonal from each row's off-diagonal sum
        n = model.n
        q = np.zeros((n, n))
        for tr in model.transitions:
            i, j = model.index_of(tr.source), model.index_of(tr.target)
            if i != j:
                q[i, j] += depmark.evaluate_rate(tr.rate, model.params)
        for i in range(n):
            q[i, i] = -(q[i].sum() - q[i, i])
        return q

    def test_matches_entry_by_entry_assembly(self, dfwcs, dfwcs_pid, toy):
        models = [dfwcs, dfwcs_pid, toy, dfwcs.with_params({"MU": 6.0})]
        models += [dfwcs.with_params({"C": c}) for c in np.linspace(0.9, 1.0, 50)]
        for model in models:
            assert np.array_equal(build_generator(model).entries, self._loop_generator(model))

    def test_missing_state_message(self):
        m = tiny_model(transitions=(Transition(1, 2, Constant(0.5)), Transition(1, 9, Constant(0.5))))
        with pytest.raises(depmark.DepmarkError, match="transition references a missing state.*9"):
            build_generator(m)

    def test_unknown_parameter_is_not_a_missing_state(self):
        m = tiny_model(transitions=(Transition(1, 2, ParamRef("NOPE")),))
        with pytest.raises(depmark.UnknownParameterError):
            build_generator(m)


class TestStateCap:
    @staticmethod
    def _chain(states):
        return depmark.parse(
            "param L = 0.4;\n"
            + "".join(f'state {k} "s{k}" class = operational;\n' for k in range(1, states + 1))
            + "".join(f"trans {k} -> {k + 1} rate = L;\n" for k in range(1, states))
        )

    def test_boundary(self, monkeypatch):
        monkeypatch.setattr(depmark.model, "STATE_CAP", 12)
        at_cap = self._chain(12)
        assert build_generator(at_cap).n == 12
        assert depmark.solve_at(at_cap, depmark.SolverConfig(), 3.0).shape == (12,)
        beyond = self._chain(13)
        for build in (build_generator, build_generators, lambda m: build_generators(m, "L", [0.1, 0.2])):
            with pytest.raises(NumericFailureError, match="13 states, beyond the cap of 12"):
                build(beyond)

    def test_default_cap(self):
        assert depmark.model.STATE_CAP == 1000


class TestGeneratorStack:
    def test_values_checked_as_with_params_checks_them(self, dfwcs):
        cases = [
            ("NOPE", [1.0], UnknownParameterError),
            ("C", [0.5, 1.5], ParameterDomainError),
            ("C", [math.nan], ParameterDomainError),
            ("MU", [0.1, -1.0], ParameterDomainError),
            ("MU", [math.inf], ParameterDomainError),
        ]
        for param, values, kind in cases:
            with pytest.raises(kind) as stacked:
                build_generators(dfwcs, param, values)
            with pytest.raises(kind) as alone:
                dfwcs.with_params({param: values[-1]})
            assert str(stacked.value) == str(alone.value)

    def test_first_bad_rate_reported_as_alone(self):
        # A - B is negative below B, and A * A * B overflows to inf at A = 1e300
        m = depmark.parse(
            "param A = 1; param B = 0.5;\n"
            'state 1 "up" class = operational;\nstate 2 "down" class = fail_safe;\n'
            "trans 1 -> 2 rate = A - B;\ntrans 2 -> 1 rate = A * A * B;\n"
        )
        for values, bad in (([0.7, 0.2, 0.1], 0.2), ([1.0, 1e300], 1e300)):
            with pytest.raises(NegativeRateError) as stacked:
                build_generators(m, "A", values)
            with pytest.raises(NegativeRateError) as alone:
                build_generator(m.with_params({"A": bad}))
            assert str(stacked.value) == str(alone.value)


class TestOwnedRules:
    """Rules that MarkovModel and ParameterSet take from their owners."""

    def test_with_params_keeps_every_other_field(self):
        model = tiny_model(
            params=ParameterSet({"C": 0.5, "L": 1.0}),
            initial={1: 0.25, 2: 0.75},
            coverage=frozenset({"C"}),
            horizon=100.0,
        )
        varied = model.with_params({"L": 2.0})
        names = [f.name for f in dataclasses.fields(MarkovModel)]
        assert "params" in names and len(names) > 1
        for name in names:
            if name != "params":
                assert getattr(varied, name) == getattr(model, name), name
        assert varied.params == {"C": 0.5, "L": 2.0}
        assert varied.index_of(2) == 1
        with pytest.raises(ParameterDomainError):
            varied.with_params({"C": 1.5})

    def test_parameter_set_compares_as_a_mapping(self):
        ps = ParameterSet({"A": 1.0, "B": 2.0})
        assert ps == ParameterSet({"B": 2.0, "A": 1.0})
        assert ps == {"A": 1.0, "B": 2.0}
        assert {"A": 1.0, "B": 2.0} == ps
        assert ps != ParameterSet({"A": 1.0})
        assert ps != [("A", 1.0), ("B", 2.0)]
        assert ps != "AB"
        with pytest.raises(TypeError):
            hash(ps)
