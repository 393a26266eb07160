"""Metrics, sweeps, composition, requirement checks, table audits."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import depmark
from depmark import (
    AuditReport,
    DependabilityMetrics,
    LengthMismatchError,
    Method,
    ParameterDomainError,
    RELIABILITY_TARGET,
    SolverConfig,
    TimeMismatchError,
    UNSAFE_CEILING,
    audit_table,
    bundled_table_path,
    check_requirements,
    compose_independent,
    export_timeseries,
    metrics,
    metrics_rows,
    solve_grid,
    sweep,
)

TABLE3_GRID = [0.90, 0.92, 0.94, 0.95, 0.96, 0.98, 0.99, 0.999, 1]


def load_table3() -> list[dict[str, float]]:
    with open(bundled_table_path("table3.csv"), encoding="utf-8") as fh:
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        return [{k: float(v) for k, v in row.items()} for row in reader]


def _metric(t=1.0, r=0.9, pfs=0.06, pfu=0.04) -> DependabilityMetrics:
    return DependabilityMetrics(
        t=t, reliability=r, safety=r + pfs, prob_fail_safe=pfs, prob_fail_unsafe=pfu
    )


class TestMetrics:
    def test_hand_distribution(self, dfwcs):
        dist = [0.5, 0.2, 0.1, 0.05, 0.05, 0.06, 0.04]
        m = metrics(dist, dfwcs, 10.0)
        assert m.t == 10.0
        assert m.reliability == pytest.approx(0.9, abs=1e-15)
        assert m.prob_fail_safe == 0.06
        assert m.prob_fail_unsafe == 0.04
        assert m.safety == m.reliability + m.prob_fail_safe  # exact by construction

    def test_initial_distribution_is_perfect(self, dfwcs):
        m = metrics(dfwcs.initial_vector(), dfwcs, 0.0)
        assert m.reliability == 1.0
        assert m.safety == 1.0
        assert m.prob_fail_unsafe == 0.0

    def test_length_mismatch(self, dfwcs):
        with pytest.raises(LengthMismatchError):
            metrics([0.5, 0.5], dfwcs, 0.0)

    def test_metrics_rows(self, dfwcs):
        traj = solve_grid(dfwcs, SolverConfig(), [0.0, 100.0, 4380.0])
        rows = metrics_rows(traj, dfwcs)
        assert [m.t for m in rows] == [0.0, 100.0, 4380.0]
        assert rows[0].reliability == 1.0
        for m in rows:
            assert abs(m.reliability + m.prob_fail_safe + m.prob_fail_unsafe - 1.0) <= 1e-9

    def test_as_row(self):
        assert _metric().as_row() == (1.0, 0.9, 0.9 + 0.06, 0.06, 0.04)


class TestSweep:
    def test_monotone_in_coverage(self, dfwcs):
        results = sweep(dfwcs, "C", TABLE3_GRID, 4380.0)
        values = [row.value for row in results]
        assert values == sorted(values)
        rs = [row.metrics.reliability for row in results]
        pfus = [row.metrics.prob_fail_unsafe for row in results]
        assert all(a <= b for a, b in zip(rs, rs[1:]))
        assert all(a >= b for a, b in zip(pfus, pfus[1:]))
        assert pfus[-1] == 0.0  # perfect coverage cannot reach the unsafe state

    def test_input_order_does_not_matter(self, dfwcs):
        forward = sweep(dfwcs, "C", [0.9, 0.95, 1.0], 100.0)
        backward = sweep(dfwcs, "C", [1.0, 0.9, 0.95], 100.0)
        assert forward == backward

    def test_error_is_prefixed_with_offending_value(self, dfwcs):
        with pytest.raises(ParameterDomainError) as exc:
            sweep(dfwcs, "C", [0.9, 1.2], 100.0)
        assert str(exc.value).startswith("C=1.2:")

    def test_unknown_parameter(self, dfwcs):
        with pytest.raises(depmark.UnknownParameterError):
            sweep(dfwcs, "NOPE", [1.0], 100.0)

    @given(
        values=st.lists(
            st.floats(min_value=0.9, max_value=1.0, allow_nan=False),
            min_size=2, max_size=5, unique=True,
        )
    )
    def test_monotonicity_property(self, values):
        dfwcs = depmark.load_model(depmark.bundled_model_path("dfwcs.mdl"))
        results = sweep(dfwcs, "C", values, 500.0)
        rs = [row.metrics.reliability for row in results]
        pfus = [row.metrics.prob_fail_unsafe for row in results]
        assert all(a <= b + 1e-12 for a, b in zip(rs, rs[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(pfus, pfus[1:]))


class TestRequirements:
    def test_thresholds(self):
        assert RELIABILITY_TARGET == 0.99
        assert UNSAFE_CEILING == 1e-3

    def test_inclusive_boundaries(self):
        on_the_line = _metric(r=0.99, pfs=0.0, pfu=1e-3)
        check = check_requirements(on_the_line)
        assert check.reliability_ok and check.unsafe_ok and check.ok
        assert check.horizon == on_the_line.t

    def test_just_below_reliability(self):
        r = math.nextafter(0.99, 0.0)
        assert not check_requirements(_metric(r=r, pfs=0.0, pfu=0.0)).reliability_ok

    def test_just_above_ceiling(self):
        pfu = math.nextafter(1e-3, 1.0)
        check = check_requirements(_metric(r=1.0, pfs=0.0, pfu=pfu))
        assert check.reliability_ok and not check.unsafe_ok and not check.ok


class TestCompose:
    def test_formulas(self):
        a = _metric(r=0.9, pfs=0.06, pfu=0.04)
        b = _metric(r=0.8, pfs=0.15, pfu=0.05)
        c = compose_independent(a, b)
        assert c.reliability == 0.9 * 0.8
        assert c.prob_fail_unsafe == 0.04 + 0.05 - 0.04 * 0.05
        assert c.safety == 1.0 - c.prob_fail_unsafe
        assert c.prob_fail_safe == c.safety - c.reliability

    def test_time_mismatch(self):
        with pytest.raises(TimeMismatchError):
            compose_independent(_metric(t=1.0), _metric(t=2.0))

    def test_perfect_identity(self):
        perfect = _metric(r=1.0, pfs=0.0, pfu=0.0)
        a = _metric(r=0.9, pfs=0.06, pfu=0.04)
        c = compose_independent(a, perfect)
        assert c.reliability == a.reliability
        assert c.prob_fail_unsafe == a.prob_fail_unsafe
        assert c.safety == 1.0 - a.prob_fail_unsafe

    @given(
        ra=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        rb=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        pa=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        pb=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_commutative_exactly(self, ra, rb, pa, pb):
        a = _metric(r=ra, pfs=0.0, pfu=pa)
        b = _metric(r=rb, pfs=0.0, pfu=pb)
        ab = compose_independent(a, b)
        ba = compose_independent(b, a)
        assert ab == ba

    @given(
        ps=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=3, max_size=3,
        )
    )
    def test_associative_within_tolerance(self, ps):
        ms = [_metric(r=1.0 - p, pfs=0.0, pfu=p) for p in ps]
        left = compose_independent(compose_independent(ms[0], ms[1]), ms[2])
        right = compose_independent(ms[0], compose_independent(ms[1], ms[2]))
        assert left.prob_fail_unsafe == pytest.approx(right.prob_fail_unsafe, abs=1e-15)
        assert left.reliability == pytest.approx(right.reliability, abs=1e-15)

    def test_dfwcs_composition_regression(self, dfwcs, dfwcs_pid):
        # value recorded from a from-scratch solve of both chains at
        # C = 0.9, t = 4380, composed with the serial-system formulas
        cfg = SolverConfig()
        a = metrics(depmark.solve_at(dfwcs, cfg, 4380.0), dfwcs, 4380.0)
        b = metrics(depmark.solve_at(dfwcs_pid, cfg, 4380.0), dfwcs_pid, 4380.0)
        c = compose_independent(a, b)
        assert c.prob_fail_unsafe == pytest.approx(0.0023187072024973693, rel=1e-10)


class TestAudit:
    def test_shipped_table_flags_exactly_one_row(self):
        report = audit_table(load_table3())
        assert isinstance(report, AuditReport)
        assert len(report.rows) == 9
        flagged = report.flagged
        assert len(flagged) == 1
        assert flagged[0].param == 0.9
        assert flagged[0].total_defect == pytest.approx(1.44e-3, abs=1e-5)
        assert not flagged[0].total_ok and flagged[0].closure_ok
        assert report.rows[-1].param == 1.0 and report.rows[-1].ok

    def test_closure_holds_on_every_shipped_row(self):
        report = audit_table(load_table3())
        for row in report.rows:
            assert abs(row.closure_defect) <= 1e-6

    def test_accepts_sequences(self):
        report = audit_table([(0.9, 0.9, 0.95, 0.05, 0.05)])
        assert report.ok

    def test_closure_violation_flagged(self):
        report = audit_table([{"param": 0.5, "R": 0.9, "S": 0.95, "Pfs": 0.01, "Pfu": 0.05}])
        row = report.rows[0]
        assert not row.closure_ok and row.total_ok and not report.ok

    def test_total_violation_flagged(self):
        report = audit_table([{"param": 0.5, "R": 0.9, "S": 0.95, "Pfs": 0.05, "Pfu": 0.1}])
        row = report.rows[0]
        assert row.closure_ok and not row.total_ok

    def test_defects_are_signed(self):
        report = audit_table([{"param": 0.5, "R": 0.9, "S": 0.95, "Pfs": 0.05, "Pfu": 0.01}])
        assert report.rows[0].total_defect == pytest.approx(-0.04, abs=1e-12)


class TestExportTimeseries:
    def test_header_and_shape(self, dfwcs):
        traj = solve_grid(dfwcs, SolverConfig(), [0.0, 10.0])
        header, rows = export_timeseries(traj, dfwcs)
        assert header == [
            "t", "processors_ok", "one_processor_down", "both_processors_down",
            "pids_ok", "one_pid_down", "fail_safe", "fail_unsafe",
            "R", "S", "Pfs", "Pfu",
        ]
        assert len(rows) == 2 and len(rows[0]) == len(header)
        assert rows[0][0] == 0.0 and rows[0][1] == 1.0

    def test_duplicate_labels_get_suffix(self):
        doc = (
            'state 1 "x" class = operational;\n'
            'state 2 "x" class = fail_safe;\n'
            "trans 1 -> 2 rate = 0.5;\n"
        )
        model = depmark.parse(doc)
        traj = solve_grid(model, SolverConfig(), [0.0])
        header, _ = export_timeseries(traj, model)
        assert header[1:3] == ["x", "x_2"]

    def test_mass_defect_column(self, dfwcs):
        cfg = SolverConfig(Method.PAPER_LITERAL, dt=1.0)
        traj, _ = depmark.solve_paper_literal(dfwcs, cfg, grid=[0.0, 1.0])
        header, rows = export_timeseries(
            traj, dfwcs, mass_defect=lambda k: 1.0 - float(traj.probs[k].sum())
        )
        assert header[-1] == "mass_defect"
        assert rows[0][-1] == 0.0
        assert rows[1][-1] == pytest.approx(2.64e-6, rel=1e-6)

    def test_mass_defect_column_is_the_callable_verbatim(self, dfwcs):
        cfg = SolverConfig(Method.PAPER_LITERAL, dt=1.0)
        traj, _ = depmark.solve_paper_literal(dfwcs, cfg, grid=[0.0, 1.0, 7.0, 100.0])
        defect = lambda k: 1.0 - float(traj.probs[k].sum())  # noqa: E731
        _, plain = export_timeseries(traj, dfwcs)
        _, rows = export_timeseries(traj, dfwcs, mass_defect=defect)
        assert [row[:-1] for row in rows] == plain
        assert [row[-1] for row in rows] == [defect(k) for k in range(len(traj))]

    # two states in every class, with mass spread over all of them, so
    # the per-class sums really add several entries
    MULTI = (
        'state 1 "a" class = operational;\n'
        'state 2 "b" class = operational;\n'
        'state 3 "c" class = fail_operational;\n'
        'state 4 "d" class = fail_operational;\n'
        'state 5 "e" class = fail_safe;\n'
        'state 6 "f" class = fail_safe;\n'
        'state 7 "g" class = fail_unsafe;\n'
        'state 8 "h" class = fail_unsafe;\n'
        "trans 1 -> 2 rate = 0.3;\n"
        "trans 2 -> 3 rate = 0.2;\n"
        "trans 3 -> 4 rate = 0.7;\n"
        "trans 4 -> 1 rate = 0.1;\n"
        "trans 1 -> 5 rate = 0.05;\n"
        "trans 3 -> 6 rate = 0.11;\n"
        "trans 2 -> 7 rate = 0.013;\n"
        "trans 4 -> 8 rate = 0.07;\n"
    )

    @pytest.mark.parametrize("which", ["dfwcs", "multi"])
    def test_metric_columns_equal_metrics(self, dfwcs, which):
        model = dfwcs if which == "dfwcs" else depmark.parse(self.MULTI)
        grid = [0.0, 0.5, 3.0, 17.0, 250.0] if which == "multi" else [0.0, 10.0, 1000.0, 4380.0]
        traj = solve_grid(model, SolverConfig(), grid)
        _, rows = export_timeseries(traj, model)
        for k, row in enumerate(rows):
            m = metrics(traj.probs[k], model, traj.times[k])
            assert row[-4:] == [m.reliability, m.safety, m.prob_fail_safe, m.prob_fail_unsafe]
            assert row[-3] == row[-4] + row[-2]  # S == R + Pfs exactly
            assert row[0] == m.t and row[1:-4] == traj.probs[k].tolist()

    # nine operational states: numpy may sum a class this long in another
    # order for one vector than for a block, so the block paths must share
    # one reduction to agree
    CHAIN = (
        "param L = 0.4;\n"
        + "".join(f'state {k} "s{k}" class = operational;\n' for k in range(1, 10))
        + 'state 10 "down" class = fail_unsafe;\n'
        + "".join(f"trans {k} -> {k + 1} rate = L;\n" for k in range(1, 10))
    )

    def test_block_paths_agree(self):
        model = depmark.parse(self.CHAIN)
        traj = solve_grid(model, SolverConfig(), [0.0, 3.0, 7.5, 20.0])
        _, rows = export_timeseries(traj, model)
        assert [row[-4:] for row in rows] == [list(m.as_row()[1:]) for m in metrics_rows(traj, model)]
        values = [0.1, 0.25, 0.4, 0.9]
        swept = sweep(model, "L", values, 7.5)
        dists = np.array([depmark.solve_at(model.with_params({"L": v}), SolverConfig(), 7.5) for v in values])
        stacked = depmark.Trajectory(times=np.full(len(values), 7.5), probs=dists, ids=model.ids)
        assert [row.metrics for row in swept] == metrics_rows(stacked, model)

    def test_empty_trajectory(self, dfwcs):
        traj = solve_grid(dfwcs, SolverConfig(), [])
        assert export_timeseries(traj, dfwcs)[1] == []
        assert export_timeseries(traj, dfwcs, mass_defect=lambda k: 0.0)[1] == []
