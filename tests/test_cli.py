"""Command line contract: flags, formats, exit codes, reproducibility."""

import csv
import hashlib
import importlib
import io
import json
import math
import subprocess
import sys

import pytest

import depmark
import depmark.cli as cli
from depmark.cli import main

DFWCS = str(depmark.bundled_model_path("dfwcs.mdl"))
TOY = str(depmark.bundled_model_path("toy_twostate.mdl"))
TABLE3 = str(depmark.bundled_table_path("table3.csv"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(out: str) -> list[dict[str, str]]:
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def manifest(out: str) -> dict[str, str]:
    pairs = {}
    for line in out.splitlines():
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition(": ")
        pairs[key] = value
    return pairs


class TestValidate:
    def test_clean_model_with_warning(self, capsys):
        code, out, err = run(capsys, "validate", DFWCS)
        assert code == 0
        assert "unreachable-state" in out
        assert "ok: 7 states, 13 transitions" in out

    def test_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.mdl"
        bad.write_text('state 1 "up" class = operational\n')
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "syntactic" in err and ":" in err

    def test_missing_file_exits_2(self, capsys):
        code, out, err = run(capsys, "validate", "/no/such/file.mdl")
        assert code == 2

    def test_fatal_finding_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "halfinit.mdl"
        bad.write_text(
            'state 1 "up" class = operational;\n'
            "init 1 = 0.5;\n"
        )
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 1
        assert "initial-distribution" in out


class TestSolve:
    def test_toy_single_row(self, capsys):
        code, out, err = run(capsys, "solve", TOY, "--at", "2")
        assert code == 0
        rows = data_rows(out)
        assert len(rows) == 1
        assert rows[0]["t"] == "2"
        assert float(rows[0]["down"]) == pytest.approx(0.632121, abs=5e-7)
        assert rows[0]["Pfu"] == "0"

    def test_manifest_embedded(self, capsys):
        code, out, _ = run(capsys, "solve", TOY, "--at", "2")
        info = manifest(out)
        assert info["command"] == "solve"
        assert info["version"] == depmark.__version__
        digest = hashlib.sha256(open(TOY, "rb").read()).hexdigest()
        assert info["input"] == f"{TOY} sha256={digest}"
        assert info["solver"] == "method=uniformization eps=1e-12"
        assert info["at"] == "2"

    def test_set_override_recorded_and_applied(self, capsys):
        code, out, _ = run(capsys, "solve", DFWCS, "--at", "4380", "--set", "C=0.999")
        assert code == 0
        info = manifest(out)
        assert info["set"] == "C=0.999"
        row = data_rows(out)[0]
        # published table lists R = 0.999849 for this coverage; the
        # recomputed chain gives a different value, reported not asserted
        assert 0.99 <= float(row["R"]) <= 1.0

    def test_grid_expansion_inclusive(self, capsys):
        code, out, _ = run(capsys, "solve", TOY, "--at", "0")
        assert code == 0
        code, out, _ = run(capsys, "solve", DFWCS, "--grid", "0:4380:20")
        assert code == 0
        rows = data_rows(out)
        assert len(rows) == 220
        assert rows[0]["t"] == "0"
        assert rows[-1]["t"] == "4380"

    def test_grid_misaligned_stop_excluded(self, capsys):
        code, out, _ = run(capsys, "solve", TOY, "--grid", "0:10:3")
        assert code == 0
        assert [r["t"] for r in data_rows(out)] == ["0", "3", "6", "9"]

    def test_byte_determinism(self, capsys):
        args = ("solve", DFWCS, "--grid", "0:1000:100", "--set", "C=0.95")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "solve", TOY, "--at", "2", "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"manifest", "columns", "rows"}
        assert doc["manifest"]["command"] == "solve"
        assert doc["columns"][0] == "t"
        assert doc["rows"][0]["t"] == 2.0
        assert doc["rows"][0]["down"] == pytest.approx(1 - 2.718281828459045**-1.0)

    @pytest.mark.parametrize("labels, header", [
        # "R" is a metric column and "x_3" the name the second "x" takes
        (("R", "x", "x", "x_3"), "t,R_1,x,x_3,x_3_4,R,S,Pfs,Pfu"),
        # the second "x" finds "x_3" taken too, and "mass_defect" is reserved
        (("x", "x_3", "x", "mass_defect"), "t,x,x_3,x_3_3,mass_defect_4,R,S,Pfs,Pfu"),
    ])
    def test_taken_column_names_get_id_suffixes(self, capsys, tmp_path, labels, header):
        model = tmp_path / "clash.mdl"
        classes = ("operational", "fail_operational", "fail_safe", "fail_unsafe")
        model.write_text(
            "".join(f'state {k} "{label}" class = {cls};\n' for k, (label, cls) in enumerate(zip(labels, classes), 1))
            + "trans 1 -> 2 rate = 0.5;\ntrans 2 -> 3 rate = 0.2;\ntrans 2 -> 4 rate = 0.1;\n"
        )
        code, out, _ = run(capsys, "solve", str(model), "--at", "1")
        assert code == 0
        assert [ln for ln in out.splitlines() if not ln.startswith("#")][0] == header
        code, out, _ = run(capsys, "solve", str(model), "--at", "1", "--output", "json")
        row = json.loads(out)["rows"][0]
        assert ",".join(row) == header
        state1 = header.split(",")[1]
        assert row[state1] == pytest.approx(math.exp(-0.5))
        assert row["R"] == pytest.approx(row[state1] + row[header.split(",")[2]])

    @pytest.mark.parametrize("flags, key, recorded", [
        (["--at", "4380.0000001"], "at", "4380.0000001"),
        (["--at", "4380.000000000001"], "at", "4380.000000000001"),
        (["--at", "0.1"], "at", "0.1"),
        (["--at", "1", "--set", "C=0.1234567890123"], "set", "C=0.1234567890123"),
        (["--at", "1", "--set", "C=0.95"], "set", "C=0.95"),
        (["--at", "1", "--eps", "1.0000000001e-12"], "solver", "method=uniformization eps=1.0000000001e-12"),
        (["--at", "1", "--method", "euler", "--dt", "0.1000000001"], "solver", "method=euler dt=0.1000000001"),
    ])
    def test_manifest_records_settings_that_read_back_exactly(self, capsys, flags, key, recorded):
        code, out, _ = run(capsys, "solve", DFWCS, *flags)
        assert code == 0
        assert manifest(out)[key] == recorded

    def test_paper_literal_emits_defect_column(self, capsys):
        code, out, _ = run(
            capsys, "solve", DFWCS, "--at", "3", "--method", "paper-literal"
        )
        assert code == 0
        info = manifest(out)
        assert "max_mass_defect" in info
        row = data_rows(out)[0]
        assert row["processors_ok"] == "0.99999109"
        assert float(row["mass_defect"]) == pytest.approx(7.919976477754886e-06, rel=1e-9)

    def test_paper_literal_misaligned_time_exits_2(self, capsys):
        code, _, err = run(
            capsys, "solve", DFWCS, "--at", "10.5", "--method", "paper-literal"
        )
        assert code == 2
        assert "multiple of dt" in err

    def test_paper_literal_foreign_model_exits_1(self, capsys):
        code, _, err = run(capsys, "solve", TOY, "--at", "2", "--method", "paper-literal")
        assert code == 1

    def test_euler_guard_exits_3(self, capsys):
        code, _, err = run(
            capsys, "solve", DFWCS, "--at", "100", "--method", "euler", "--dt", "100"
        )
        assert code == 3
        assert "dt" in err

    def test_euler_step_cap_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(depmark.solve, "EULER_STEP_CAP", 10)
        code, _, _ = run(capsys, "solve", DFWCS, "--at", "10", "--method", "euler", "--dt", "1")
        assert code == 0
        for method in ("euler", "paper-literal"):
            code, _, err = run(capsys, "solve", DFWCS, "--at", "11", "--method", method, "--dt", "1")
            assert code == 3
            assert "steps" in err

    def test_term_cap_exits_3(self, capsys, monkeypatch):
        # toy L = 0.5: t = 43 needs a 64-row power block, t = 44 one of 128
        monkeypatch.setattr(depmark.solve, "UNIFORMIZATION_TERM_CAP", 64)
        code, _, _ = run(capsys, "solve", TOY, "--at", "43")
        assert code == 0
        code, _, err = run(capsys, "solve", TOY, "--at", "44")
        assert code == 3
        assert "cap" in err

    def test_eps_floor_exits_2(self, capsys):
        # a subnormal eps is refused before any window is sought
        code, out, err = run(capsys, "solve", DFWCS, "--at", "4380", "--eps", "5e-324")
        assert code == 2
        assert out == "" and "eps must be in [1e-300, 1)" in err
        code, out, _ = run(capsys, "solve", DFWCS, "--at", "4380", "--eps", "1e-300")
        assert code == 0
        assert out.splitlines()[-1] == (
            "4380,0.998342135,0.000213485477,2.2823427e-08,0,0,2.89785061e-10,0.00144435591,"
            "0.998555644,0.998555644,2.89785061e-10,0.00144435591"
        )

    def test_solver_flags_are_checked_first(self, capsys, tmp_path):
        # input wrong twice reports the solver flag: the config is built
        # before the model is read, overridden or validated
        missing = str(tmp_path / "missing.mdl")
        for argv in (
            ["solve", DFWCS, "--at", "1", "--set", "NOPE=1", "--eps", "2"],
            ["solve", missing, "--at", "1", "--dt", "-1"],
            ["sweep", DFWCS, "--param", "C", "--values", "0.9", "--at", "1", "--set", "C=7", "--eps", "0"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert ("eps must be" if "--eps" in argv else "dt must be") in err

    def test_state_cap_exits_3(self, capsys, monkeypatch):
        # dfwcs has 7 states: at a cap of 7 it solves, at 6 it is refused
        monkeypatch.setattr(depmark.model, "STATE_CAP", 7)
        code, _, _ = run(capsys, "solve", DFWCS, "--at", "100")
        assert code == 0
        monkeypatch.setattr(depmark.model, "STATE_CAP", 6)
        for argv in (["solve", DFWCS, "--at", "100"],
                     ["sweep", DFWCS, "--param", "C", "--values", "0.9,1", "--at", "100"]):
            code, _, err = run(capsys, *argv)
            assert code == 3
            assert "7 states, beyond the cap of 6" in err

    def test_grid_point_cap_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(depmark.cli, "GRID_POINT_CAP", 5)
        code, out, _ = run(capsys, "solve", TOY, "--grid", "0:4:1")
        assert code == 0
        assert len(data_rows(out)) == 5
        for grid in ("0:5:1", "0:4.5:0.5", "0:1e308:1e-300"):
            code, _, err = run(capsys, "solve", TOY, "--grid", grid)
            assert code == 2
            assert "cap" in err

    def test_nan_distribution_exits_3(self, capsys):
        # expm of Q * 1e300 is all NaN, which must not print as a row
        code, out, err = run(capsys, "solve", DFWCS, "--at", "1e300", "--method", "expm")
        assert code == 3
        assert "nan" not in out and "tolerance" in err

    def test_non_finite_dt_exits_2(self, capsys):
        for method, dt in (("paper-literal", "inf"), ("euler", "nan")):
            code, out, err = run(capsys, "solve", DFWCS, "--at", "4380", "--method", method, "--dt", dt)
            assert code == 2
            assert out == "" and "finite" in err

    def test_set_domain_error_exits_1(self, capsys):
        code, _, err = run(capsys, "solve", DFWCS, "--at", "10", "--set", "C=1.5")
        assert code == 1

    def test_set_bad_syntax_exits_2(self, capsys):
        code, _, err = run(capsys, "solve", DFWCS, "--at", "10", "--set", "C")
        assert code == 2

    def test_missing_when_flag_exits_2(self, capsys):
        code, _, err = run(capsys, "solve", DFWCS)
        assert code == 2

    def test_unknown_flag_exits_2(self, capsys):
        code, _, err = run(capsys, "solve", DFWCS, "--at", "1", "--frobnicate")
        assert code == 2

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("solve", ["--at", "1"]),
            ("sweep", ["--param", "C", "--values", "0.9", "--at", "1"]),
            ("simulate", ["--at", "1", "--trials", "10"]),
        ],
        ids=["solve", "sweep", "simulate"],
    )
    def test_fatal_validation_blocks_solve(self, capsys, tmp_path, command, flags):
        bad = tmp_path / "halfinit.mdl"
        bad.write_text('state 1 "up" class = operational;\ninit 1 = 0.5;\n')
        code, out, err = run(capsys, command, str(bad), *flags)
        assert code == 1
        assert out == ""
        assert "initial-distribution" in err


class TestSweep:
    def test_table3_grid(self, capsys):
        code, out, _ = run(
            capsys, "sweep", DFWCS, "--param", "C",
            "--values", "0.90,0.92,0.94,0.95,0.96,0.98,0.99,0.999,1",
            "--at", "4380",
        )
        assert code == 0
        rows = data_rows(out)
        assert len(rows) == 9
        rs = [float(r["R"]) for r in rows]
        assert rs == sorted(rs)
        assert rows[-1]["Pfu"] == "0"

    def test_single_value_matches_solve(self, capsys):
        _, sweep_out, _ = run(
            capsys, "sweep", DFWCS, "--param", "C", "--values", "0.95", "--at", "4380"
        )
        _, solve_out, _ = run(
            capsys, "solve", DFWCS, "--at", "4380", "--set", "C=0.95"
        )
        srow = data_rows(sweep_out)[0]
        vrow = data_rows(solve_out)[0]
        assert [srow[c] for c in ("R", "S", "Pfs", "Pfu")] == [
            vrow[c] for c in ("R", "S", "Pfs", "Pfu")
        ]

    def test_coverage_domain_exits_1(self, capsys):
        code, _, err = run(
            capsys, "sweep", DFWCS, "--param", "C", "--values", "1.2", "--at", "4380"
        )
        assert code == 1
        assert "C=1.2" in err

    def test_bad_values_exits_2(self, capsys):
        code, _, err = run(
            capsys, "sweep", DFWCS, "--param", "C", "--values", "a,b", "--at", "1"
        )
        assert code == 2


class TestSimulate:
    def test_deterministic_output(self, capsys):
        args = ("simulate", TOY, "--at", "2", "--trials", "20000", "--seed", "9")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        rows = data_rows(first)
        assert [r["state"] for r in rows] == ["1", "2"]
        assert sum(int(r["count"]) for r in rows) == 20000

    def test_toy_ci_contains_closed_form(self, capsys):
        _, out, _ = run(capsys, "simulate", TOY, "--at", "2", "--trials", "100000")
        row = next(r for r in data_rows(out) if r["label"] == "down")
        est = float(row["estimate"])
        half = float(row["ci99_half_width"])
        assert est - half <= 0.6321205588285577 <= est + half

    def test_bad_trials_exits_2(self, capsys):
        code, _, _ = run(capsys, "simulate", TOY, "--at", "2", "--trials", "0")
        assert code == 2

    def test_trial_cap_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(depmark.cli, "TRIAL_CAP", 10)
        code, out, _ = run(capsys, "simulate", TOY, "--at", "2", "--trials", "10")
        assert code == 0
        assert sum(int(r["count"]) for r in data_rows(out)) == 10
        code, _, err = run(capsys, "simulate", TOY, "--at", "2", "--trials", "11")
        assert code == 2
        assert "--trials" in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_key_range_exits_2(self, capsys, seed):
        code, out, err = run(capsys, "simulate", DFWCS, "--at", "10", "--trials", "5", "--seed", seed)
        assert code == 2
        assert out == ""
        assert err == f"error: seed must be in [0, 2**64), got {seed}\n"


class TestAudit:
    def test_shipped_table_exits_1(self, capsys):
        code, out, _ = run(capsys, "audit", "--table", TABLE3)
        assert code == 1
        rows = data_rows(out)
        assert len(rows) == 9
        statuses = {r["param"]: r["status"] for r in rows}
        assert statuses["0.9"] == "total"
        assert all(v == "ok" for k, v in statuses.items() if k != "0.9")
        flagged = next(r for r in rows if r["status"] != "ok")
        assert float(flagged["total_defect"]) == pytest.approx(1.44e-3, abs=1e-5)
        assert manifest(out)["flagged"] == "1"

    def test_computed_sweep_passes(self, capsys, tmp_path):
        _, out, _ = run(
            capsys, "sweep", DFWCS, "--param", "C",
            "--values", "0.9,0.95,1", "--at", "4380",
        )
        table = tmp_path / "sweep.csv"
        table.write_text(out)
        code, audit_out, _ = run(capsys, "audit", "--table", str(table))
        assert code == 0
        assert manifest(audit_out)["flagged"] == "0"

    def test_missing_column_exits_2(self, capsys, tmp_path):
        table = tmp_path / "broken.csv"
        table.write_text("param,R,S,Pfs\n0.9,1,1,0\n")
        code, _, err = run(capsys, "audit", "--table", str(table))
        assert code == 2
        assert "Pfu" in err

    def test_crlf_table_digest_of_audited_bytes(self, capsys, tmp_path):
        data = b"# note\r\nparam,R,S,Pfs,Pfu\r\n0.9,0.9,0.95,0.05,0.05\r\n"
        table = tmp_path / "crlf.csv"
        table.write_bytes(data)
        code, out, _ = run(capsys, "audit", "--table", str(table))
        assert code == 0
        assert manifest(out)["input"] == f"{table} sha256={hashlib.sha256(data).hexdigest()}"
        assert [(r["param"], r["status"]) for r in data_rows(out)] == [("0.9", "ok")]

    def test_non_numeric_cell_exits_2(self, capsys, tmp_path):
        table = tmp_path / "broken.csv"
        table.write_text("param,R,S,Pfs,Pfu\n0.9,x,1,0,0\n")
        code, _, _ = run(capsys, "audit", "--table", str(table))
        assert code == 2

    @pytest.mark.parametrize("output", ["csv", "json"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_exits_2(self, capsys, tmp_path, output, cell):
        # strict JSON has no NaN or Infinity, so the table is refused up front
        table = tmp_path / "broken.csv"
        table.write_text(f"param,R,S,Pfs,Pfu\n0.9,0.9,0.95,0.05,0.05\n1,1,1,{cell},0\n")
        code, out, err = run(capsys, "audit", "--table", str(table), "--output", output)
        assert code == 2
        assert out == ""
        assert err == f"error: {table}: non-finite row 3\n"

    @pytest.mark.parametrize("cell, problem", [("x", "non-numeric"), ("inf", "non-finite")])
    def test_bad_row_reported_by_file_line(self, capsys, tmp_path, cell, problem):
        # comment lines count: the bad row is on line 3 of the file
        table = tmp_path / "commented.csv"
        table.write_text(f"# note\nparam,R,S,Pfs,Pfu\n0.9,{cell},1,0,0\n")
        code, out, err = run(capsys, "audit", "--table", str(table))
        assert code == 2
        assert out == ""
        assert err == f"error: {table}: {problem} row 3\n"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "audit", "--table", TABLE3, "--output", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["manifest"]["flagged"] == "1"
        assert len(doc["rows"]) == 9


class TestByteOrderMark:
    BOM = b"\xef\xbb\xbf"

    def test_table_audits_as_without(self, capsys, tmp_path):
        data = self.BOM + open(TABLE3, "rb").read()
        table = tmp_path / "bom.csv"
        table.write_bytes(data)
        code, out, _ = run(capsys, "audit", "--table", TABLE3)
        bom_code, bom_out, err = run(capsys, "audit", "--table", str(table))
        assert bom_code == code == 1, err
        assert data_rows(bom_out) == data_rows(out)
        assert manifest(bom_out)["flagged"] == manifest(out)["flagged"] == "1"
        assert manifest(bom_out)["input"] == f"{table} sha256={hashlib.sha256(data).hexdigest()}"

    def test_model_reads_as_without(self, capsys, tmp_path):
        model = tmp_path / "bom.mdl"
        model.write_bytes(self.BOM + open(DFWCS, "rb").read())
        code, out, err = run(capsys, "validate", str(model))
        assert code == 0, err
        assert "ok: 7 states, 13 transitions" in out
        _, plain, _ = run(capsys, "solve", DFWCS, "--at", "4380")
        code, bom, err = run(capsys, "solve", str(model), "--at", "4380")
        assert code == 0, err
        assert data_rows(bom) == data_rows(plain)
        assert depmark.load_model(model) == depmark.load_model(DFWCS)


class TestRowFormat:
    VALUES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1 + 0.2, 123456789.5, 7]

    def test_numeric_rows_equal_csv_writer_over_fmt(self):
        columns = ["t", 'up, "main"', *(f"c{k}" for k in range(len(self.VALUES) - 2))]
        rows = [self.VALUES, self.VALUES[::-1], tuple(self.VALUES[3:] + self.VALUES[:3])]
        out = io.StringIO()
        cli._emit_table(out, "csv", [("command", "test")], columns, rows)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([cli._fmt(cell) for cell in row])
        assert out.getvalue() == "# command: test\n" + expected.getvalue()
        header = out.getvalue().splitlines()[1]
        assert header.startswith('t,"up, ""main""",c0,')

    def test_string_cells_keep_csv_quoting(self):
        out = io.StringIO()
        cli._emit_table(out, "csv", [], ["label", "x"], [("a,b", 0.5), (1.5, 2)])
        assert out.getvalue() == 'label,x\n"a,b",0.5\n1.5,2\n'


class TestEntryPoints:
    def test_console_script(self):
        proc = subprocess.run(
            ["depmark", "--version"], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == f"depmark {depmark.__version__}"

    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "depmark", "--version"],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == f"depmark {depmark.__version__}"

    def test_version_flag_via_main(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0


class TestSimulationCap:
    def test_jump_round_cap_exits_3(self, capsys, monkeypatch, tmp_path):
        # a unit that fails and is repaired at rate 1 keeps every trial
        # jumping until the mission time
        model = tmp_path / "cycle.mdl"
        model.write_text(
            'state 1 "up" class = operational;\n'
            'state 2 "down" class = fail_safe;\n'
            "trans 1 -> 2 rate = 1;\n"
            "trans 2 -> 1 rate = 1;\n"
        )
        sim_module = importlib.import_module("depmark.simulate")
        monkeypatch.setattr(sim_module, "JUMP_ROUND_CAP", 20)
        code, _, _ = run(capsys, "simulate", str(model), "--at", "1", "--trials", "100")
        assert code == 0
        code, _, err = run(capsys, "simulate", str(model), "--at", "100", "--trials", "100")
        assert code == 3
        assert "rounds" in err


# one case per refusal of a malformed flag value or table: `{tmp}` stands
# for a test directory that holds an empty table and a header-only one
@pytest.mark.parametrize("argv", [
    ["solve", DFWCS, "--grid", "0:10:5"],
    ["solve", DFWCS, "--method", "paper-literal", "--grid", "0:2:1"],
    ["sweep", DFWCS, "--param", "C", "--values", "0.9,0.99", "--at", "100"],
    ["simulate", DFWCS, "--at", "100", "--trials", "100"],
    ["audit", "--table", TABLE3],
], ids=["solve", "solve-literal", "sweep", "simulate", "audit"])
def test_json_rows_have_every_column(capsys, argv):
    code, out, _ = run(capsys, *argv, "--output", "json")
    assert code in (0, 1)
    doc = json.loads(out)
    assert doc["rows"] and all(list(row) == doc["columns"] for row in doc["rows"])


REFUSALS = [
    (["solve", TOY, "--grid", "0:10"], "error: --grid expects start:stop:step, got '0:10'"),
    (["solve", TOY, "--grid", "0:x:1"], "error: --grid expects numeric start:stop:step, got '0:x:1'"),
    (["solve", TOY, "--grid", "0:inf:1"], "error: --grid bounds must be finite"),
    # the `=` form: argparse reads a bare `-1:10:1` as an option
    (["solve", TOY, "--grid=-1:10:1"], "error: --grid start must be >= 0, got -1.0"),
    (["solve", TOY, "--grid", "0:10:0"], "error: --grid step must be positive, got 0.0"),
    (["solve", TOY, "--grid", "10:0:1"], "error: --grid stop 0.0 is below start 10.0"),
    (["sweep", TOY, "--param", "L", "--values", ",", "--at", "1"], "error: --values is empty"),
    (["solve", TOY, "--at", "-1"], "depmark solve: error: argument --at: time must be finite and >= 0, got -1"),
    (["solve", DFWCS, "--at", "1", "--set", "C=abc"], "error: --set C: 'abc' is not a number"),
    (["audit", "--table", "{tmp}/empty.csv"], "error: {tmp}/empty.csv: empty table"),
    (["audit", "--table", "{tmp}/header.csv"], "error: {tmp}/header.csv: table has no data rows"),
]


@pytest.mark.parametrize(
    "argv, last_line", REFUSALS, ids=[" ".join(a for a in argv if a not in (TOY, DFWCS)) for argv, _ in REFUSALS]
)
def test_refusal_exits_2(capsys, tmp_path, argv, last_line):
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "header.csv").write_text("param,R,S,Pfs,Pfu\n")
    code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 2
    assert "Traceback" not in err
    assert err.splitlines()[-1] == last_line.format(tmp=tmp_path)


class TestFirstColumn:
    """Distinct times or parameter values never print as one CSV row."""

    @pytest.mark.parametrize("argv, key", [
        (["sweep", DFWCS, "--param", "C", "--values", "0.9,0.9000000001", "--at", "4380"], "param"),
        (["solve", TOY, "--grid", "100000:100000.0003:0.0001"], "t"),
    ])
    def test_close_values_print_exactly(self, capsys, argv, key):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        cells = [row[key] for row in data_rows(out)]
        assert len(cells) > 1 and len(set(cells)) == len(cells)
        assert all(repr(float(cell)) == cell for cell in cells)
        code, text, err = run(capsys, *argv, "--output", "json")
        assert code == 0, err
        assert [row[key] for row in json.loads(text)["rows"]] == [float(cell) for cell in cells]

    def test_distinct_values_keep_nine_digits(self, capsys):
        code, out, err = run(capsys, "solve", TOY, "--method", "euler", "--dt", "0.5", "--grid", "0:4:0.7")
        assert code == 0, err
        assert [row["t"] for row in data_rows(out)] == ["0", "0.7", "1.4", "2.1", "2.8", "3.5"]

    def test_ints_print_in_full(self):
        out = io.StringIO()
        cli._emit_table(out, "csv", [], ["n", "x"], [(1000000000, 0.5), (-12345678901, 1e20)])
        assert out.getvalue() == "n,x\n1000000000,0.5\n-12345678901,1e+20\n"
        out = io.StringIO()
        cli._emit_table(out, "json", [], ["n", "x"], [(1000000000, 0.5)])
        assert json.loads(out.getvalue())["rows"] == [{"n": 1000000000, "x": 0.5}]
