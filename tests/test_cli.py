"""End-to-end CLI tests driven in-process through main(argv)."""

import json
import math

import pytest
from conftest import canary_lambda_value

from hsconvex import cli
from hsconvex.cli import main
from hsconvex.verify import Check, lambda_checks, lambda_consistency_rows


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLambdaCommand:
    def test_kind5_equal_points(self, capsys):
        code, out, _ = run(capsys, "lambda", "--kind", "5",
                           "--theta", "1", "--x", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 0.5

    def test_kind1_with_check(self, capsys):
        code, out, _ = run(capsys, "lambda", "--kind", "1", "--theta", "1",
                           "--x", "2", "--s", "1", "--vartheta", "1",
                           "--rho", "1", "--check")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(3.0 - 4.0 * math.log(2.0),
                                             rel=1e-10)
        assert doc["rel_err"] <= 1e-8

    def test_side_precondition_violation(self, capsys):
        code, _, err = run(capsys, "lambda", "--kind", "1", "--theta", "2",
                           "--x", "1", "--s", "1", "--vartheta", "1",
                           "--rho", "1")
        assert code == 2
        assert "domain error" in err

    def test_missing_parameters(self, capsys):
        code, _, err = run(capsys, "lambda", "--kind", "1",
                           "--theta", "1", "--x", "2")
        assert code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "lambda", "--kind", "5", "--theta", "1",
                           "--x", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("kind,theta,x")
        assert lines[1].split(",")[0] == "5"


class TestHHCommand:
    def test_harmonic_identity(self, capsys):
        code, out, _ = run(capsys, "hh", "--fn", "id", "--a", "1", "--b", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["left"] == pytest.approx(4.0 / 3.0)
        assert doc["middle"] == pytest.approx(2.0 * math.log(2.0), abs=1e-10)
        assert doc["right"] == pytest.approx(1.5)
        assert doc["slack_left"] >= 0.0 and doc["slack_right"] >= 0.0

    def test_arithmetic_variant_allows_zero_endpoint(self, capsys):
        code, out, _ = run(capsys, "hh", "--fn", "pow:2", "--a", "0",
                           "--b", "1", "--variant", "arithmetic")
        assert code == 0
        doc = json.loads(out)
        assert doc["middle"] == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_unknown_function(self, capsys):
        code, _, err = run(capsys, "hh", "--fn", "exp", "--a", "1", "--b", "2")
        assert code == 2
        assert "domain error" in err


# f(u)/u^2 is finite at every node, but K15 panel sums overflow
NON_FINITE_PANEL = [
    ("ostrowski", "--theorem", "T2_5", "--fn", "const:1e308", "--a", "1",
     "--b", "2", "--x", "1.5", "--q", "2"),
    ("hh", "--fn", "const:1e308", "--a", "1", "--b", "2"),
]


class TestOverflow:
    @pytest.mark.parametrize("argv", NON_FINITE_PANEL)
    def test_non_finite_panel_exits_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "numeric error" in err


class TestHostileInput:
    @pytest.mark.parametrize("argv", NON_FINITE_PANEL + [
        # q near 1e4: theta^(2q) overflows inside lambda_value
        ("verify", "--theorem", "T2_6", "--fn", "id", "--a", "1", "--b", "2",
         "--p", "1.0001"),
        ("ostrowski", "--theorem", "T2_3", "--fn", "id", "--a", "1", "--b",
         "2", "--x", "1.5", "--q", "2000", "--M", "1e10"),
        # the running error sum of integrate cancels below zero
        ("hh", "--fn", "pow:0.5", "--a", "0.01", "--b", "100",
         "--tol", "1e-300"),
        # 1.7e11 gate triples: refused before the scan starts
        ("verify", "--theorem", "T2_3", "--fn", "id", "--a", "1", "--b", "2",
         "--q", "1", "--grid-gate", "100000"),
    ])
    def test_clean_exit(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code in (0, 2)
        if code == 2:
            assert out == ""
        else:
            json.loads(out)


class TestOstrowskiCommand:
    def test_classic(self, capsys):
        code, out, _ = run(capsys, "ostrowski", "--theorem", "classic",
                           "--fn", "id", "--a", "1", "--b", "2",
                           "--x", "1.25", "--M", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["rhs"] == pytest.approx(0.3125, rel=1e-12)
        assert doc["hypothesis_ok"] is True
        assert doc["slack"] >= 0.0

    def test_classic_requires_m(self, capsys):
        code, _, err = run(capsys, "ostrowski", "--theorem", "classic",
                           "--fn", "id", "--a", "1", "--b", "2", "--x", "1.25")
        assert code == 2

    def test_t2_3_reference(self, capsys):
        code, out, _ = run(capsys, "ostrowski", "--theorem", "T2_3",
                           "--fn", "id", "--a", "1", "--b", "2",
                           "--x", "1.5", "--s", "1", "--q", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["lhs"] == pytest.approx(abs(1.5 - 2.0 * math.log(2.0)),
                                           abs=1e-9)
        assert doc["rhs"] == pytest.approx(0.2644339286872331, rel=1e-9)

    def test_holder_pair_resolution(self, capsys):
        # --p alone determines q through conjugacy
        code, out, _ = run(capsys, "ostrowski", "--theorem", "T2_6",
                           "--fn", "pow:2", "--a", "1", "--b", "2",
                           "--x", "1.5", "--p", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["p"] == 2.0 and doc["q"] == 2.0
        assert doc["slack"] >= 0.0


class TestVerifyCommand:
    def test_chain_example_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "T2_2",
                           "--fn", "pow:0.5", "--s", "0.5",
                           "--a", "0.25", "--b", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["hypothesis_ok"] is True

    def test_gate_failure_exits_one(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "T2_2",
                           "--fn", "neg", "--a", "1", "--b", "2")
        assert code == 1
        doc = json.loads(out)
        assert doc["pass"] is False
        assert doc["results"] == []
        assert doc["min_slack"] is None

    def test_ostrowski_gate_failure_exits_one(self, capsys):
        # 0.5/sqrt(u) is not harmonically 1-convex, so the T2_3 gate fails
        code, out, _ = run(capsys, "verify", "--theorem", "T2_3",
                           "--fn", "pow:0.5", "--s", "1", "--q", "1",
                           "--a", "1", "--b", "2")
        assert code == 1
        assert json.loads(out)["hypothesis_ok"] is False

    def test_unknown_theorem_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "--theorem", "T9_9",
                           "--fn", "id", "--a", "1", "--b", "2")
        assert code == 2

    def test_missing_q_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "--theorem", "T2_3",
                           "--fn", "id", "--a", "1", "--b", "2")
        assert code == 2
        assert "needs --q" in err

    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "T2_3", "--fn", "id",
                           "--a", "1", "--b", "2", "--s", "1", "--q", "1",
                           "--grid", "5", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theorem,x,a,b,s,q,p,M,lhs,rhs,slack,hypothesis_ok"
        assert len(lines) == 6

    def test_byte_identical_runs(self, capsys):
        argv = ("verify", "--theorem", "T2_4", "--fn", "pow:2", "--a", "1",
                "--b", "2", "--s", "0.5", "--q", "2")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_seed_changes_gate_sampling_not_determinism(self, capsys):
        argv = ("verify", "--theorem", "T2_3", "--fn", "id", "--a", "1",
                "--b", "2", "--s", "1", "--q", "1", "--seed", "11")
        c1, out1, _ = run(capsys, *argv)
        c2, out2, _ = run(capsys, *argv)
        assert c1 == c2 == 0
        assert out1 == out2


class TestOutputFile:
    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "hh", "--fn", "id", "--a", "1", "--b", "2",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["fn"] == "id"


@pytest.fixture
def selftest(battery, monkeypatch, capsys):
    """Run the selftest command on given battery rows, by default the
    session's, so the rendering is tested without running the battery."""
    def run_selftest(*argv, rows=battery):
        monkeypatch.setattr(cli, "run_battery", lambda: rows)
        return run(capsys, "selftest", *argv)
    return run_selftest


class TestSelftestCommand:
    def test_full_run_passes(self, selftest):
        code, out, _ = selftest("--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        names = {c["check"] for c in doc["checks"]}
        assert "lambda_fidelity_kinds_1_4" in names
        assert "ostrowski_matrix_slack" in names
        assert all(c["pass"] for c in doc["checks"])

    def test_impossible_tolerance_fails(self, selftest):
        code, out, _ = selftest("--tol", "1e-30")
        assert code == 1
        assert "FAIL" in out
        # the override replaces err/slack limits only; count rows keep theirs
        _, out, _ = selftest("--tol", "1e-30", "--format", "json")
        counts = [c for c in json.loads(out)["checks"] if c["kind"] == "count_min"]
        assert counts and all(c["pass"] and c["limit"] >= 1.0 for c in counts)

    def test_kind2_canary(self, battery, selftest):
        # the battery's lambda rows, recomputed with a wrong kind-2 front
        # factor, must fail the kind-1..4 fidelity check and nothing else
        rows = lambda_consistency_rows(closed_form=canary_lambda_value)
        canary = {row[0]: Check(*row, 0.0) for row in lambda_checks(rows)}
        code, out, _ = selftest("--format", "json",
                                rows=[canary.get(c.name, c) for c in battery])
        assert code == 1
        doc = json.loads(out)
        failing = [c["check"] for c in doc["checks"] if not c["pass"]]
        assert failing == ["lambda_fidelity_kinds_1_4"]

    def test_table_format(self, selftest):
        code, out, _ = selftest()
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out


class TestParserEdges:
    def test_no_command_exits_two(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["verify", "--help"]) == 0
