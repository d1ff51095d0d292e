"""End-to-end CLI tests driven in-process through main(argv)."""

import argparse
import io
import itertools
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from conftest import canary_lambda_value, mp_lambda, rhs_at
from hypothesis import given, settings
from hypothesis import strategies as st

from hsconvex import cli, convexity, verify
from hsconvex.bounds import (OSTROWSKI_THEOREMS, classic_ostrowski_rhs,
                             ostrowski_lhs, resolve_exponents)
from hsconvex.cli import main
from hsconvex.convexity import VIOLATION_TOL, uniform_grid
from hsconvex.numeric import (Interval, arithmetic_mean, derivative,
                              get_function, integrate)
from hsconvex.verify import (VERIFY_THEOREMS, Check, bound_row,
                             hypothesis_gate, lambda_checks,
                             lambda_consistency_rows, verify_theorem)


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

    def test_check_reproduces_the_battery_oracle(self, capsys):
        # one oracle and one tolerance: at each point of the selftest's
        # lambda sweep, --check prints that row's oracle and rel_err
        for row in lambda_consistency_rows():
            argv = ["lambda", "--kind", str(row["kind"]),
                    "--theta", repr(row["theta"]), "--x", repr(row["x"])]
            if row["kind"] != 5:
                argv += ["--s", repr(row["s"]), "--vartheta",
                         repr(row["vartheta"]), "--rho", repr(row["rho"])]
            code, out, _ = run(capsys, *argv, "--check", "--format", "json")
            doc = json.loads(out)
            assert code == 0
            assert [float(doc[k]).hex() for k in ("oracle", "rel_err")] == [
                row[k].hex() for k in ("oracle", "rel_err")], argv

    def test_check_of_a_small_value_is_relative(self, capsys):
        # value 4.4e-6: an absolute 1e-12 oracle tolerance allowed a
        # rel_err of 3e-8 here
        code, out, _ = run(capsys, "lambda", "--kind", "4",
                           "--theta", "7.46844", "--x", "3.9473",
                           "--s", "0.0372661", "--vartheta", "2.93278",
                           "--rho", "2.74505", "--check", "--format", "json")
        assert code == 0
        assert json.loads(out)["rel_err"] <= 1e-8

    @pytest.mark.parametrize("rho", ["100", "1e4"])
    def test_check_of_a_subnormal_value_is_refused(self, capsys, rho):
        # z = 0: the value is 1/((rho + 2) x^2), 9.8e-311 and 1.0e-312,
        # which has too few digits for a relative error
        argv = ("lambda", "--kind", "1", "--theta", "1e154", "--x", "1e154",
                "--s", "1", "--vartheta", "1", "--rho", rho)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and 0.0 < json.loads(out)["value"] < 2.0 ** -1022
        code, out, err = run(capsys, *argv, "--check")
        assert (code, out) == (2, "")
        assert err.startswith("numeric error: the value ")
        assert err.endswith(" underflows below the normal floats, so it has "
                            "no relative error to check\n")

    def test_side_precondition_violation(self, capsys):
        code, _, err = run(capsys, "lambda", "--kind", "1", "--theta", "2",
                           "--x", "1", "--s", "1", "--vartheta", "1",
                           "--rho", "1")
        assert code == 2
        assert "domain error" in err

    @pytest.mark.parametrize("rho", ["1e5", "1e15"])
    def test_large_rho_refused(self, capsys, rho):
        # B(rho + 3/2, 1) from lgamma values of about 1e6 and 3e16 is off
        # by 1.5e-10 and by 77% relative: beta refuses it
        code, out, err = run(capsys, "lambda", "--kind", "1", "--theta", "1",
                             "--x", "2", "--s", "0.5", "--vartheta", "1",
                             "--rho", rho)
        assert (code, out) == (2, "")
        assert err.startswith("numeric error: beta(")

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

    def test_arithmetic_middle_at_tiny_scale(self, capsys):
        # the integral of u over [1e-200, 2e-200], 1.5e-400, underflows;
        # the mean does not
        code, out, _ = run(capsys, "hh", "--variant", "arithmetic", "--fn",
                           "id", "--a", "1e-200", "--b", "2e-200")
        assert code == 0
        doc = json.loads(out)
        assert doc["middle"] == pytest.approx(1.5e-200, rel=1e-15, abs=0.0)
        assert doc["slack_left"] == doc["middle"] - doc["left"]

    def test_unknown_function(self, capsys):
        code, _, err = run(capsys, "hh", "--fn", "exp", "--a", "1", "--b", "2")
        assert code == 2
        assert "domain error" in err

    @pytest.mark.parametrize("argv, members", [
        # a quadrature to an absolute 1e-10 accepted its first panel and
        # printed a middle 1.8e-6 off
        (("--fn", "pow:2.7", "--a", "4.4649e-08", "--b", "4.4649e-05"),
         {"middle": 1.057971160069836e-15}),
        (("--variant", "arithmetic", "--fn", "pow:0.5", "--a", "0",
          "--b", "1e-300"), {"middle": 6.666666666666667e-151}),
        # the product ab is subnormal: its quadrature spent the budget
        (("--fn", "id", "--a", "1e-160", "--b", "2e-160"),
         {"left": 4e-160 / 3.0, "middle": 2e-160 * math.log(2.0),
          "right": 1.5e-160}),
        # ab = 1e310 overflowed: exit 2, `non-finite value at inf`
        (("--fn", "pow:0.5", "--a", "1e150", "--b", "1e160"),
         {"left": 1.4142135623023844e75, "middle": 1.999980000199998e75,
          "right": 5.00005e79}),
    ])
    def test_closed_members_far_from_one(self, capsys, argv, members):
        # each member against mpmath at 40 digits
        code, out, _ = run(capsys, "hh", *argv)
        assert code == 0
        doc = json.loads(out)
        for name, value in members.items():
            assert abs(doc[name] - value) <= 1e-14 * value, name


# f = 1e308 on [1, 2]: its K15 panel sums overflowed, so both requests
# exited 2; ostrowski now prints lhs 0 and rhs 0, and hh 1e308 for every
# member, though f(a) + f(b) overflows
CONST_1E308 = [
    ("ostrowski", "--theorem", "T2_5", "--fn", "const:1e308", "--a", "1",
     "--b", "2", "--x", "1.5", "--q", "2"),
    ("hh", "--fn", "const:1e308", "--a", "1", "--b", "2"),
]


class TestOverflow:
    @pytest.mark.parametrize("argv", [
        # the mean of u^200 on [1, 100] is about 5e395
        ("ostrowski", "--theorem", "T2_5", "--fn", "pow:200", "--a", "1",
         "--b", "100", "--x", "1.5", "--q", "2"),
        # the right member 3.4e308/1.01 overflows, however it is summed
        ("hh", "--fn", "const:1.7e308", "--a", "1", "--b", "2", "--s",
         "0.01"),
    ])
    def test_out_of_range_value_exits_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "numeric error" in err


class TestHostileInput:
    @pytest.mark.parametrize("argv", CONST_1E308 + [
        # q near 1e4: theta^(2q) overflows inside lambda_value
        ("verify", "--theorem", "T2_6", "--fn", "id", "--a", "1", "--b", "2",
         "--p", "1.0001"),
        ("ostrowski", "--theorem", "T2_3", "--fn", "id", "--a", "1", "--b",
         "2", "--x", "1.5", "--q", "2000", "--M", "1e10"),
        # b/a = 1e600 overflows: the mean is refused
        ("hh", "--fn", "id", "--a", "1e-300", "--b", "1e300"),
        # 1.7e11 gate triples: refused before the scan starts
        ("verify", "--theorem", "T2_3", "--fn", "id", "--a", "1", "--b", "2",
         "--q", "1", "--grid-gate", "100000"),
        # 1e9 x points: refused before the gate is scanned
        ("verify", "--theorem", "T2_3", "--fn", "id", "--a", "1", "--b", "2",
         "--q", "1", "--grid", "1000000000"),
        # lambda5's check at theta/x = 1.2e-300, beyond the cap z < 1 - 1e-12
        ("lambda", "--kind", "5", "--theta", "1e-300", "--x", "0.82",
         "--check"),
        # lambda5 underflows to 0.0: no relative error exists
        ("lambda", "--kind", "5", "--theta", "1e308", "--x", "1.05",
         "--check"),
        # base^(2 vartheta) underflows to 0 under the Beta factor
        ("lambda", "--kind", "4", "--theta", "0.694315", "--x", "0.643997",
         "--s", "0.75", "--vartheta", "1e9", "--rho", "2.5"),
        # f(u)/u^2 is finite, but a K15 panel sum overflows and the
        # bisection stops at depth 50
        ("hh", "--fn", "const:1e308", "--a", "1.35", "--b", "1.9"),
        # the gate's |f'|^q = (2u)^100 overflows at u = 1e10
        ("verify", "--theorem", "T2_3", "--fn", "pow:2", "--a", "1", "--b",
         "1e10", "--q", "100"),
        # lambda5 at theta = x: x*x underflows to 0
        ("lambda", "--kind", "5", "--theta", "1e-200", "--x", "1e-200"),
        # lambda5: d*d underflows to 0 in the closed form
        ("lambda", "--kind", "5", "--theta", "1e-170", "--x", "3e-170"),
        # classic: w*w underflows to 0 (TestOstrowskiCommand checks the value)
        ("ostrowski", "--theorem", "classic", "--fn", "const:1", "--a",
         "1e-200", "--b", "2e-200", "--x", "1.5e-200", "--M", "1"),
        # classic: w*w and (x - mid)^2 overflow
        ("ostrowski", "--theorem", "classic", "--fn", "const:1", "--a",
         "1e200", "--b", "2e200", "--x", "1.2e200", "--M", "1"),
    ])
    def test_clean_exit(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code in (0, 2)
        if code == 2:
            assert out == ""
        else:
            json.loads(out)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_value_is_refused(self, capsys, fmt):
        # the right member 3.4e308/1.01 overflows to inf, and so does
        # slack_right; the document is refused, not written with null or inf
        code, out, err = run(capsys, "hh", "--fn", "const:1.7e308", "--a",
                             "10", "--b", "20", "--s", "0.01", "--format",
                             fmt)
        assert (code, out) == (2, "")
        assert err == "numeric error: non-finite value inf in the document\n"

    @pytest.mark.parametrize("argv", [
        ("hh", "--fn", "const:1e308", "--a", "1", "--b", "2", "--s", "1"),
        ("hh", "--variant", "arithmetic", "--fn", "const:1e308", "--a", "1",
         "--b", "2", "--s", "1"),
        ("verify", "--theorem", "T2_2", "--fn", "const:1e308", "--a", "1",
         "--b", "2", "--s", "1"),
    ])
    def test_chain_right_member_where_the_sum_overflows(self, capsys, argv):
        # f(a) + f(b) = 2e308 overflows, but (f(a)+f(b))/2 is 1e308, as is
        # every member of the chain: the document is printed, all slack 0
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        for row in doc.get("results", [doc]):
            members = [row[k] for k in ("left", "middle", "right", "lhs",
                                        "rhs") if k in row]
            assert members and set(members) == {1e308}

    def test_infinite_tolerance_is_refused(self, capsys):
        # tol = inf let one panel stand for the integral: middle 80.36
        # against the true 500.5. The mean has no tolerance now, and hh
        # no --tol
        code, out, err = run(capsys, "hh", "--fn", "inv", "--a", "1e-3",
                             "--b", "1", "--tol", "inf")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --tol inf" in err

    def test_gate_keeps_the_functions_own_error(self, capsys):
        # 1/u is inf at the subnormal 1e-320: the registry function raises
        # its DomainError there, which the gate scan passes on unchanged
        # rather than rewording as "evaluation failed"
        code, out, err = run(capsys, "verify", "--theorem", "T2_2", "--fn",
                             "inv", "--a", "1e-320", "--b", "1", "--s", "1",
                             "--grid-gate", "3")
        assert (code, out) == (2, "")
        assert err == "domain error: inv: non-finite value at 1e-320\n"

    def test_gate_error_names_the_first_bad_point(self, capsys):
        # u ** 2 raises OverflowError past u = 1.3e154: the error names the
        # second grid node, the first bad point of the scan, as a call per
        # point would. A registry gate needs no table, so the grid is asked
        # for
        code, out, err = run(capsys, "verify", "--theorem", "T2_2", "--fn",
                             "pow:2", "--a", "1e150", "--b", "1e160",
                             "--s", "1", "--grid-gate", "16")
        assert (code, out) == (2, "")
        assert err == ("domain error: pow:2: evaluation failed at "
                       "6.666666675999999e+158\n")


class TestZNearOne:
    # lambda weights with z = 1 - theta/x close to 1, where 2F1 is the
    # continuation of the series along its differential equation
    @pytest.mark.parametrize("argv", [
        ("lambda", "--kind", "1", "--theta", "1", "--x", "1000", "--s", "0.5",
         "--vartheta", "6", "--rho", "2"),
        ("ostrowski", "--theorem", "T2_3", "--fn", "id", "--a", "1e-7",
         "--b", "1", "--x", "0.5", "--q", "2"),
        ("lambda", "--kind", "1", "--theta", "1e-9", "--x", "1", "--s", "1",
         "--vartheta", "1", "--rho", "1"),
    ])
    def test_finite_answer(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out, parse_constant=reject_constant)
        value = doc["value"] if argv[0] == "lambda" else doc["rhs"]
        assert math.isfinite(value) and value > 0.0


    # the oracle of --check integrates a weight whose mass crowds into a
    # sliver of t as z -> 1. In the u of lambda_integrand, graded at that
    # end, it answers up to z = 1 - 1e-9 on both sides, in at most 585
    # evaluations and within 1.4e-15 of mpmath, so its rel_err is the
    # closed form's own error (1.6e-14 at worst, since 2F1 takes w = 1 - z)
    @pytest.mark.parametrize("kind, theta, x", [
        (1, "1e-6", "2"),
        *[(k, z, "1") for k in (1, 2) for z in ("1e-6", "1e-9")],
        *[(k, "1", z) for k in (3, 4) for z in ("1e-6", "1e-9")],
    ])
    def test_check_work_is_bounded(self, capsys, kind, theta, x):
        start = time.perf_counter()
        code, out, err = run(capsys, "lambda", "--kind", str(kind),
                             "--theta", theta, "--x", x, "--s", "0.5",
                             "--vartheta", "3", "--rho", "2.5", "--check")
        assert time.perf_counter() - start < 5.0
        assert (code, err) == (0, "")
        ref = mp_lambda(kind, float(theta), float(x), 0.5, 3.0, 2.5)
        oracle = json.loads(out, parse_constant=reject_constant)["oracle"]
        assert float(abs(oracle - ref) / ref) <= 1e-13

    def test_oracle_grades_the_layer(self, capsys, monkeypatch):
        # every kind at z = 1 - 1e-3, 1 - 1e-6 and 1 - 1e-9, in shapes
        # (s, vartheta, rho) whose exponents are integers, which grade no
        # end of u, and in shapes where they are not: the layer of width
        # about 1 - z is graded for its own sake, so the oracle stays
        # within 1e-13 of mpmath (5.2e-15 at worst) in at most 585
        # evaluations. Graded by its exponents alone, it runs out of depth
        # or budget at 6 of these 48 weights, and errs by up to 7.6e-13
        spent = []

        def counted(*args):
            result = integrate(*args)
            spent.append(result.evals)
            return result
        monkeypatch.setattr(verify, "integrate", counted)
        worst = 0.0
        for kind, gap, (s, vt, rho) in itertools.product(
                (1, 2, 3, 4), ("1e-3", "1e-6", "1e-9"),
                (("0", "1", "1"), ("1", "2", "2"), ("0.5", "3", "2.5"),
                 ("0.25", "1.5", "0.5"))):
            theta, x = (gap, "1") if kind in (1, 2) else ("1", gap)
            code, out, err = run(capsys, "lambda", "--kind", str(kind),
                                 "--theta", theta, "--x", x, "--s", s,
                                 "--vartheta", vt, "--rho", rho, "--check")
            assert (code, err) == (0, ""), (kind, gap, s, vt, rho)
            ref = mp_lambda(kind, float(theta), float(x), float(s),
                            float(vt), float(rho))
            oracle = json.loads(out, parse_constant=reject_constant)["oracle"]
            worst = max(worst, float(abs(oracle - ref) / ref))
        assert worst <= 1e-13
        assert (len(spent), max(spent)) == (48, 585)


class TestKind5Check:
    """lambda5's check is the oracle of the kind 1 (theta <= x) or kind 3
    weight at (s, vartheta, rho) = (0, 1, 1), graded at its layer as those
    are: it answers, or refuses where they do, at z = 1 - 1e-12."""

    def check(self, capsys, monkeypatch, theta, x):
        spent = []

        def counted(*args):
            result = integrate(*args)
            spent.append(result.evals)
            return result
        monkeypatch.setattr(verify, "integrate", counted)
        code, out, err = run(capsys, "lambda", "--kind", "5", "--theta",
                             theta, "--x", x, "--check")
        return code, out, err, spent

    def test_theta_far_below_x(self, capsys, monkeypatch):
        # the ungraded integrand spent the 99,975-evaluation budget here
        code, out, err, spent = self.check(capsys, monkeypatch, "1e-9", "1")
        assert (code, err) == (0, "")
        assert spent == [495]
        assert json.loads(out)["rel_err"] <= 1e-14

    def test_x_far_below_theta(self, capsys, monkeypatch):
        # the closed value, not the oracle, was 3.4e-9 off here
        code, out, err, _ = self.check(capsys, monkeypatch, "1", "1e-11")
        assert (code, err) == (0, "")
        assert json.loads(out)["rel_err"] <= 1e-14

    def test_refused_beyond_the_cap(self, capsys, monkeypatch):
        # the value 689.78 is printed without --check (TestLambda5); its
        # check stopped at bisection depth 50, and is now refused before
        # any evaluation, naming the ratio and the cap on w = 1 - z
        code, out, err, spent = self.check(capsys, monkeypatch, "1", "1e-300")
        assert (code, out, spent) == (2, "", [])
        assert err == ("domain error: x/theta=1e-300 too extreme: "
                       "w = 1 - z must exceed the cap 1e-12\n")


class TestUnusedFlags:
    """A flag the request does not use is refused, not dropped."""

    @pytest.mark.parametrize("argv, message", [
        (("verify", "--theorem", "T2_3", "--fn", "pow:2", "--a", "1", "--b",
          "2", "--q", "2", "--p", "3"), "T2_3 takes no --p: give --q alone"),
        (("verify", "--theorem", "T2_2", "--fn", "pow:2", "--a", "1", "--b",
          "2", "--q", "2"), "T2_2 takes no exponents: drop --q and --p"),
        (("ostrowski", "--theorem", "T2_5", "--fn", "id", "--a", "1", "--b",
          "2", "--x", "1.5", "--q", "2", "--p", "2"),
         "T2_5 takes no --p: give --q alone"),
        (("ostrowski", "--theorem", "classic", "--fn", "id", "--a", "1",
          "--b", "2", "--x", "1.5", "--M", "1", "--q", "3"),
         "classic takes no exponents: drop --q and --p"),
        (("lambda", "--kind", "5", "--theta", "1", "--x", "2", "--s", "0.5"),
         "kind 5 takes no --s, --vartheta or --rho"),
        (("lambda", "--kind", "5", "--theta", "1", "--x", "2", "--rho", "0"),
         "kind 5 takes no --s, --vartheta or --rho"),
    ])
    def test_exits_two_with_one_line(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"domain error: {message}\n")


class TestZeroDerivative:
    """f' = 0 zeroes every Ostrowski bound, whatever its weights: a const
    scan answers 0 on [1, 1e13], where each weight is refused (w = 1e-13
    falls below the cap)."""

    @pytest.mark.parametrize("argv, rows", [
        (("verify", "--theorem", "T2_3", "--fn", "const:2", "--a", "1",
          "--b", "1e13", "--s", "1", "--q", "2"), 9),
        (("ostrowski", "--theorem", "T2_5", "--fn", "const:1", "--a", "1",
          "--b", "1e13", "--x", "1e13", "--q", "2"), 1),
    ])
    def test_const_answers_zero(self, capsys, argv, rows):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        results = doc.get("results", [doc])
        assert len(results) == rows
        assert all(r["rhs"] == r["lhs"] == 0 for r in results)


class TestLibraryParity:
    """verify and ostrowski print what the library returns for the same
    inputs: verify_theorem's document, and one bound_row."""

    @pytest.mark.parametrize("theorem, fn, s, q, p", [
        ("T2_2", "pow:0.5", 0.5, None, None),
        ("T2_4", "pow:2", 0.5, 2.0, None),
        ("T2_6", "pow:2", 1.0, None, 3.0),
        ("T2_3", "pow:0.5", 1.0, 1.0, None),  # the gate fails
    ])
    def test_verify(self, capsys, theorem, fn, s, q, p):
        argv = ["verify", "--theorem", theorem, "--fn", fn, "--a", "0.5",
                "--b", "2", "--s", repr(s)]
        argv += [] if q is None else ["--q", repr(q)]
        argv += [] if p is None else ["--p", repr(p)]
        code, out, _ = run(capsys, *argv)
        doc = verify_theorem(theorem, get_function(fn), Interval(0.5, 2.0),
                             s, q, p)
        assert json.loads(out) == doc
        assert code == (0 if doc["pass"] else 1)
        assert doc["hypothesis_ok"] is (theorem != "T2_3")

    @pytest.mark.parametrize("theorem, fn, s, q, p", [
        ("T2_4", "pow:2", 0.5, 2.0, None),
        ("T2_6", "pow:2", 1.0, None, 3.0),
        ("T2_3", "pow:0.5", 1.0, 1.0, None),  # the gate fails
    ])
    def test_ostrowski(self, capsys, theorem, fn, s, q, p):
        argv = ["ostrowski", "--theorem", theorem, "--fn", fn, "--a", "0.5",
                "--b", "2", "--x", "1.25", "--s", repr(s)]
        argv += [] if q is None else ["--q", repr(q)]
        argv += [] if p is None else ["--p", repr(p)]
        code, out, _ = run(capsys, *argv)
        f, iv = get_function(fn), Interval(0.5, 2.0)
        q, p = resolve_exponents(theorem, q, p)
        row = bound_row(theorem, 1.25, iv, s, q, p, None,
                        ostrowski_lhs(f, 1.25, iv),
                        rhs_at(theorem, f, 1.25, iv, s, q, p),
                        hypothesis_gate(theorem, f, iv, s, q, None))
        assert code == 0
        assert json.loads(out) == row
        assert row["hypothesis_ok"] is (theorem != "T2_3")

    def test_classic(self, capsys):
        code, out, _ = run(capsys, "ostrowski", "--theorem", "classic",
                           "--fn", "pow:2", "--a", "0.5", "--b", "2",
                           "--x", "1.25", "--M", "4")
        f, iv = get_function("pow:2"), Interval(0.5, 2.0)
        mean = arithmetic_mean(f, 0.5, 2.0)
        worst = max(abs(derivative(f, u)) for u in uniform_grid(0.5, 2.0, 33))
        row = bound_row("classic", 1.25, iv, 1.0, None, None, 4.0,
                        abs(f(1.25) - mean), classic_ostrowski_rhs(1.25, iv, 4.0),
                        worst <= 4.0 + VIOLATION_TOL)
        assert code == 0
        assert json.loads(out) == row
        assert row["hypothesis_ok"] is True


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

    @pytest.mark.parametrize("a, b, x", [(1e-200, 2e-200, 1.5e-200),
                                         (1e200, 2e200, 1.2e200)])
    def test_classic_at_extreme_scales(self, capsys, a, b, x):
        # w*w leaves the float range here, though the bound does not
        code, out, _ = run(capsys, "ostrowski", "--theorem", "classic",
                           "--fn", "const:1", "--a", str(a), "--b", str(b),
                           "--x", str(x), "--M", "1")
        assert code == 0
        w = b - a
        expected = w * (0.25 + ((x - 0.5 * (a + b)) / w) ** 2)
        assert json.loads(out)["rhs"] == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("fn", ["const:1e308", "const:-0.3", "const:0"])
    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (1e150, 3e150),
                                      (3e-5, 7e-5)])
    def test_constant_lhs_is_exactly_zero(self, capsys, fn, a, b):
        # the closed mean of c is c itself: 1e308 on [1, 2] used to
        # overflow a quadrature panel and exit 2
        code, out, _ = run(capsys, "ostrowski", "--theorem", "T2_5", "--fn",
                           fn, "--a", str(a), "--b", str(b), "--x", str(b),
                           "--q", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["lhs"] == 0.0 and doc["slack"] >= 0.0

    def test_underflowed_power_mean_is_refused(self, capsys):
        # lambda * |f'|^q = 2.5e-266 * 1e-67 underflows to 0: the rhs was
        # printed as 0 with a negative slack and exit 0
        code, out, err = run(capsys, "ostrowski", "--theorem", "T2_3", "--fn",
                             "pow:0.5", "--a", "1.6849e66", "--b", "3.3698e66",
                             "--x", "2.5e66", "--s", "0.5", "--q", "2")
        assert (code, out) == (2, "")
        assert err.startswith("numeric error: T2_3: the power mean at ")

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

    def test_gate_fails_between_grid_points(self, capsys):
        # the gate 0.95 u^-0.05 breaks the inequality at (a, b, t = 0.995),
        # between two t of the sampled grid, which passed it
        code, out, _ = run(capsys, "verify", "--theorem", "T2_3", "--fn",
                           "pow:0.95", "--a", "1", "--b", "1048576",
                           "--s", "0.25", "--q", "1")
        assert code == 1
        assert json.loads(out)["hypothesis_ok"] is False

    @pytest.mark.parametrize("argv", [
        # harmonically convex gates whose sampled tables failed on rounding
        # above the absolute VIOLATION_TOL
        ("--theorem", "T2_4", "--fn", "pow:3", "--a", "32", "--b", "64",
         "--s", "1", "--q", "2"),
        ("--theorem", "T2_2", "--fn", "pow:2", "--a", "1000", "--b", "2000",
         "--s", "1"),
    ])
    def test_gate_holds_at_any_scale(self, capsys, argv):
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0
        assert json.loads(out)["hypothesis_ok"] is True

    @pytest.mark.parametrize("fn", ["pow:0.5", "pow:2"])  # gate fails, holds
    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_tol_is_refused_before_the_gate(self, capsys, fn, tol):
        # verify has no --tol: the mean is closed
        code, out, err = run(capsys, "verify", "--theorem", "T2_3",
                             "--fn", fn, "--a", "0.5", "--b", "2",
                             "--q", "1", "--tol", tol)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: --tol {tol}" in err

    def test_registry_gates_build_no_table(self, capsys, monkeypatch):
        def no_table(*args):
            raise AssertionError("a registry gate built a table")

        monkeypatch.setattr(verify, "check_convexity", no_table)
        for fn in ("const:2", "const:-1.5", "const:0", "id", "pow:0.5",
                   "pow:2.5", "inv", "neg"):
            for s in ("0.25", "1"):
                common = ("--fn", fn, "--a", "0.5", "--b", "3", "--s", s)
                for theorem in VERIFY_THEOREMS:
                    q = () if theorem == "T2_2" else ("--q", "2")
                    code, _, _ = run(capsys, "verify", "--theorem", theorem,
                                     *common, *q)
                    assert code in (0, 1), (fn, s, theorem)
                for theorem in OSTROWSKI_THEOREMS:
                    code, _, _ = run(capsys, "ostrowski", "--theorem", theorem,
                                     *common, "--x", "1", "--q", "2")
                    assert code == 0, (fn, s, theorem)


    def test_spent_search_exits_2(self, capsys, monkeypatch):
        # the gate of pow:0.95 at s = 0.25 on [1, 256] is decided by
        # splitting boxes; with none to spend the request is refused, not
        # answered by a table
        monkeypatch.setattr(convexity, "MAX_GATE_BOXES", 0)
        code, out, err = run(capsys, "verify", "--theorem", "T2_3",
                             "--fn", "pow:0.95", "--a", "1", "--b", "256",
                             "--s", "0.25", "--q", "1")
        assert (code, out) == (2, "")
        assert err == "numeric error: gate undecided within budget\n"


class TestOutputFile:
    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "hh", "--fn", "id", "--a", "1", "--b", "2",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["fn"] == "id"

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "f.json"
        code, out, err = run(capsys, "lambda", "--kind", "5", "--theta", "1",
                             "--x", "2", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("output error:") and err.count("\n") == 1


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

    def test_kind2_canary(self, battery, selftest, monkeypatch):
        # the battery's lambda rows, recomputed with a wrong kind-2 front
        # factor, must fail the kind-1..4 fidelity check and nothing else
        monkeypatch.setattr(verify, "lambda_value", canary_lambda_value)
        rows = lambda_consistency_rows()
        canary = {row[0]: Check(*row, 0.0) for row in lambda_checks(rows)}
        code, out, _ = selftest("--format", "json",
                                rows=[canary.get(c.name, c) for c in battery])
        assert code == 1
        doc = json.loads(out)
        failing = [c["check"] for c in doc["checks"] if not c["pass"]]
        assert failing == ["lambda_fidelity_kinds_1_4"]

    def test_failed_gate_row_is_json(self, battery, selftest):
        # a row whose gate failed has the value -inf, which JSON cannot
        # hold: it is written as null, and the exit code stays 1
        rows = [Check(c.name, c.kind, -math.inf, c.limit, c.cases, 0.0)
                if c.name == "hh_chain_slack" else c for c in battery]
        code, out, _ = selftest("--format", "json", rows=rows)
        assert code == 1
        doc = json.loads(out, parse_constant=reject_constant)
        row = next(c for c in doc["checks"] if c["check"] == "hh_chain_slack")
        assert row["value"] is None and row["pass"] is False
        assert doc["pass"] is False

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_tol_must_be_finite_and_positive(self, capsys, monkeypatch,
                                             fmt, tol):
        # refused before the battery runs, alike in every format
        monkeypatch.setattr(cli, "run_battery",
                            lambda: pytest.fail("the battery ran"))
        code, out, err = run(capsys, "selftest", "--tol", tol, "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("domain error: --tol must be finite and "
                              "positive") and err.count("\n") == 1

    def test_table_format(self, selftest):
        code, out, _ = selftest()
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out


def parse_reference(argv):
    """Exit code, stdout and stderr of the whole parser on argv, which
    must exit: argv asks for help or holds a usage error."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


COMMAND_NAMES = ("lambda", "hh", "ostrowski", "verify", "selftest")

# per command: a required flag left out (for selftest, which has none, a
# flag without its value), a value outside --choices, a float that is not
# a number, and a flag the command does not have
USAGE_ERRORS = [
    ["lambda", "--kind", "5", "--x", "1"],
    ["lambda", "--kind", "6", "--theta", "1", "--x", "1"],
    ["lambda", "--kind", "5", "--theta", "abc", "--x", "1"],
    ["lambda", "--kind", "5", "--theta", "1", "--x", "1", "--fn", "id"],
    ["hh", "--fn", "id", "--a", "1"],
    ["hh", "--fn", "id", "--a", "1", "--b", "2", "--variant", "geometric"],
    ["hh", "--fn", "id", "--a", "abc", "--b", "2"],
    ["hh", "--fn", "id", "--a", "1", "--b", "2", "--bogus"],
    ["ostrowski", "--theorem", "T2_3", "--fn", "id", "--a", "1", "--b", "2"],
    ["ostrowski", "--theorem", "T9_9", "--fn", "id", "--a", "1", "--b", "2",
     "--x", "1.5"],
    ["ostrowski", "--theorem", "T2_3", "--fn", "id", "--a", "1", "--b", "2",
     "--x", "abc"],
    ["ostrowski", "--theorem", "T2_3", "--fn", "id", "--a", "1", "--b", "2",
     "--x", "1.5", "--variant", "harmonic"],
    ["verify", "--theorem", "T2_2", "--a", "1", "--b", "2"],
    ["verify", "--theorem", "classic", "--fn", "id", "--a", "1", "--b", "2"],
    ["verify", "--theorem", "T2_2", "--fn", "id", "--a", "1", "--b", "2",
     "--s", "abc"],
    ["verify", "--theorem", "T2_2", "--fn", "id", "--a", "1", "--b", "2",
     "--M", "1"],
    ["verify", "--theorem", "T2_3", "--fn", "id", "--a", "1", "--b", "2",
     "--seed", "3"],
    ["ostrowski", "--theorem", "T2_3", "--fn", "id", "--a", "1", "--b", "2",
     "--x", "1.5", "--seed", "3"],
    ["selftest", "--tol"],
    ["selftest", "--format", "xml"],
    ["selftest", "--tol", "abc"],
    ["selftest", "extra"],
]


class TestParserEdges:
    def test_no_command_exits_two(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["verify", "--help"]) == 0

    @pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"]]
                             + [[name, "--help"] for name in COMMAND_NAMES]
                             + USAGE_ERRORS)
    def test_output_equals_the_whole_parser(self, capsys, monkeypatch, argv):
        # main reads a well-formed request itself; its help and errors
        # must read exactly as build_parser()'s
        monkeypatch.setenv("COLUMNS", "80")
        expected = parse_reference(argv)
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected
        assert code in (0, 2) and (captured.out or captured.err)


@pytest.fixture
def added_options(monkeypatch):
    """The option strings of every add_argument call made while the test
    runs, one tuple per call, -h included."""
    calls = []
    add_argument = argparse._ActionsContainer.add_argument

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
    return calls


class TestParserWork:
    HELP = ("-h", "--help")

    def test_whole_parser_has_42_flags(self, added_options):
        cli.build_parser()
        flags = [a for a in added_options if a != self.HELP]
        # one -h for hsconvex and one for each of the five commands
        assert len(added_options) - len(flags) == 6
        assert len(flags) == 42

    def test_a_well_formed_request_builds_no_parser(self, capsys,
                                                    added_options):
        assert main(["hh", "--fn", "id", "--a", "1", "--b", "2"]) == 0
        assert added_options == []


# values a flag may take, by type, and tokens that make a request one
# _read declines: values of the wrong kind, then forms argparse parses or
# refuses itself
READ_VALUES = {float: ("1", "2.5", "nan", "1e-300"), int: ("3", "0"),
               str: ("id", "pow:0.5", "")}
READ_HOSTILE = ("-1", "nan", "", "5.0", "abc", "xml", "--", "-h", "--help",
                "--the", "--fn=id", "--kind=5", "-x")


@st.composite
def flag_argvs(draw):
    """argv of one command: its flags in any order with values of their
    type, each optional flag half the time and a required one seven times
    in eight, and then up to two tokens inserted anywhere: a hostile token
    or a flag of the command, which may repeat one."""
    name = draw(st.sampled_from(COMMAND_NAMES))
    flags = cli.COMMANDS[name][2]
    argv = [name]
    for option, keywords in draw(st.permutations(flags)):
        if keywords.get("required"):
            keep = draw(st.integers(0, 7)) > 0
        else:
            keep = draw(st.booleans())
        if not keep:
            continue
        argv.append(option)
        if keywords.get("action") != "store_true":
            values = [str(c) for c in keywords.get("choices", ())]
            argv.append(draw(st.sampled_from(
                values or READ_VALUES[keywords.get("type", str)])))
    token = st.sampled_from(READ_HOSTILE + tuple(o for o, _ in flags))
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(1, len(argv))), draw(token))
    return argv


def same_values(a: dict, b: dict) -> bool:
    """a == b, with NaN equal to NaN."""
    return a.keys() == b.keys() and all(
        a[k] == b[k] or (isinstance(a[k], float) and math.isnan(a[k])
                         and isinstance(b[k], float) and math.isnan(b[k]))
        for k in a)


class TestRead:
    @given(flag_argvs())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_agrees_with_argparse(self, argv):
        ns = cli._read(argv)
        if ns is None:
            return
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            reference = vars(cli.build_parser().parse_args(argv))
        del reference["command"]
        assert same_values(vars(ns), reference)

    @pytest.mark.parametrize("argv", [
        ["hh", "--fn", "id", "--a", "1"],
        ["hh", "--fn", "id", "--a", "1", "--b", "2", "--a", "1"],
        ["hh", "--fn", "id", "--a", "-1", "--b", "2"],
        ["hh", "--fn=id", "--a", "1", "--b", "2"],
        ["ostrowski", "--the", "T2_3", "--fn", "id", "--a", "1", "--b", "2",
         "--x", "1.5"],
        ["lambda", "--kind", "5.0", "--theta", "1", "--x", "2"],
        ["lambda", "--kind", "6", "--theta", "1", "--x", "2"],
        ["lambda", "--kind", "5", "--theta", "1", "--x", "2", "--check", "1"],
        ["selftest", "--"],
        ["selftest", "-h"],
    ])
    def test_declines_what_is_not_canonical(self, argv):
        assert cli._read(argv) is None


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# values the parser accepts that no command may take, and sizes that must
# be refused before any work starts
HOSTILE_NUMBERS = ("0", "-1", "nan", "inf", "-inf", "1e-300", "1e308")
FUZZ_FUNCTIONS = ("id", "inv", "neg", "const:2", "const:-1", "const:0",
                  "pow:0.5", "pow:2", "pow:1e3", "const:1e308", "pow:-1",
                  "pow:nan", "exp")


def number(lo, hi):
    return st.one_of(st.sampled_from(HOSTILE_NUMBERS),
                     st.floats(lo, hi).map(lambda v: format(v, ".6g")))


@st.composite
def requests(draw):
    """argv of one lambda, hh, ostrowski or verify request. A lambda request
    without --check names a kind 1..4 with ordinary --s, --vartheta and
    --rho, and draws theta/x over 1e-10..1e10, so z = 1 - theta/x (or
    1 - x/theta) reaches 1 - 1e-10. With --check, ordinary values keep z
    within [-3, 0.75], so the draws stay quick; the checks near z = 1, which
    spend the oracle's whole evaluation budget, are TestZNearOne's."""
    command = draw(st.sampled_from(("lambda", "hh", "ostrowski", "verify")))
    optional = []
    if command == "lambda":
        weights = [("--s", (0.0, 1.0)), ("--vartheta", (0.5, 3.0)),
                   ("--rho", (0.0, 3.0))]
        if draw(st.booleans()):
            argv = ["lambda", "--kind", str(draw(st.integers(0, 6))),
                    "--theta", draw(number(0.5, 2.0)),
                    "--x", draw(number(0.5, 2.0)), "--check"]
            optional = [(flag, number(*span)) for flag, span in weights]
        else:
            ratio = draw(st.floats(-10.0, 10.0).map(lambda e: 10.0 ** e))
            x = draw(st.floats(0.5, 2.0))
            argv = ["lambda", "--kind", str(draw(st.integers(1, 4))),
                    "--theta", format(x * ratio, ".17g"), "--x", format(x, ".17g")]
            argv += [v for flag, span in weights
                     for v in (flag, format(draw(st.floats(*span)), ".6g"))]
    elif command == "hh":
        argv = ["hh", "--fn", draw(st.sampled_from(FUZZ_FUNCTIONS)),
                "--a", draw(number(0.25, 2.0)), "--b", draw(number(1.0, 4.0)),
                "--variant", draw(st.sampled_from(("harmonic", "arithmetic")))]
        optional = [("--s", number(0.0, 1.0))]
    else:
        theorems = ("T2_2",) if command == "verify" else ("classic",)
        argv = [command, "--theorem", draw(st.sampled_from(
                    theorems + ("T2_3", "T2_4", "T2_5", "T2_6", "T2_7"))),
                "--fn", draw(st.sampled_from(FUZZ_FUNCTIONS)),
                "--a", draw(number(0.25, 2.0)), "--b", draw(number(1.0, 4.0)),
                "--grid-gate", str(draw(st.sampled_from((3, 4, 2, 0, 100000))))]
        if command == "ostrowski":
            argv += ["--x", draw(number(0.25, 4.0))]
            optional = [("--M", number(0.0, 5.0))]
        else:
            argv += ["--grid", str(draw(st.sampled_from((1, 3, 0, 10 ** 9))))]
        optional += [("--s", number(0.0, 1.0)), ("--q", number(1.0, 4.0)),
                     ("--p", number(1.0, 4.0))]
    for flag, values in optional:
        if draw(st.booleans()):
            value = draw(values)
            argv += [flag] if value is None else [flag, value]
    return argv


class TestFuzz:
    @given(requests())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_exit_code_and_output_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
        else:
            json.loads(out.getvalue(), parse_constant=reject_constant)
        if code == 1:
            assert argv[0] == "verify"


# registry ids with ordinary constants and exponents
REGISTRY_IDS = st.one_of(
    st.sampled_from(("id", "inv", "neg")),
    st.floats(-3.0, 3.0).map(lambda c: f"const:{c:.6g}"),
    st.floats(0.25, 3.0).map(lambda r: f"pow:{r:.6g}"))


def draw_number(draw, lo, hi):
    return format(draw(st.floats(lo, hi)), ".6g")


@st.composite
def well_formed(draw):
    """argv of one lambda, hh, ostrowski or verify request with ordinary
    values inside the domain of every flag: requests that answer, unless a
    gate fails or a value leaves the float range."""
    command = draw(st.sampled_from(("lambda", "hh", "ostrowski", "verify")))
    x = 2.0 ** draw(st.floats(-2.0, 2.0))
    if command == "lambda":
        kind = draw(st.integers(1, 5))
        ratio = draw(st.floats(0.5, 1.0))
        theta = x * ratio if kind in (1, 2) else x / ratio
        argv = ["lambda", "--kind", str(kind), "--theta", format(theta, ".6g"),
                "--x", format(x, ".6g")]
        if kind != 5:
            argv += ["--s", draw_number(draw, 0.0, 1.0),
                     "--vartheta", draw_number(draw, 0.5, 3.0),
                     "--rho", draw_number(draw, 0.0, 3.0)]
        return argv + (["--check"] if draw(st.booleans()) else [])
    a, b = x, x * draw(st.floats(1.1, 4.0))
    argv = [command, "--fn", draw(REGISTRY_IDS), "--a", format(a, ".6g"),
            "--b", format(b, ".6g"), "--s", draw_number(draw, 0.05, 1.0)]
    if command == "hh":
        return argv + ["--variant", draw(st.sampled_from(("harmonic",
                                                          "arithmetic")))]
    theorem = draw(st.sampled_from(
        ("classic" if command == "ostrowski" else "T2_2",
         "T2_3", "T2_4", "T2_5", "T2_6", "T2_7")))
    argv += ["--theorem", theorem, "--grid-gate", str(draw(st.integers(3, 8)))]
    if theorem in ("T2_6", "T2_7"):
        argv += [draw(st.sampled_from(("--q", "--p"))),
                 draw_number(draw, 1.25, 4.0)]
    elif theorem not in ("T2_2", "classic"):
        argv += ["--q", draw_number(draw, 1.0, 4.0)]
    if command == "verify":
        return argv + ["--grid", str(draw(st.integers(1, 9)))]
    argv += ["--x", format(draw(st.floats(a, b)), ".6g")]
    if theorem == "classic" or draw(st.booleans()):
        argv += ["--M", draw_number(draw, 0.5, 5.0)]
    return argv


def exact_float(text: str) -> float:
    """A JSON number, which must be the 17-digit form of its value."""
    v = float(text)
    assert format(v, ".17g") == text
    return v


class TestWellFormed:
    def test_documents_keep_their_contract(self):
        codes = []

        @given(well_formed())
        @settings(max_examples=400, deadline=None, derandomize=True)
        def check(argv):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            codes.append(code)
            if code == 2:
                assert out.getvalue() == ""
                return
            doc = json.loads(out.getvalue(), parse_constant=reject_constant,
                             parse_float=exact_float)
            for row in doc.get("results", [doc]):
                if "slack" in row:
                    assert row["slack"] == row["rhs"] - row["lhs"]
            if argv[0] == "hh":
                assert doc["slack_left"] == doc["middle"] - doc["left"]
                assert doc["slack_right"] == doc["right"] - doc["middle"]
            if argv[0] == "verify" and not doc["hypothesis_ok"]:
                assert doc["results"] == []
            assert code == 0 or argv[0] == "verify"

        check()
        assert len(codes) == 400
        assert sum(code in (0, 1) for code in codes) >= 300
