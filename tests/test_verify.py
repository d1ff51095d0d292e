"""Referee-layer tests: lemma residual, theorem gating, oracle consistency."""

import math
import random
import sys
from collections import Counter

import mpmath
import pytest
from conftest import canary_lambda_value, mp_lambda, record_tables

from hsconvex import bounds, convexity, numeric, verify
from hsconvex.bounds import hh_harmonic_bounds, lambda_value
from hsconvex.convexity import GATE_GRID_N, check_convexity, uniform_grid
from hsconvex.errors import DomainError, NumericError
from hsconvex.numeric import (FunctionSpec, Interval, derivative,
                              get_function, integrate, weighted_mean)
from hsconvex.specfn import Gauss2F1
from hsconvex.verify import (LEMMA_FUNCTIONS, LEMMA_INTERVALS, MAX_X_GRID,
                             ROW_FIELDS, SLACK_TOL, bound_row,
                             hypothesis_gate, lambda_consistency_rows,
                             lambda_document,
                             lemma_residual, mean_fidelity, min_corollary_gap,
                             run_battery, run_ostrowski_matrix,
                             verify_theorem)

IV12 = Interval(1.0, 2.0)


class TestLemmaResidual:
    def test_constant_identically_zero(self):
        assert lemma_residual(get_function("const:2"), 1.5, IV12) <= 1e-10

    def test_identity(self):
        assert lemma_residual(get_function("id"), 1.5, IV12) <= 1e-8

    def test_square(self):
        assert lemma_residual(get_function("pow:2"), 1.25, IV12) <= 1e-8

    def test_all_registry_functions(self):
        for fn_id in ("const:2", "id", "pow:2", "pow:0.5", "inv"):
            f = get_function(fn_id)
            for x in (1.0, 1.3, 2.0):
                r = lemma_residual(f, x, IV12)
                assert r <= 1e-7 * (1.0 + abs(f(x))), (fn_id, x)

    def test_x_outside(self):
        with pytest.raises(DomainError):
            lemma_residual(get_function("id"), 0.5, IV12)


class TestVerifyTheorem:
    def test_t2_2_sqrt_on_unit_subinterval(self):
        rep = verify_theorem("T2_2", get_function("pow:0.5"),
                             Interval(0.25, 1.0), 0.5, None, None)
        assert rep["hypothesis_ok"]
        assert rep["pass"]
        assert len(rep["results"]) == 2
        assert ({r["theorem"] for r in rep["results"]}
                == {"T2_2_left", "T2_2_right"})
        assert all(r["slack"] >= -1e-12 for r in rep["results"])

    def test_t2_3_identity(self):
        rep = verify_theorem("T2_3", get_function("id"), IV12, 1.0, 1.0, None)
        assert rep["pass"]
        # the bound is exactly sharp at both endpoints for f(x)=x, s=q=1,
        # so the minimum slack is zero up to a last-place rounding wiggle
        assert rep["min_slack"] >= -1e-12
        assert len(rep["results"]) == 9
        interior = [r["slack"] for r in rep["results"][1:-1]]
        assert min(interior) > 1e-3
        # the x = 1.5 row reproduces the reference pair of values
        row = rep["results"][4]
        assert row["x"] == pytest.approx(1.5)
        assert row["lhs"] == pytest.approx(abs(1.5 - 2.0 * math.log(2.0)),
                                           abs=1e-9)
        assert row["rhs"] == pytest.approx(0.2644339286872331, rel=1e-9)

    def test_gate_failure_empties_results(self):
        rep = verify_theorem("T2_2", get_function("neg"), IV12, 1.0, None, None)
        assert not rep["hypothesis_ok"]
        assert not rep["pass"]
        assert rep["results"] == []
        assert rep["min_slack"] is None

    def test_gate_is_on_derivative_for_ostrowski(self):
        # |f'|^q of neg is the constant 1, which is harmonically s-convex,
        # so the Ostrowski gates pass even though f itself is not
        rep = verify_theorem("T2_3", get_function("neg"), IV12, 1.0, 1.0, None)
        assert rep["hypothesis_ok"]
        assert rep["pass"]

    def test_sqrt_gate_depends_on_s(self):
        f = get_function("pow:0.5")
        # 0.5/sqrt(u) is not harmonically 1-convex ...
        rep1 = verify_theorem("T2_3", f, IV12, 1.0, 1.0, None)
        assert not rep1["hypothesis_ok"]
        # ... but is harmonically 0.5-convex
        rep2 = verify_theorem("T2_3", f, IV12, 0.5, 1.0, None)
        assert rep2["hypothesis_ok"]
        assert rep2["pass"]

    def test_gate_named_by_its_exact_q(self):
        # |f'|^q overflows at the first node of the sampled gate, and the
        # error names the gate; a q that {q:g} would round is written whole
        rng = random.Random(17)
        stream_qs = [format(rng.uniform(1.0, 4.0), ".6g") for _ in range(200)]
        for text in ["1", "2", "2.5", "1.0000001"] + stream_qs:
            with pytest.raises(DomainError) as exc:
                verify_theorem("T2_3", get_function("pow:3"),
                               Interval(1e154, 1e155), 1.0, float(text), None,
                               gate_grid_n=GATE_GRID_N)
            assert str(exc.value) == (f"|pow:3'|^{text}: non-finite value "
                                      f"at 1e+154")

    def test_pair_theorems(self):
        f = get_function("pow:2")
        for theorem in ("T2_6", "T2_7"):
            rep = verify_theorem(theorem, f, IV12, 1.0, 2.0, 2.0)
            assert rep["hypothesis_ok"] and rep["pass"], theorem
            # either exponent determines the other
            assert verify_theorem(theorem, f, IV12, 1.0, 2.0, None) == rep
            assert verify_theorem(theorem, f, IV12, 1.0, None, 2.0) == rep
            with pytest.raises(DomainError, match="needs conjugate exponents"):
                verify_theorem(theorem, f, IV12, 1.0, None, None)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            verify_theorem("T9_9", get_function("id"), IV12, 1.0, 1.0, None)
        with pytest.raises(DomainError):
            verify_theorem("T2_3", get_function("id"), IV12, 1.0, None, None)
        with pytest.raises(DomainError):
            verify_theorem("T2_3", get_function("id"), IV12, 1.0, 1.0, None,
                           x_grid=0)

    def test_x_grid_cap_refuses_before_evaluating(self, monkeypatch):
        c = Counter()
        count_evals(monkeypatch, c)
        count_calls(monkeypatch, c, numeric, "derivative")
        for x_grid in (MAX_X_GRID + 1, 10 ** 9):
            with pytest.raises(DomainError):
                verify_theorem("T2_3", get_function("id"), IV12, 1.0, 1.0,
                               None, x_grid=x_grid)
        assert c == {}

    def test_deterministic_serialization(self):
        r1 = verify_theorem("T2_4", get_function("pow:2"), IV12, 0.5, 2.0, None)
        r2 = verify_theorem("T2_4", get_function("pow:2"), IV12, 0.5, 2.0, None)
        assert r1 == r2

    def test_report_invariants(self):
        rep = verify_theorem("T2_5", get_function("inv"), IV12, 1.0, 2.0, None)
        assert list(rep) == ["theorem", "grid", "results", "min_slack",
                             "hypothesis_ok", "pass"]
        assert rep["min_slack"] == min(r["slack"] for r in rep["results"])
        assert rep["pass"] is (rep["hypothesis_ok"]
                               and rep["min_slack"] >= -SLACK_TOL)
        assert rep["grid"]["fn"] == "inv"


class TestMeanFarFromOne:
    def test_sqrt_on_1e150_to_1e155(self):
        # the mean of u^(1/2) against du/u^2 is (ab/(b-a)) 2 (a^-1/2 -
        # b^-1/2) = 1.9937e75. A quadrature of f(u)/u^2, about 2e-75 here,
        # to the absolute tolerance 1e-10 gave 1.6819e74, below the chain's
        # left member 1.414e75, so a harmonically 1-convex f appeared to
        # break the chain and verify exited 1
        f, iv = get_function("pow:0.5"), Interval(1e150, 1e155)
        with mpmath.workdps(30):
            a, b = mpmath.mpf(iv.a), mpmath.mpf(iv.b)
            exact = (a * b / (b - a) * 2
                     * (1 / mpmath.sqrt(a) - 1 / mpmath.sqrt(b)))
        middle = hh_harmonic_bounds(f, iv, 1.0)[1]
        assert abs(middle - exact) <= 1e-12 * exact
        doc = verify_theorem("T2_2", f, iv, 1.0, None, None)
        assert doc["hypothesis_ok"] and doc["pass"]


class TestHypothesisGate:
    def test_rho_is_compared_exactly(self):
        # (r - 1) q = -(1 - 2^-104) exactly, which rounds to -1.0: |f'|^q
        # is then strictly concave in w = 1/u and fails at s = 1, where a
        # float rho would say it holds. The sampled gate cannot see 2^-104
        r, q = 0.5 - 2.0 ** -53, 2.0 - 2.0 ** -51
        assert (r - 1.0) * q == -1.0
        f = get_function(f"pow:{r!r}")
        assert hypothesis_gate("T2_3", f, IV12, 1.0, q, None) is False
        assert hypothesis_gate("T2_3", f, IV12, 1.0, q, GATE_GRID_N) is True

    def test_decided_by_the_sign_of_k(self):
        # K = 3^1000 overflows: the table cannot be built, the rule needs
        # only the sign of K
        f = get_function("pow:3")
        assert hypothesis_gate("T2_3", f, IV12, 0.5, 1000.0, None) is True
        with pytest.raises(DomainError, match="evaluation failed"):
            hypothesis_gate("T2_3", f, IV12, 0.5, 1000.0, GATE_GRID_N)

    def test_spent_budget_raises(self, monkeypatch):
        # 0.95 u^-0.05 at s = 0.25 on [1, 256] needs boxes between the
        # edges that the search clears analytically; a search that spends
        # its budget is an error, and no table stands in for it
        scans = []
        check_convexity = verify.check_convexity

        def counted_check_convexity(*args):
            scans.append(args)
            return check_convexity(*args)

        monkeypatch.setattr(verify, "check_convexity", counted_check_convexity)
        f, iv = get_function("pow:0.95"), Interval(1.0, 256.0)
        assert hypothesis_gate("T2_3", f, iv, 0.25, 1.0, None) is True
        monkeypatch.setattr(convexity, "MAX_GATE_BOXES", 0)
        with pytest.raises(NumericError, match="gate undecided within budget"):
            hypothesis_gate("T2_3", f, iv, 0.25, 1.0, None)
        assert scans == []


class TestBoundRow:
    def test_fields_and_slack(self):
        r = bound_row("T2_3", 1.5, IV12, 1.0, 2.0, None, None, 0.1, 0.3, True)
        assert list(r) == list(ROW_FIELDS) + ["fd_fallback"]
        assert (r["theorem"], r["a"], r["b"]) == ("T2_3", 1.0, 2.0)
        assert r["slack"] == 0.3 - 0.1
        assert r["p"] is None
        assert r["fd_fallback"] is False


class TestDerivativeRoute:
    # points spread in log scale over the positive floats, where f, f' or
    # |f'|^q overflow, underflow or divide by zero somewhere
    XS = [0.0, 5e-324, 1e-154, 1.0, 1e154, 1.7976931348623157e308] + [
        math.ldexp(0.5 + e % 97 / 194.0, e) for e in range(-1073, 1025, 7)]

    @staticmethod
    def gate_callables(monkeypatch, theorem, f, q):
        """The (name, callable) pairs that hypothesis_gate scans for
        `theorem` on a 3 x 3 grid."""
        scanned = []
        with monkeypatch.context() as patch:
            patch.setattr(verify, "check_convexity",
                          lambda name, fn, *args: scanned.append((name, fn))
                          or check_convexity(name, fn, *args))
            hypothesis_gate(theorem, f, IV12, 1.0, q, 3)
        return scanned

    @staticmethod
    def result(call, x):
        """call(x) with the sign of a zero, the type of the exception it
        raises, or None where it is not finite: what a guard reports. A
        guarded call reports a failure with its cause, a non-finite value
        with none."""
        try:
            v = call(x)
        except DomainError as exc:
            return exc.__cause__ and ("fails", type(exc.__cause__))
        except (ArithmeticError, ValueError) as exc:
            return "fails", type(exc)
        return (v, math.copysign(1.0, v)) if math.isfinite(v) else None

    @pytest.mark.parametrize("fn_id", ["const:2", "const:-1.5", "const:0",
                                       "id", "neg", "inv", "pow:0.5",
                                       "pow:2.5", "pow:1e-3"])
    def test_gate_follows_the_rules_of_f_and_its_derivative(self, monkeypatch,
                                                            fn_id):
        # a sampled gate scans f itself, and a plain u -> |f'(u)|^q that
        # equals the guarded one bit for bit and fails where it fails
        f = get_function(fn_id)
        assert self.gate_callables(monkeypatch, "T2_2", f, None) == [
            (f.fn_id, f)]
        for q in (1.0, 2.0, 3.5):
            (name, fn), = self.gate_callables(monkeypatch, "T2_3", f, q)
            assert name == f"|{f.fn_id}'|^{q:g}"
            expected = [self.result(lambda u: abs(derivative(f, u)) ** q, x)
                        for x in self.XS]
            assert [self.result(fn, x) for x in self.XS] == expected

    def test_gate_reads_the_derivative_through_one_guard(self, monkeypatch):
        c = Counter()
        count_evals(monkeypatch, c)
        count_calls(monkeypatch, c, numeric, "derivative")
        rep = verify_theorem("T2_4", get_function("pow:2.3"), IV12, 0.5, 2.0,
                             None, gate_grid_n=GATE_GRID_N)
        assert rep["hypothesis_ok"]
        # the 16 x 16 gate's 3,856 values of |f'|^2 are guarded one by one
        # by check_convexity, with no spec call and no derivative call;
        # ostrowski_rhs takes |f'| at each of the 9 x points, and at a and
        # b once per scan
        assert c["gate_evals"] == TestReuse.GATE_TABLE_EVALS == 3856
        assert c["derivative"] == 9 + 2
        # f at the 9 x points alone: the weighted mean is closed
        assert c["f_evals"] == 9


class TestLambdaConsistency:
    def test_rows_cover_all_kinds(self):
        rows = lambda_consistency_rows()
        kinds = {r["kind"] for r in rows}
        assert kinds == {1, 2, 3, 4, 5}
        n_kind14 = sum(1 for r in rows if r["kind"] <= 4)
        assert n_kind14 >= 240

    @staticmethod
    def rel_err(*weight):
        # the comparison of one sweep row
        return lambda_document(*weight, True)["rel_err"]

    def test_oracle_against_mpmath(self):
        # the oracle itself, held against each weight in mpmath: the
        # integrand graded at each end that needs it keeps every row within
        # 1e-15 (3.9e-16 at worst)
        worst = max(
            float(abs(r["oracle"] - ref) / ref) for r in lambda_consistency_rows()
            for ref in [mp_lambda(r["kind"], r["theta"], r["x"], r["s"],
                                  r["vartheta"], r["rho"])])
        assert worst <= 1e-15

    def test_z_zero_tight(self):
        for kind in (1, 2, 3, 4):
            assert self.rel_err(kind, 1.0, 1.0, 0.5, 1.0, 1.0) <= 1e-13, kind
        assert self.rel_err(5, 1.0, 1.0, None, None, None) <= 1e-13

    def test_taylor_subgrid(self):
        # near theta = x, where lambda5 takes its 2F1 route
        for sign in (1.0, -1.0):
            theta = 1.5 * (1.0 - sign * 1e-5)
            assert self.rel_err(5, theta, 1.5, None, None, None) <= 1e-9

    def test_variant_breaks_consistency(self, monkeypatch):
        monkeypatch.setattr(verify, "lambda_value", canary_lambda_value)
        rows = lambda_consistency_rows()
        assert max(r["rel_err"] for r in rows) > 1e-3


def count_evals(monkeypatch, c):
    """Count in c each evaluation of a registry function, under "f_evals",
    and of the function a hypothesis gate scans, under "gate_evals"."""
    call = FunctionSpec.__call__

    def counted_call(spec, x):
        c["f_evals"] += 1
        return call(spec, x)

    def counted_check_convexity(name, fn, *args):
        def counted_fn(x):
            c["gate_evals"] += 1
            return fn(x)
        return check_convexity(name, counted_fn, *args)

    monkeypatch.setattr(FunctionSpec, "__call__", counted_call)
    monkeypatch.setattr(verify, "check_convexity", counted_check_convexity)


def count_calls(monkeypatch, c, module, name):
    """Count in c[name] each call of module.<name> that goes through an
    hsconvex module holding it."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        c[name] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if (mod_name.split(".")[0] == "hsconvex"
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, counted)


@pytest.fixture
def counts(monkeypatch):
    """Count function evaluations (see count_evals), 2F1
    evaluations of the lambda weights, the distinct argument tuples asked
    for, and the weighted means, rhs scans and weight columns asked for
    (see count_calls)."""
    c = Counter()
    asked = set()
    lambda_value = bounds.lambda_value

    class CountedGauss2F1(Gauss2F1):
        def __call__(self, w):
            c["hyp2f1"] += 1
            return super().__call__(w)

    def recorded_lambda(*args):
        c["lambda_calls"] += 1
        asked.add(args)
        return lambda_value(*args)

    count_evals(monkeypatch, c)
    count_calls(monkeypatch, c, numeric, "weighted_mean")
    count_calls(monkeypatch, c, bounds, "ostrowski_rhs")
    count_calls(monkeypatch, c, bounds, "lambda_column")
    monkeypatch.setattr(bounds, "Gauss2F1", CountedGauss2F1)
    monkeypatch.setattr(bounds, "lambda_value", recorded_lambda)
    c.asked = asked
    return c


class TestReuse:
    # a 16 x 16 gate evaluates its nodes, then 256 pairs over the 15 t in
    # (0, 1); at t = 0 and t = 1 the combined point is a node
    GATE_TABLE_EVALS = 16 + 256 * 15

    def test_matrix_builds_no_gate_table(self, counts):
        reports = run_ostrowski_matrix()
        assert len(reports) == 192
        # every matrix function is a power law, decided by power_gate
        assert counts["gate_evals"] == 0

    @pytest.mark.parametrize("sweep", [run_ostrowski_matrix, min_corollary_gap])
    def test_sweep_computes_each_lambda_weight_once(self, counts, sweep):
        # the corollary sweep reads the reports of a matrix run before it
        args = () if sweep is run_ostrowski_matrix else (run_ostrowski_matrix(),)
        counts.clear()
        counts.asked.clear()
        sweep(*args)
        # T2_5's lambda5 is kind 5, read from a column at each end of each
        # interval: 32 weights, of which lambda5(2, 1.875), the one with
        # |z| < 0.1, is summed once as the kind 3 weight at (s, vartheta,
        # rho) = (0, 1, 1); the others take the elementary form
        lambda5_weights = [w for w in counts.asked if w[0] == 5]
        assert (5, 2.0, 1.875, None, None, None) in lambda5_weights
        # a weight depends on the interval, x, s and (vartheta, rho), not on
        # f: 2 intervals x 2 s x 4 (vartheta, rho) x 32 plus 2 x 16 for T2_7
        assert counts["hyp2f1"] - 1 == len(counts.asked) - 32 == 544
        assert len(lambda5_weights) == 32
        # each weight is asked for once, by the column that holds it: 72
        # columns of 8 points x > a (or x < b). A scan asks for 4 columns,
        # 2 for T2_7 and 6 for T2_5, so the 8 configs of one (f, interval,
        # s) ask for 34; the matrix skips the 6 ungated configs, 4 of 4
        # columns and 2 (T2_5) of 6, and the corollary sweep adds their
        # theorem scans. Every column asked for after its first is a memo
        # hit: 716 in the matrix, 772 in the corollary sweep
        assert counts["lambda_calls"] == 544 + 32 == 72 * 8
        asked = {run_ostrowski_matrix: 816 - 28, min_corollary_gap: 816 + 28}
        assert counts["lambda_column"] == asked[sweep] == 72 + {
            run_ostrowski_matrix: 716, min_corollary_gap: 772}[sweep]

    def test_scan_sums_from_one_table_per_kind(self, monkeypatch):
        tables = record_tables(monkeypatch)
        doc = verify_theorem("T2_3", get_function("pow:2"), IV12, 0.5, 2.0,
                             None)
        assert len(doc["results"]) == 9
        # kinds 1, 2 weigh the 8 points x > a, kinds 3, 4 the 8 points x < b,
        # one column after the other
        assert [(t.b, len(t.asked)) for t in tables] == [
            (3.5, 8), (3.0, 8), (1.0, 8), (1.5, 8)]
        # each table is as long as its longest sum needs: every ratio is
        # computed once, where fresh tables compute one per term summed
        terms = []
        for t in tables:
            fresh = [Gauss2F1(t.a, t.b, t.c) for _ in t.asked]
            for g, w in zip(fresh, t.asked):
                g(w)
            assert len(t.ratios) == max(len(g.ratios) for g in fresh)
            terms += [len(g.ratios) for g in fresh]
        assert sum(len(t.ratios) for t in tables) == 216
        assert sum(terms) == 1109

    def test_memo_ends_with_the_run(self, counts):
        totals = []
        for _ in range(2):
            counts.clear()
            run_battery()
            totals.append(dict(counts))
        # a cache that outlived the first run would cut the second's counts
        assert totals[0] == totals[1]
        # the lambda sweep's 240 rows and its 11 lambda5 points with
        # 0 < |z| < 0.1, plus the 544 weights the matrix and the corollary
        # sweep share and their one sum of lambda5(2, 1.875)
        assert totals[0]["hyp2f1"] == 240 + 11 + 544 + 1
        # one closed mean per call, none stored: the lemma's 135 residuals,
        # mean_fidelity's 5 x 3, the chain's 4 x 2 and the 186 gated matrix
        # configs
        assert totals[0]["weighted_mean"] == 135 + 15 + 8 + 186
        # one scan of 9 x for each of the 186 gated matrix configs, whose
        # rhs the corollary sweep reads from their reports, adding its M
        # scan for all 192 and the scan of the 6 ungated ones
        assert totals[0]["ostrowski_rhs"] == 186 + 192 + 6 == 384
        # no gate table, and 3,291 evaluations of f itself, 1,290 of them
        # in mean_fidelity's 30 oracle quadratures and none in a mean: the
        # chain's T2_2 gates are power laws too, and tabulate f no more,
        # and the AM-HM scan reads u -> u, not the registry's id
        assert "gate_evals" not in totals[0]
        assert totals[0]["f_evals"] == 3_291

    def test_battery_scans_no_grid(self, monkeypatch):
        # every gate of the battery is decided by power_gate, and the AM-HM
        # row runs its own loop: no row reaches the sampled scan
        def no_scan(*args):
            raise AssertionError("the battery scanned a grid")

        monkeypatch.setattr(convexity, "check_convexity", no_scan)
        monkeypatch.setattr(verify, "check_convexity", no_scan)
        assert all(c.passed for c in run_battery())

    def test_means_are_keyed_on_the_power_law(self, counts):
        # two specs built by hand may share a fn_id and be different
        # functions, and id and pow:1 name one function: the closed mean
        # reads (c, r) alone, and evaluates no f
        twins = [FunctionSpec("f", 1.0, 2.0), FunctionSpec("f", 1.0, 3.0)]
        aliases = [get_function("id"), get_function("pow:1")]
        means = [weighted_mean(f, IV12) for f in twins + aliases]
        # ab (b^(r-1) - a^(r-1)) / ((r-1)(b-a)) on [1, 2] at r = 2, 3
        assert means[:2] == [2.0, 3.0]
        assert means[2] == means[3] == pytest.approx(2.0 * math.log(2.0),
                                                     rel=1e-15)
        assert counts["f_evals"] == 0

    def test_oracle_evaluations_are_pinned(self, monkeypatch):
        # the integrand evaluations of the battery's oracle rows under the
        # relative stop: a kernel or a stopping rule that walks another
        # panel tree spends another count. The lambda rows integrate in the
        # u of lambda_integrand, graded at the ends that need it; the mean
        # and lemma counts hold that grading to the lambda integrand
        spent = Counter()
        integrate = verify.integrate

        def counted(*args, **kwargs):
            result = integrate(*args, **kwargs)
            spent[row] += result.evals
            return result
        monkeypatch.setattr(verify, "integrate", counted)
        row = "lambda"
        lambda_consistency_rows()
        row = "mean"
        mean_fidelity()
        row = "lemma"
        for f in map(get_function, LEMMA_FUNCTIONS):
            for a, b in LEMMA_INTERVALS:
                for x in uniform_grid(a, b, 9):
                    lemma_residual(f, x, Interval(a, b))
        assert spent == {"lambda": 25_080, "mean": 1_290, "lemma": 7_800}

    def test_corollary_sweep_alone_matches_the_battery(self):
        # in the battery the matrix and the sweep share one lambda_memo
        # block; each in a block of its own, the value is the same float
        row, = [c for c in run_battery() if c.name == "corollary_monotonicity"]
        assert min_corollary_gap(run_ostrowski_matrix()) == row.value
