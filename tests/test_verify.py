"""Referee-layer tests: lemma residual, theorem gating, oracle consistency."""

import math
import random
import sys
from collections import Counter

import pytest
from conftest import canary_lambda_value

from hsconvex import bounds, numeric, verify
from hsconvex.bounds import (lambda5, lambda5_integrand, lambda_integrand,
                             lambda_value, ostrowski_rhs)
from hsconvex.errors import DomainError
from hsconvex.numeric import (FunctionSpec, Interval, derivative,
                              get_function, integrate)
from hsconvex.verify import (MAX_X_GRID, ROW_FIELDS, SLACK_TOL, bound_row,
                             lambda_consistency_rows, lemma_residual,
                             min_corollary_gap, run_battery,
                             run_ostrowski_matrix, verify_theorem)

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
        # |f'|^q overflows at the first node, and the error names the gate;
        # a q that {q:g} would round is written whole
        rng = random.Random(17)
        stream_qs = [format(rng.uniform(1.0, 4.0), ".6g") for _ in range(200)]
        for text in ["1", "2", "2.5", "1.0000001"] + stream_qs:
            with pytest.raises(DomainError) as exc:
                verify_theorem("T2_3", get_function("pow:3"),
                               Interval(1e154, 1e155), 1.0, float(text), None)
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

    def test_x_grid_cap_refuses_before_evaluating(self):
        points = []
        f = FunctionSpec("counted", lambda u: points.append(u) or u)
        for x_grid in (MAX_X_GRID + 1, 10 ** 9):
            with pytest.raises(DomainError):
                verify_theorem("T2_3", f, IV12, 1.0, 1.0, None, x_grid=x_grid)
        assert points == []

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


class TestBoundRow:
    def test_fields_and_slack(self):
        r = bound_row("T2_3", 1.5, IV12, 1.0, 2.0, None, None, 0.1, 0.3, True)
        assert list(r) == list(ROW_FIELDS) + ["fd_fallback"]
        assert (r["theorem"], r["a"], r["b"]) == ("T2_3", 1.0, 2.0)
        assert r["slack"] == 0.3 - 0.1
        assert r["p"] is None
        assert r["fd_fallback"] is False


class TestDerivativeRoute:
    def test_no_derivative_refused_before_any_evaluation(self):
        points = []
        f = FunctionSpec("counted", lambda u: points.append(u) or u)
        with pytest.raises(DomainError, match="no analytic derivative"):
            derivative(f, 1.5)
        with pytest.raises(DomainError, match="no analytic derivative"):
            verify_theorem("T2_3", f, IV12, 1.0, 1.0, None)
        with pytest.raises(DomainError, match="no analytic derivative"):
            ostrowski_rhs("T2_3", f, 1.5, IV12, 1.0, 1.0, None)
        assert points == []

    def test_gate_reads_the_derivative_through_one_guard(self, monkeypatch):
        c = Counter()
        pow23 = get_function("pow:2.3")

        def deriv_fn(u):
            c["deriv_fn"] += 1
            return pow23.deriv_fn(u)

        call = FunctionSpec.__call__
        original = numeric.derivative

        def counted_call(spec, x):
            c["gate_calls"] += spec.fn_id.startswith("|")
            return call(spec, x)

        def counted_derivative(f, x):
            c["derivative"] += 1
            return original(f, x)

        count_evals(monkeypatch, c)
        monkeypatch.setattr(FunctionSpec, "__call__", counted_call)
        for name, mod in list(sys.modules.items()):
            if (name.split(".")[0] == "hsconvex"
                    and getattr(mod, "derivative", None) is original):
                monkeypatch.setattr(mod, "derivative", counted_derivative)
        f = FunctionSpec("pow:2.3", pow23.eval_fn, deriv_fn)
        rep = verify_theorem("T2_4", f, IV12, 0.5, 2.0, None)
        assert rep["hypothesis_ok"]
        # the 16 x 16 gate's 1,944 values of |f'|^2 are guarded per table by
        # FunctionSpec.values, with no per-point spec call and no derivative
        # call; ostrowski_rhs takes |f'| at x, a and b for each of the 9 x
        # points
        assert c["gate_evals"] == TestReuse.GATE_TABLE_EVALS == 1944
        assert c["gate_calls"] == 0
        assert c["derivative"] == 9 * 3
        assert c["deriv_fn"] == 1944 + 27


class TestLambdaConsistency:
    def test_rows_cover_all_kinds(self):
        rows = lambda_consistency_rows()
        kinds = {r["kind"] for r in rows}
        assert kinds == {1, 2, 3, 4, 5}
        n_kind14 = sum(1 for r in rows if r["kind"] <= 4)
        assert n_kind14 >= 240

    @staticmethod
    def rel_err(closed, integrand):
        # the comparison of one sweep row, at the sweep's oracle tolerance
        oracle = integrate(integrand, 0.0, 1.0, 1e-13).value
        return abs(closed - oracle) / abs(closed)

    def test_z_zero_tight(self):
        for kind in (1, 2, 3, 4):
            args = (kind, 1.0, 1.0, 0.5, 1.0, 1.0)
            assert self.rel_err(lambda_value(*args),
                                lambda_integrand(*args)) <= 1e-13, kind
        assert self.rel_err(lambda5(1.0, 1.0),
                            lambda5_integrand(1.0, 1.0)) <= 1e-13

    def test_taylor_subgrid(self):
        for sign in (1.0, -1.0):
            theta = 1.5 * (1.0 - sign * 1e-5)
            assert self.rel_err(lambda5(theta, 1.5),
                                lambda5_integrand(theta, 1.5)) <= 1e-9

    def test_variant_breaks_consistency(self, monkeypatch):
        monkeypatch.setattr(verify, "lambda_value", canary_lambda_value)
        rows = lambda_consistency_rows()
        assert max(r["rel_err"] for r in rows) > 1e-3


def count_evals(monkeypatch, c):
    """Count each call of an eval_fn in c: under "gate_evals" for a gate's
    |f'|^q (its fn_id starts with '|'), else under "f_evals". No spec is
    built at import, so patching FunctionSpec.__init__ covers them all."""
    def counted(fn_id, eval_fn):
        key = "gate_evals" if fn_id.startswith("|") else "f_evals"

        def counted_eval(x):
            c[key] += 1
            return eval_fn(x)
        return counted_eval

    init = FunctionSpec.__init__

    def counted_init(spec, fn_id, eval_fn, deriv_fn=None):
        init(spec, fn_id, counted(fn_id, eval_fn), deriv_fn)

    monkeypatch.setattr(FunctionSpec, "__init__", counted_init)


@pytest.fixture
def counts(monkeypatch):
    """Count eval_fn calls by fn_id prefix (see count_evals), 2F1
    evaluations of the lambda weights, and the distinct argument tuples
    asked for."""
    c = Counter()
    asked = set()
    hyp2f1 = bounds.hyp2f1
    lambda_value = bounds.lambda_value

    def counted_hyp2f1(*args):
        c["hyp2f1"] += 1
        return hyp2f1(*args)

    def recorded_lambda(*args):
        c["lambda_calls"] += 1
        asked.add(args)
        return lambda_value(*args)

    count_evals(monkeypatch, c)
    monkeypatch.setattr(bounds, "hyp2f1", counted_hyp2f1)
    monkeypatch.setattr(bounds, "lambda_value", recorded_lambda)
    c.asked = asked
    return c


class TestReuse:
    # a 16 x 16 gate tabulates its nodes, 120 pairs x < y over the 15 t in
    # (0, 1) and 16 pairs x == y over the 8 t in (0, 1/2]; at t = 0 and
    # t = 1 the combined point is a node
    GATE_TABLE_EVALS = 16 + 120 * 15 + 16 * 8

    def test_matrix_builds_one_gate_table_per_fn_interval_q(self, counts):
        reports = run_ostrowski_matrix()
        assert len(reports) == 192
        # 6 functions x 2 intervals x 2 q, not 192 gates
        assert counts["gate_evals"] == 24 * self.GATE_TABLE_EVALS

    @pytest.mark.parametrize("sweep", [run_ostrowski_matrix, min_corollary_gap])
    def test_sweep_computes_each_lambda_weight_once(self, counts, sweep):
        sweep()
        # a weight depends on the interval, x, s and (vartheta, rho), not on
        # f: 2 intervals x 2 s x 4 (vartheta, rho) x 32 plus 2 x 16 for T2_7
        assert counts["hyp2f1"] == len(counts.asked) == 544
        assert counts["lambda_calls"] > 10 * 544

    def test_memo_ends_with_the_run(self, counts):
        totals = []
        for _ in range(2):
            counts.clear()
            run_battery()
            totals.append(dict(counts))
        # a cache that outlived the first run would cut the second's counts
        assert totals[0] == totals[1]
        # the lambda sweep's 240 rows plus the 544 weights the matrix and
        # the corollary sweep share
        assert totals[0]["hyp2f1"] == 240 + 544
        # 24 gate tables, and 127,776 evaluations of f itself
        assert totals[0]["gate_evals"] == 24 * self.GATE_TABLE_EVALS
        assert totals[0]["f_evals"] + totals[0]["gate_evals"] <= 175_000
