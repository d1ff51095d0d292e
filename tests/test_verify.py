"""Referee-layer tests: lemma residual, theorem gating, oracle consistency."""

import math

import pytest
from conftest import canary_lambda_value

from hsconvex.bounds import ConjugatePair
from hsconvex.errors import DomainError
from hsconvex.numeric import Interval, get_function
from hsconvex.verify import (DEFAULT_LAMBDA_GRID, LambdaGrid, SLACK_TOL,
                             VerifyReport, lambda_consistency_rows,
                             lemma_residual, matrix_summary,
                             min_corollary_gap, run_ostrowski_matrix,
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
                             Interval(0.25, 1.0), 0.5)
        assert rep.hypothesis_ok
        assert rep.passed
        assert len(rep.results) == 2
        assert {r.theorem for r in rep.results} == {"T2_2_left", "T2_2_right"}
        assert all(r.slack >= -1e-12 for r in rep.results)

    def test_t2_3_identity(self):
        rep = verify_theorem("T2_3", get_function("id"), IV12, 1.0, 1.0)
        assert rep.passed
        # the bound is exactly sharp at both endpoints for f(x)=x, s=q=1,
        # so the minimum slack is zero up to a last-place rounding wiggle
        assert rep.min_slack >= -1e-12
        assert len(rep.results) == 9
        interior = [r.slack for r in rep.results[1:-1]]
        assert min(interior) > 1e-3
        # the x = 1.5 row reproduces the reference pair of values
        row = rep.results[4]
        assert row.x == pytest.approx(1.5)
        assert row.lhs == pytest.approx(abs(1.5 - 2.0 * math.log(2.0)), abs=1e-9)
        assert row.rhs == pytest.approx(0.2644339286872331, rel=1e-9)

    def test_gate_failure_empties_results(self):
        rep = verify_theorem("T2_2", get_function("neg"), IV12, 1.0)
        assert not rep.hypothesis_ok
        assert not rep.passed
        assert rep.results == []
        assert rep.min_slack is None

    def test_gate_is_on_derivative_for_ostrowski(self):
        # |f'|^q of neg is the constant 1, which is harmonically s-convex,
        # so the Ostrowski gates pass even though f itself is not
        rep = verify_theorem("T2_3", get_function("neg"), IV12, 1.0, 1.0)
        assert rep.hypothesis_ok
        assert rep.passed

    def test_sqrt_gate_depends_on_s(self):
        f = get_function("pow:0.5")
        # 0.5/sqrt(u) is not harmonically 1-convex ...
        rep1 = verify_theorem("T2_3", f, IV12, 1.0, 1.0)
        assert not rep1.hypothesis_ok
        # ... but is harmonically 0.5-convex
        rep2 = verify_theorem("T2_3", f, IV12, 0.5, 1.0)
        assert rep2.hypothesis_ok
        assert rep2.passed

    def test_pair_theorems(self):
        pair = ConjugatePair(2.0, 2.0)
        for theorem in ("T2_6", "T2_7"):
            rep = verify_theorem(theorem, get_function("pow:2"), IV12, 1.0, pair)
            assert rep.hypothesis_ok and rep.passed, theorem
            with pytest.raises(DomainError):
                verify_theorem(theorem, get_function("pow:2"), IV12, 1.0, 2.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            verify_theorem("T9_9", get_function("id"), IV12, 1.0, 1.0)
        with pytest.raises(DomainError):
            verify_theorem("T2_3", get_function("id"), IV12, 1.0, None)
        with pytest.raises(DomainError):
            verify_theorem("T2_3", get_function("id"), IV12, 1.0, 1.0, x_grid=0)

    def test_deterministic_serialization(self):
        r1 = verify_theorem("T2_4", get_function("pow:2"), IV12, 0.5, 2.0)
        r2 = verify_theorem("T2_4", get_function("pow:2"), IV12, 0.5, 2.0)
        assert r1.to_dict() == r2.to_dict()

    def test_report_invariants(self):
        rep = verify_theorem("T2_5", get_function("inv"), IV12, 1.0, 2.0)
        assert isinstance(rep, VerifyReport)
        assert rep.min_slack == min(r.slack for r in rep.results)
        assert rep.passed == (rep.hypothesis_ok and rep.min_slack >= -SLACK_TOL)
        d = rep.to_dict()
        assert d["pass"] is rep.passed
        assert d["grid"]["fn"] == "inv"


class TestLambdaConsistency:
    def test_rows_cover_all_kinds(self):
        rows = lambda_consistency_rows()
        kinds = {r["kind"] for r in rows}
        assert kinds == {1, 2, 3, 4, 5}
        n_kind14 = sum(1 for r in rows if r["kind"] <= 4)
        assert n_kind14 >= 240

    def test_z_zero_tight(self):
        grid = LambdaGrid(pairs_a=((1.0, 1.0),), s_values=(0.5,),
                          vartheta_rho=((1.0, 1.0),),
                          lambda5_points=((1.0, 1.0),))
        rows = lambda_consistency_rows(grid)
        assert all(r["rel_err"] <= 1e-13 for r in rows)

    def test_taylor_subgrid(self):
        pts = tuple((1.5 * (1.0 - sign * 1e-5), 1.5) for sign in (1.0, -1.0))
        grid = LambdaGrid(lambda5_points=pts)
        rows = [r for r in lambda_consistency_rows(grid) if r["kind"] == 5]
        assert rows
        assert all(r["rel_err"] <= 1e-9 for r in rows)

    def test_variant_breaks_consistency(self):
        rows = lambda_consistency_rows(closed_form=canary_lambda_value)
        assert max(r["rel_err"] for r in rows) > 1e-3


class TestMatrix:
    def test_summary_shape_and_coverage(self):
        # a trimmed matrix keeps this test quick; the full sweep is the
        # acceptance suite's job
        reports = run_ostrowski_matrix(fn_ids=("id", "pow:2", "neg"),
                                       s_values=(1.0,), q_values=(1.0,),
                                       intervals=((1.0, 2.0),))
        summary = matrix_summary(reports)
        assert summary["reports"] == len(reports) > 0
        assert summary["gated"] > 0
        assert len(summary["gated_pairs"]) >= 5
        assert summary["failed"] == []
        assert summary["min_slack"] >= -SLACK_TOL

    def test_corollary_gap_nonnegative(self):
        gap = min_corollary_gap(fn_ids=("pow:2", "inv"), s_values=(1.0,),
                                q_values=(2.0,), intervals=((1.0, 2.0),))
        assert gap >= -1e-12
