"""Closed-form bound evaluators: lambda family, chains, Ostrowski sides."""

import json
import math

import pytest
from conftest import canary_lambda_value
from hypothesis import given, settings
from hypothesis import strategies as st

from hsconvex.bounds import (BoundResult, ConjugatePair, LambdaArgs,
                             classic_ostrowski_rhs, hh_harmonic_bounds,
                             hh_s_convex_bounds, lambda5, lambda5_integrand,
                             lambda_integrand, lambda_value, ostrowski_lhs,
                             ostrowski_rhs, validate_q, validate_s)
from hsconvex.cli import main
from hsconvex.errors import DomainError
from hsconvex.numeric import FunctionSpec, Interval, get_function, integrate


class TestValidators:
    def test_s_range(self):
        assert validate_s(0.5) == 0.5
        assert validate_s(1.0) == 1.0
        for bad in (0.0, -0.1, 1.1, math.nan, math.inf):
            with pytest.raises(DomainError):
                validate_s(bad)

    def test_q_range(self):
        assert validate_q(1.0) == 1.0
        for bad in (0.99, 0.0, -2.0, math.nan):
            with pytest.raises(DomainError):
                validate_q(bad)


class TestConjugatePair:
    def test_valid(self):
        pair = ConjugatePair(2.0, 2.0)
        assert (pair.p, pair.q) == (2.0, 2.0)
        pair = ConjugatePair.from_p(4.0)
        assert pair.q == pytest.approx(4.0 / 3.0, rel=1e-15)
        pair = ConjugatePair.from_q(1.5)
        assert pair.p == pytest.approx(3.0, rel=1e-15)

    def test_invalid(self):
        with pytest.raises(DomainError):
            ConjugatePair(2.0, 3.0)       # 1/2 + 1/3 != 1
        with pytest.raises(DomainError):
            ConjugatePair(1.0, math.inf)  # p must exceed 1
        with pytest.raises(DomainError):
            ConjugatePair.from_p(1.0)


class TestLambdaArgs:
    def test_side_ordering(self):
        LambdaArgs(1, 1.0, 2.0, 1.0, 1.0, 1.0)   # a-side, theta <= x
        LambdaArgs(3, 2.0, 1.0, 1.0, 1.0, 1.0)   # b-side, x <= theta
        with pytest.raises(DomainError):
            LambdaArgs(1, 2.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            LambdaArgs(3, 1.0, 2.0, 1.0, 1.0, 1.0)

    def test_parameter_ranges(self):
        with pytest.raises(DomainError):
            LambdaArgs(5, 1.0, 2.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            LambdaArgs(1, 0.0, 2.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            LambdaArgs(1, 1.0, 2.0, -0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            LambdaArgs(1, 1.0, 2.0, 1.0, 0.0, 1.0)

    def test_z_cap(self):
        # theta/x so extreme that z sits against the 2F1 singularity
        with pytest.raises(DomainError):
            LambdaArgs(1, 1e-13, 1.0, 1.0, 1.0, 1.0)

    def test_z_property(self):
        assert LambdaArgs(1, 1.0, 2.0, 1.0, 1.0, 1.0).z == 0.5
        assert LambdaArgs(3, 2.0, 1.0, 1.0, 1.0, 1.0).z == 0.5


class TestLambdaValue:
    def test_z_zero_elementary(self):
        # theta = x makes the integrand t^(rho+s) / x^(2vt)
        for kind, expected in ((1, 1.0 / 3.0), (3, 1.0 / 3.0)):
            args = LambdaArgs(kind, 2.0, 2.0, 1.0, 1.0, 1.0)
            assert lambda_value(args) == pytest.approx(expected / 4.0, rel=1e-13)

    def test_reference_value(self):
        # int_0^1 t^2/(2-t)^2 dt = 3 - 4 ln 2
        args = LambdaArgs(1, 1.0, 2.0, 1.0, 1.0, 1.0)
        assert lambda_value(args) == pytest.approx(3.0 - 4.0 * math.log(2.0),
                                                   rel=1e-12)

    def test_kinds_1_2_coincide_at_s_zero(self):
        for kind_pair in ((1, 2), (3, 4)):
            theta, x = (1.0, 1.7) if kind_pair == (1, 2) else (1.7, 1.0)
            v = [lambda_value(LambdaArgs(k, theta, x, 0.0, 1.5, 2.0))
                 for k in kind_pair]
            assert v[0] == pytest.approx(v[1], rel=1e-12)

    def test_additivity_against_single_quadrature(self):
        # lambda1 + lambda2 = int t^rho (t^s + (1-t)^s) / denom^(2vt)
        for s in (0.25, 1.0):
            for vt, rho in ((1.0, 1.0), (2.0, 2.0)):
                a1 = LambdaArgs(1, 1.0, 1.8, s, vt, rho)
                a2 = LambdaArgs(2, 1.0, 1.8, s, vt, rho)
                total = lambda_value(a1) + lambda_value(a2)

                def integrand(t):
                    denom = (t * 1.0 + (1.0 - t) * 1.8) ** (2.0 * vt)
                    return t ** rho * (t ** s + (1.0 - t) ** s) / denom

                ref = integrate(integrand, 0.0, 1.0, 1e-12).value
                assert total == pytest.approx(ref, rel=1e-9)

    def test_oracle_agreement_spot(self):
        args = LambdaArgs(4, 1.9, 1.0, 0.75, 1.5, 1.5)
        oracle = integrate(lambda_integrand(args), 0.0, 1.0, 1e-12).value
        assert lambda_value(args) == pytest.approx(oracle, rel=1e-10)

    def test_variant_disagrees_for_positive_s(self):
        args = LambdaArgs(2, 1.0, 1.5, 1.0, 1.0, 1.0)
        honest = lambda_value(args)
        variant = canary_lambda_value(args)
        assert abs(variant - honest) / honest > 0.1

    def test_variant_harmless_at_s_zero(self):
        # beta(rho+1, 1) equals beta(rho+1, s+1) when s = 0
        args = LambdaArgs(2, 1.0, 1.5, 0.0, 1.0, 1.0)
        assert canary_lambda_value(args) == lambda_value(args)


class TestLambda5:
    def test_equal_arguments(self):
        assert lambda5(1.0, 1.0) == 0.5
        assert lambda5(1.5, 1.5) == pytest.approx(1.0 / 4.5, rel=1e-15)

    def test_reference_values(self):
        assert lambda5(1.0, 2.0) == pytest.approx(1.0 - math.log(2.0), rel=1e-13)
        assert lambda5(2.0, 1.5) == pytest.approx(0.1507282898071237, rel=1e-12)

    def test_symmetric_roles_not_equal(self):
        # the weight is not symmetric in (theta, x)
        assert lambda5(1.0, 2.0) != lambda5(2.0, 1.0)

    def test_branch_handoff(self):
        # values just inside and outside the Taylor switch must agree
        x = 1.5
        for mag in (0.99e-4, 1.01e-4):
            for sign in (1.0, -1.0):
                theta = x * (1.0 - sign * mag)
                ref = integrate(lambda5_integrand(theta, x), 0.0, 1.0,
                                1e-13).value
                assert lambda5(theta, x) == pytest.approx(ref, rel=1e-9)

    @given(st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=150, deadline=None)
    def test_positive_and_bounded(self, theta, x):
        v = lambda5(theta, x)
        # integrand is bounded by t/min(theta,x)^2 and below by t/max^2
        lo = 0.5 / max(theta, x) ** 2
        hi = 0.5 / min(theta, x) ** 2
        assert lo - 1e-12 <= v <= hi + 1e-12

    def test_x_far_below_theta(self, capsys):
        # (x - theta)/theta rounds to exactly -1, where log1p(-1) has no
        # value; the reference is the closed form in mpmath
        code = main(["lambda", "--kind", "5", "--theta", "1", "--x", "1e-300"])
        assert code == 0
        value = json.loads(capsys.readouterr().out)["value"]
        assert value == pytest.approx(689.77552789821370, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            lambda5(0.0, 1.0)
        with pytest.raises(DomainError):
            lambda5(1.0, -2.0)


class TestHHChains:
    def test_harmonic_identity_function(self):
        left, middle, right = hh_harmonic_bounds(get_function("id"),
                                                 Interval(1.0, 2.0), 1.0)
        assert left == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert middle == pytest.approx(2.0 * math.log(2.0), abs=1e-10)
        assert right == pytest.approx(1.5, rel=1e-15)

    def test_harmonic_constant_sharp_at_s1(self):
        left, middle, right = hh_harmonic_bounds(get_function("const:2"),
                                                 Interval(1.0, 2.0), 1.0)
        assert left == pytest.approx(2.0, rel=1e-12)
        assert middle == pytest.approx(2.0, rel=1e-11)
        assert right == pytest.approx(2.0, rel=1e-12)

    def test_harmonic_constant_s_half(self):
        c = 2.0
        left, middle, right = hh_harmonic_bounds(get_function("const:2"),
                                                 Interval(1.0, 2.0), 0.5)
        assert left == pytest.approx(c / math.sqrt(2.0), rel=1e-12)
        assert middle == pytest.approx(c, rel=1e-11)
        assert right == pytest.approx(4.0 * c / 3.0, rel=1e-12)

    def test_arithmetic_linear_equality(self):
        triple = hh_s_convex_bounds(get_function("id"), 0.0, 1.0, 1.0)
        for v in triple:
            assert v == pytest.approx(0.5, abs=1e-12)

    def test_arithmetic_square(self):
        left, middle, right = hh_s_convex_bounds(get_function("pow:2"),
                                                 0.0, 1.0, 1.0)
        assert left == pytest.approx(0.25, rel=1e-15)
        assert middle == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert right == pytest.approx(0.5, rel=1e-15)

    def test_arithmetic_rejects_negative_a(self):
        with pytest.raises(DomainError):
            hh_s_convex_bounds(get_function("id"), -0.5, 1.0, 1.0)

    def test_arithmetic_evaluates_zero_endpoint_once(self):
        points = []

        def square(x):
            points.append(x)
            return x * x

        right = hh_s_convex_bounds(FunctionSpec("sq", square), 0.0, 1.0, 1.0)[2]
        assert right == 0.5
        assert points.count(0.0) == 1

    def test_middle_split_invariance(self):
        # the weighted mean must not depend on how the quadrature is split
        f = get_function("pow:2")
        a, b = 0.5, 3.0
        whole = hh_harmonic_bounds(f, Interval(a, b), 1.0)[1]
        for cut in (0.77, 1.5, 2.9):
            part = (integrate(lambda u: f(u) / (u * u), a, cut).value
                    + integrate(lambda u: f(u) / (u * u), cut, b).value)
            split = a * b / (b - a) * part
            assert split == pytest.approx(whole, abs=1e-10)


class TestClassicOstrowski:
    def test_midpoint_minimum(self):
        iv = Interval(1.0, 3.0)
        assert classic_ostrowski_rhs(2.0, iv, 1.5) == pytest.approx(
            1.5 * 2.0 / 4.0, rel=1e-15)

    def test_endpoint(self):
        iv = Interval(1.0, 3.0)
        assert classic_ostrowski_rhs(1.0, iv, 2.0) == pytest.approx(
            2.0 * 2.0 / 2.0, rel=1e-15)

    def test_zero_bound(self):
        assert classic_ostrowski_rhs(1.5, Interval(1.0, 2.0), 0.0) == 0.0

    def test_x_outside(self):
        with pytest.raises(DomainError):
            classic_ostrowski_rhs(0.5, Interval(1.0, 2.0), 1.0)


class TestOstrowskiLhs:
    def test_constant_zero(self):
        assert ostrowski_lhs(get_function("const:2"), 1.5,
                             Interval(1.0, 2.0)) == pytest.approx(0.0, abs=1e-11)

    def test_identity_at_weighted_mean(self):
        x = 2.0 * math.log(2.0)
        assert ostrowski_lhs(get_function("id"), x,
                             Interval(1.0, 2.0)) == pytest.approx(0.0, abs=1e-10)

    def test_identity_at_midpoint(self):
        assert ostrowski_lhs(get_function("id"), 1.5,
                             Interval(1.0, 2.0)) == pytest.approx(
            abs(1.5 - 2.0 * math.log(2.0)), abs=1e-10)


class TestOstrowskiRhs:
    IV = Interval(1.0, 2.0)

    def test_t2_3_telescopes_to_lambda5(self):
        # f(x)=x, s=1, q=1: lambda1+lambda2 at (vt,rho)=(1,1) reduces to the
        # degenerate weight, so the rhs is elementary
        rhs = ostrowski_rhs("T2_3", get_function("id"), 1.5, self.IV, 1.0, 1.0)
        expected = 2.0 * (0.25 * lambda5(1.0, 1.5) + 0.25 * lambda5(2.0, 1.5))
        assert rhs == pytest.approx(expected, rel=1e-12)
        assert rhs == pytest.approx(0.2644339286872331, rel=1e-10)

    def test_structural_zero_at_endpoints(self):
        f = get_function("pow:2")
        at_a = ostrowski_rhs("T2_3", f, 1.0, self.IV, 1.0, 2.0)
        at_b = ostrowski_rhs("T2_3", f, 2.0, self.IV, 1.0, 2.0)
        assert math.isfinite(at_a) and at_a > 0.0
        assert math.isfinite(at_b) and at_b > 0.0
        # the a-side factor (x-a)^2 vanishes: only the b-side remains
        lam3 = lambda_value(LambdaArgs(3, 2.0, 1.0, 1.0, 2.0, 2.0))
        lam4 = lambda_value(LambdaArgs(4, 2.0, 1.0, 1.0, 2.0, 2.0))
        dx, db = 2.0, 4.0  # |f'(1)|, |f'(2)|
        manual = 2.0 * (lam3 * dx ** 2 + lam4 * db ** 2) ** 0.5
        assert at_a == pytest.approx(manual, rel=1e-12)

    def test_corollary_zero_m(self):
        for theorem in ("T2_3", "T2_4", "T2_5"):
            assert ostrowski_rhs(theorem, get_function("pow:2"), 1.5, self.IV,
                                 1.0, 2.0, M=0.0) == 0.0
        pair = ConjugatePair(2.0, 2.0)
        for theorem in ("T2_6", "T2_7"):
            assert ostrowski_rhs(theorem, get_function("pow:2"), 1.5, self.IV,
                                 1.0, pair, M=0.0) == 0.0

    def test_corollary_linear_in_m(self):
        pair = ConjugatePair(2.0, 2.0)
        for theorem, q in (("T2_3", 2.0), ("T2_4", 1.0), ("T2_5", 3.0),
                           ("T2_6", pair), ("T2_7", pair)):
            r1 = ostrowski_rhs(theorem, get_function("inv"), 1.3, self.IV,
                               0.5, q, M=0.7)
            r2 = ostrowski_rhs(theorem, get_function("inv"), 1.3, self.IV,
                               0.5, q, M=1.4)
            assert r2 == pytest.approx(2.0 * r1, rel=1e-12)

    def test_t2_5_q1_drops_side_weights(self):
        # at q=1 the lambda5^(1-1/q) factors are exactly 1, so T2_5 and T2_3
        # coincide (both reduce to the same (vt,rho)=(1,1) bracket)
        f = get_function("pow:2")
        r5 = ostrowski_rhs("T2_5", f, 1.4, self.IV, 0.5, 1.0)
        r3 = ostrowski_rhs("T2_3", f, 1.4, self.IV, 0.5, 1.0)
        assert r5 == pytest.approx(r3, rel=1e-13)

    def test_requires_pair_for_holder(self):
        with pytest.raises(DomainError):
            ostrowski_rhs("T2_6", get_function("id"), 1.5, self.IV, 1.0, 2.0)
        with pytest.raises(DomainError):
            ostrowski_rhs("T2_7", get_function("id"), 1.5, self.IV, 1.0, 2.0)

    def test_unknown_theorem(self):
        with pytest.raises(DomainError):
            ostrowski_rhs("T2_2", get_function("id"), 1.5, self.IV, 1.0, 1.0)

    @given(st.floats(min_value=1.0, max_value=2.0),
           st.sampled_from([0.5, 0.75, 1.0]),
           st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative(self, x, s, q):
        for theorem in ("T2_3", "T2_4", "T2_5"):
            assert ostrowski_rhs(theorem, get_function("pow:2"), x, self.IV,
                                 s, q) >= 0.0


class TestBoundResult:
    def test_round_trip(self):
        r = BoundResult("T2_3", 1.5, 1.0, 2.0, 1.0, 2.0, None, None,
                        lhs=0.1, rhs=0.3, slack=0.2, hypothesis_ok=True)
        d = r.to_dict()
        assert d["theorem"] == "T2_3"
        assert d["slack"] == 0.2
        assert d["p"] is None
        assert d["fd_fallback"] is False
