"""Closed-form bound evaluators: lambda family, chains, Ostrowski sides."""

import json
import math
import random
import re

import mpmath
import pytest
from conftest import canary_lambda_value, lambda_shapes
from hypothesis import given, settings
from hypothesis import strategies as st

from hsconvex import bounds
from hsconvex.bounds import (OSTROWSKI_THEOREMS, classic_ostrowski_rhs,
                             hh_harmonic_bounds, hh_s_convex_bounds, lambda5,
                             lambda5_integrand, lambda_integrand, lambda_memo,
                             lambda_value, lambda_z, ostrowski_lhs,
                             ostrowski_rhs, resolve_exponents, validate_q)
from hsconvex.cli import main
from hsconvex.errors import DomainError, NumericError
from hsconvex.numeric import (FunctionSpec, Interval, get_function, integrate,
                              validate_s)


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


THEOREMS = ("T2_2", "classic") + bounds.OSTROWSKI_THEOREMS


class TestConjugatePair:
    """resolve_exponents: the one check of a theorem's (q, p)."""

    def test_valid(self):
        assert resolve_exponents("T2_6", 2.0, 2.0) == (2.0, 2.0)
        q, p = resolve_exponents("T2_7", None, 4.0)
        assert (q, p) == (pytest.approx(4.0 / 3.0, rel=1e-15), 4.0)
        q, p = resolve_exponents("T2_6", 1.5, None)
        assert (q, p) == (1.5, pytest.approx(3.0, rel=1e-15))
        assert resolve_exponents("T2_4", 2.5, None) == (2.5, None)
        assert resolve_exponents("T2_2", None, None) == (None, None)
        assert resolve_exponents("classic", None, None) == (None, None)

    # each message of the exponent checks, word for word
    INVALID = [
        ("T2_6", 3.0, 2.0, "1/p + 1/q must equal 1, got p=2.0, q=3.0"),
        ("T2_6", math.inf, 1.0, "conjugate exponents must exceed 1, got (1.0, inf)"),
        ("T2_7", 0.5, 2.0, "conjugate exponents must exceed 1, got (2.0, 0.5)"),
        ("T2_7", None, 1.0, "p must exceed 1, got 1.0"),
        ("T2_7", None, math.nan, "p must exceed 1, got nan"),
        ("T2_6", 1.0, None, "q must exceed 1, got 1.0"),
        ("T2_7", None, 1e300, "conjugate exponents must exceed 1, got (1e+300, 1.0)"),
        ("T2_6", None, None, "T2_6 needs conjugate exponents: give --p, --q or both"),
        ("T2_3", None, None, "T2_3 needs --q (a power-mean exponent >= 1)"),
        ("T2_5", 0.5, None, "q must satisfy q >= 1, got 0.5"),
        ("T2_4", 2.0, 2.0, "T2_4 takes no --p: give --q alone"),
        ("T2_2", 2.0, None, "T2_2 takes no exponents: drop --q and --p"),
        ("classic", None, 2.0, "classic takes no exponents: drop --q and --p"),
    ]

    def test_invalid(self):
        for theorem, q, p, message in self.INVALID:
            with pytest.raises(DomainError) as exc:
                resolve_exponents(theorem, q, p)
            assert str(exc.value) == message

    def test_resolved_exponents_come_back_unchanged(self):
        values = (None, math.nan, -1.0, 0.5, 1.0, 1.0 + 1e-15, 1.25, 4.0 / 3.0,
                  1.5, 2.0, 3.0, 7.0, 1e6, 1e300, math.inf)
        resolved = 0
        for theorem in THEOREMS:
            for q in values:
                for p in values:
                    try:
                        once = resolve_exponents(theorem, q, p)
                    except DomainError:
                        continue
                    resolved += 1
                    assert resolve_exponents(theorem, *once) == once, (
                        theorem, q, p)
        assert resolved > 30


class TestLambdaArgs:
    """lambda_z: the one check of a lambda argument tuple."""

    def test_side_ordering(self):
        lambda_z(1, 1.0, 2.0, 1.0, 1.0, 1.0)   # a-side, theta <= x
        lambda_z(3, 2.0, 1.0, 1.0, 1.0, 1.0)   # b-side, x <= theta
        with pytest.raises(DomainError):
            lambda_z(1, 2.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            lambda_z(3, 1.0, 2.0, 1.0, 1.0, 1.0)

    def test_parameter_ranges(self):
        with pytest.raises(DomainError):
            lambda_z(5, 1.0, 2.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            lambda_z(1, 0.0, 2.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            lambda_z(1, 1.0, 2.0, -0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            lambda_z(1, 1.0, 2.0, 1.0, 0.0, 1.0)

    def test_z_cap(self):
        # theta/x so extreme that z sits against the 2F1 singularity
        with pytest.raises(DomainError):
            lambda_z(1, 1e-13, 1.0, 1.0, 1.0, 1.0)

    def test_z_property(self):
        assert lambda_z(1, 1.0, 2.0, 1.0, 1.0, 1.0) == 0.5
        assert lambda_z(3, 2.0, 1.0, 1.0, 1.0, 1.0) == 0.5

    # each message, raised by the first check a tuple fails, in the order
    # the checks run
    MESSAGES = [
        ((0, 1.0, 2.0, 1.0, 1.0, 1.0), "kind must be 1..4, got 0"),
        ((1, math.nan, 2.0, -1.0, 1.0, 1.0), "theta must be positive, got nan"),
        ((1, 1.0, 0.0, -1.0, 1.0, 1.0), "x must be positive, got 0.0"),
        ((1, 2.0, 1.0, -0.5, 0.0, 1.0), "s must be nonnegative, got -0.5"),
        ((1, 2.0, 1.0, 1.0, math.inf, -1.0),
         "vartheta must be positive, got inf"),
        ((1, 2.0, 1.0, 1.0, 1.0, -1.0), "rho must be nonnegative, got -1.0"),
        ((2, 2.0, 1.0, 1.0, 1.0, 1.0),
         "kinds 1, 2 are a-side weights and require theta <= x, "
         "got theta=2.0, x=1.0"),
        ((4, 1.0, 2.0, 1.0, 1.0, 1.0),
         "kinds 3, 4 are b-side weights and require x <= theta, "
         "got theta=1.0, x=2.0"),
        ((3, 1.0, 1e-13, 1.0, 1.0, 1.0),
         "z=0.9999999999999 too close to 1 (theta/x ratio too extreme)"),
    ]

    @pytest.mark.parametrize("args, message", MESSAGES)
    def test_every_message(self, args, message):
        for check in (lambda_z, lambda_value, lambda_integrand):
            with pytest.raises(DomainError) as exc:
                check(*args)
            assert str(exc.value) == message

    @pytest.mark.parametrize("args, message", MESSAGES)
    def test_invalid_tuple_is_refused_each_time_and_never_stored(
            self, args, message, checks):
        with lambda_memo():
            for n in (1, 2, 3):
                with pytest.raises(DomainError, match=re.escape(message)):
                    lambda_value(*args)
                # a stored tuple would come back without its check
                assert checks == [args] * n

    def test_memo_hit_skips_the_check_and_is_bit_identical(self, checks):
        args = (4, 1.9, 1.0, 0.75, 1.5, 1.5)
        fresh = lambda_value(*args)
        with lambda_memo():
            first = lambda_value(*args)
            hit = lambda_value(*args)
        assert checks == [args, args]
        assert fresh.hex() == first.hex() == hit.hex()


@pytest.fixture
def checks(monkeypatch):
    """The argument tuples lambda_value checks (lambda_z), in call order."""
    seen = []

    def recorded_z(*args):
        seen.append(args)
        return lambda_z(*args)

    monkeypatch.setattr(bounds, "lambda_z", recorded_z)
    return seen


class TestLambdaValue:
    def test_z_zero_elementary(self):
        # theta = x makes the integrand t^(rho+s) / x^(2vt)
        for kind, expected in ((1, 1.0 / 3.0), (3, 1.0 / 3.0)):
            args = (kind, 2.0, 2.0, 1.0, 1.0, 1.0)
            assert lambda_value(*args) == pytest.approx(expected / 4.0, rel=1e-13)

    def test_reference_value(self):
        # int_0^1 t^2/(2-t)^2 dt = 3 - 4 ln 2
        assert lambda_value(1, 1.0, 2.0, 1.0, 1.0, 1.0) == pytest.approx(
            3.0 - 4.0 * math.log(2.0), rel=1e-12)

    def test_kinds_1_2_coincide_at_s_zero(self):
        for kind_pair in ((1, 2), (3, 4)):
            theta, x = (1.0, 1.7) if kind_pair == (1, 2) else (1.7, 1.0)
            v = [lambda_value(k, theta, x, 0.0, 1.5, 2.0)
                 for k in kind_pair]
            assert v[0] == pytest.approx(v[1], rel=1e-12)

    def test_additivity_against_single_quadrature(self):
        # lambda1 + lambda2 = int t^rho (t^s + (1-t)^s) / denom^(2vt)
        for s in (0.25, 1.0):
            for vt, rho in ((1.0, 1.0), (2.0, 2.0)):
                total = (lambda_value(1, 1.0, 1.8, s, vt, rho)
                         + lambda_value(2, 1.0, 1.8, s, vt, rho))

                def integrand(t):
                    denom = (t * 1.0 + (1.0 - t) * 1.8) ** (2.0 * vt)
                    return t ** rho * (t ** s + (1.0 - t) ** s) / denom

                ref = integrate(integrand, 0.0, 1.0, 1e-12).value
                assert total == pytest.approx(ref, rel=1e-9)

    def test_oracle_agreement_spot(self):
        args = (4, 1.9, 1.0, 0.75, 1.5, 1.5)
        oracle = integrate(lambda_integrand(*args), 0.0, 1.0, 1e-12).value
        assert lambda_value(*args) == pytest.approx(oracle, rel=1e-10)

    def test_against_mpmath_up_to_one(self):
        # kinds 1..4 over z in [0, 1 - 1e-10], vartheta <= 6, rho <= 6 and
        # s in [0, 1]; every other weight has m = c - a - b an integer or
        # within 1e-14..1e-3 of one. The reference takes the float z of
        # args, so it measures the evaluation, not the rounding of z.
        rng = random.Random(5)
        worst = 0.0
        for kind, s, vartheta, rho, b, b2, c in lambda_shapes(5, 400):
            z = rng.choice((rng.random(), 1.0 - 10.0 ** rng.uniform(-10.0, -1.0)))
            theta, x = (1.0 - z, 1.0) if kind in (1, 2) else (1.0, 1.0 - z)
            args = (kind, theta, x, s, vartheta, rho)
            with mpmath.workdps(40):
                base = x if kind in (1, 2) else theta
                ref = (mpmath.beta(b, b2) / mpmath.mpf(base) ** (2 * vartheta)
                       * mpmath.hyp2f1(2 * vartheta, b, c, lambda_z(*args)))
                worst = max(worst, float(abs((lambda_value(*args) - ref) / ref)))
        assert worst <= 1e-10

    def test_variant_disagrees_for_positive_s(self):
        args = (2, 1.0, 1.5, 1.0, 1.0, 1.0)
        honest = lambda_value(*args)
        variant = canary_lambda_value(*args)
        assert abs(variant - honest) / honest > 0.1

    def test_variant_harmless_at_s_zero(self):
        # beta(rho+1, 1) equals beta(rho+1, s+1) when s = 0
        args = (2, 1.0, 1.5, 0.0, 1.0, 1.0)
        assert canary_lambda_value(*args) == lambda_value(*args)

    def test_memo_lives_for_its_outermost_block(self, monkeypatch):
        computed = []
        hyp2f1 = bounds.hyp2f1
        monkeypatch.setattr(bounds, "hyp2f1",
                            lambda *a: computed.append(a) or hyp2f1(*a))
        args = (1, 1.0, 1.5, 0.5, 1.0, 1.0)
        value = lambda_value(*args)
        with lambda_memo():
            assert lambda_value(*args) == value
            with lambda_memo():  # shares the enclosing block's memo
                assert lambda_value(*args) == value
            assert lambda_value(*args) == value
        assert len(computed) == 2
        lambda_value(*args)  # the memo ended with the block
        assert len(computed) == 3


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

    def test_in_range_values_are_unchanged(self):
        # where w*w is a normal float the bound is the expression it has
        # always been, bit for bit; only out-of-range w takes another form
        rng = random.Random(20)
        for _ in range(10_000):
            a = 10.0 ** rng.uniform(-140.0, 140.0)
            b = a * (1.0 + 10.0 ** rng.uniform(-6.0, 3.0))
            x = rng.choice((a, b, 0.5 * (a + b), rng.uniform(a, b)))
            M = 10.0 ** rng.uniform(-5.0, 5.0)
            w, mid = b - a, 0.5 * (a + b)
            assert 2.0 ** -1022 <= w * w < math.inf
            old = M * w * (0.25 + (x - mid) ** 2 / (w * w))
            assert classic_ostrowski_rhs(x, Interval(a, b), M).hex() == old.hex()


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
        rhs = ostrowski_rhs("T2_3", get_function("id"), 1.5, self.IV, 1.0, 1.0,
                            None)
        expected = 2.0 * (0.25 * lambda5(1.0, 1.5) + 0.25 * lambda5(2.0, 1.5))
        assert rhs == pytest.approx(expected, rel=1e-12)
        assert rhs == pytest.approx(0.2644339286872331, rel=1e-10)

    def test_structural_zero_at_endpoints(self):
        f = get_function("pow:2")
        at_a = ostrowski_rhs("T2_3", f, 1.0, self.IV, 1.0, 2.0, None)
        at_b = ostrowski_rhs("T2_3", f, 2.0, self.IV, 1.0, 2.0, None)
        assert math.isfinite(at_a) and at_a > 0.0
        assert math.isfinite(at_b) and at_b > 0.0
        # the a-side factor (x-a)^2 vanishes: only the b-side remains
        lam3 = lambda_value(3, 2.0, 1.0, 1.0, 2.0, 2.0)
        lam4 = lambda_value(4, 2.0, 1.0, 1.0, 2.0, 2.0)
        dx, db = 2.0, 4.0  # |f'(1)|, |f'(2)|
        manual = 2.0 * (lam3 * dx ** 2 + lam4 * db ** 2) ** 0.5
        assert at_a == pytest.approx(manual, rel=1e-12)

    def test_corollary_zero_m(self):
        for theorem in ("T2_3", "T2_4", "T2_5"):
            assert ostrowski_rhs(theorem, get_function("pow:2"), 1.5, self.IV,
                                 1.0, 2.0, None, M=0.0) == 0.0
        for theorem in ("T2_6", "T2_7"):
            assert ostrowski_rhs(theorem, get_function("pow:2"), 1.5, self.IV,
                                 1.0, 2.0, 2.0, M=0.0) == 0.0

    def test_corollary_linear_in_m(self):
        for theorem, q, p in (("T2_3", 2.0, None), ("T2_4", 1.0, None),
                              ("T2_5", 3.0, None), ("T2_6", 2.0, 2.0),
                              ("T2_7", 2.0, 2.0)):
            r1 = ostrowski_rhs(theorem, get_function("inv"), 1.3, self.IV,
                               0.5, q, p, M=0.7)
            r2 = ostrowski_rhs(theorem, get_function("inv"), 1.3, self.IV,
                               0.5, q, p, M=1.4)
            assert r2 == pytest.approx(2.0 * r1, rel=1e-12)

    def test_t2_5_q1_drops_side_weights(self):
        # at q=1 the lambda5^(1-1/q) factors are exactly 1, so T2_5 and T2_3
        # coincide (both reduce to the same (vt,rho)=(1,1) bracket)
        f = get_function("pow:2")
        r5 = ostrowski_rhs("T2_5", f, 1.4, self.IV, 0.5, 1.0, None)
        r3 = ostrowski_rhs("T2_3", f, 1.4, self.IV, 0.5, 1.0, None)
        assert r5 == pytest.approx(r3, rel=1e-13)

    def test_requires_pair_for_holder(self):
        for theorem in ("T2_6", "T2_7"):
            with pytest.raises(DomainError, match="needs conjugate exponents"):
                ostrowski_rhs(theorem, get_function("id"), 1.5, self.IV, 1.0,
                              None, None)
            # either exponent completes the pair
            rhs = ostrowski_rhs(theorem, get_function("id"), 1.5, self.IV,
                                1.0, 2.0, 2.0)
            assert ostrowski_rhs(theorem, get_function("id"), 1.5, self.IV,
                                 1.0, 2.0, None) == rhs
            assert ostrowski_rhs(theorem, get_function("id"), 1.5, self.IV,
                                 1.0, None, 2.0) == rhs

    def test_unknown_theorem(self):
        with pytest.raises(DomainError):
            ostrowski_rhs("T2_2", get_function("id"), 1.5, self.IV, 1.0, None,
                          None)

    # right answers of the scale probe below; every other point is refused
    SCALED_RIGHT = {"T2_3": 41, "T2_4": 41, "T2_5": 68, "T2_6": 41,
                    "T2_7": 51}

    @pytest.mark.parametrize("theorem", OSTROWSKI_THEOREMS)
    def test_scaled_power_law_is_right_or_refused(self, theorem):
        # for f = u^0.5 each closed form is covariant under u -> 2^k u, so
        # the rhs on 2^k [1, 2] at x = 1.5 2^k is 2^(k/2) times the one at
        # k = 0, or refused. A power-mean bracket that underflowed to 0
        # gave rhs 0 or a wrong sum at k = 210..250 (T2_5: 350..510)
        f, q = get_function("pow:0.5"), 2.0
        p = 2.0 if theorem in ("T2_6", "T2_7") else None
        unit = ostrowski_rhs(theorem, f, 1.5, self.IV, 0.5, q, p)
        right, wrong = 0, []
        for k in range(-1000, 1001, 10):
            iv = Interval(math.ldexp(1.0, k), math.ldexp(1.0, k + 1))
            try:
                rhs = ostrowski_rhs(theorem, f, math.ldexp(1.5, k), iv, 0.5,
                                    q, p)
            except NumericError:
                continue
            expected = math.ldexp(unit, k // 2)
            if abs(rhs - expected) <= 1e-12 * expected:
                right += 1
            else:
                wrong.append(k)
        assert wrong == []
        assert right >= self.SCALED_RIGHT[theorem]

    @given(st.floats(min_value=1.0, max_value=2.0),
           st.sampled_from([0.5, 0.75, 1.0]),
           st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative(self, x, s, q):
        for theorem in ("T2_3", "T2_4", "T2_5"):
            assert ostrowski_rhs(theorem, get_function("pow:2"), x, self.IV,
                                 s, q, None) >= 0.0



def paper_rhs(theorem: str, x: float, s: float, q: float, p, df) -> float:
    """(ab/(b-a)) [(x-a)^2 A + (b-x)^2 B] of Theorems 2.3-2.7 on [1, 2],
    with every lambda weight integrated from its defining integrand and
    df(u) standing for |f'(u)|."""
    a, b = 1.0, 2.0

    def quad(integrand) -> float:
        return integrate(integrand, 0.0, 1.0, 1e-13).value

    def lam(kind, theta, s_w, vt, rho) -> float:
        return quad(lambda_integrand(kind, theta, x, s_w, vt, rho))

    def power_mean(kinds, end, vt, rho) -> float:
        k_x, k_end = kinds
        return (lam(k_x, end, s, vt, rho) * df(x) ** q
                + lam(k_end, end, s, vt, rho) * df(end) ** q) ** (1.0 / q)

    def hoelder(kind, end) -> float:
        return (lam(kind, end, 0.0, p, p) ** (1.0 / p)
                * ((df(x) ** q + df(end) ** q) / (s + 1.0)) ** (1.0 / q))

    prefactor = 1.0
    if theorem == "T2_3":
        side_a = power_mean((1, 2), a, q, q)
        side_b = power_mean((3, 4), b, q, q)
    elif theorem == "T2_4":
        side_a = power_mean((1, 2), a, q, 1.0)
        side_b = power_mean((3, 4), b, q, 1.0)
        prefactor = 0.5 ** (1.0 - 1.0 / q)
    elif theorem == "T2_5":
        side_a = (power_mean((1, 2), a, 1.0, 1.0)
                  * quad(lambda5_integrand(a, x)) ** (1.0 - 1.0 / q))
        side_b = (power_mean((3, 4), b, 1.0, 1.0)
                  * quad(lambda5_integrand(b, x)) ** (1.0 - 1.0 / q))
    elif theorem == "T2_6":
        side_a = power_mean((1, 2), a, q, 0.0)
        side_b = power_mean((3, 4), b, q, 0.0)
        prefactor = (1.0 / (p + 1.0)) ** (1.0 / p)
    else:
        side_a, side_b = hoelder(1, a), hoelder(3, b)
    return a * b / (b - a) * prefactor * ((x - a) ** 2 * side_a
                                          + (b - x) ** 2 * side_b)


class TestOstrowskiRhsAgainstQuadrature:
    """Every theorem's rhs held against paper_rhs, at both ends and inside,
    for two s, two exponents and with and without M: a mix-up of kind, s or
    exponent in any end term shows here."""

    @pytest.mark.parametrize("theorem", bounds.OSTROWSKI_THEOREMS)
    def test_matches_assembled_formula(self, theorem):
        f = get_function("pow:2.5")
        if theorem in ("T2_6", "T2_7"):
            exponents = [(2.0, 2.0), (1.5, 3.0)]
        else:
            exponents = [(1.0, None), (2.5, None)]
        for x in (1.0, 1.3, 2.0):
            for s in (0.5, 1.0):
                for q, p in exponents:
                    for M in (None, 3.0):
                        rhs = ostrowski_rhs(theorem, f, x, Interval(1.0, 2.0),
                                            s, q, p, M=M)
                        df = ((lambda u: 2.5 * u ** 1.5) if M is None
                              else (lambda u: M))
                        expected = paper_rhs(theorem, x, s, q, p, df)
                        assert abs(rhs - expected) <= 1e-9 * expected, (
                            x, s, q, M)


def agree_or_both_refused(left, right, rel: float) -> bool:
    """Call both sides: True when both raise NumericError, else whether
    the values agree to rel relative to the right one."""
    values = []
    for side in (left, right):
        try:
            values.append(side())
        except NumericError:
            values.append(None)
    if None in values:
        return values == [None, None]
    return abs(values[0] - values[1]) <= rel * abs(values[1])


class TestLambdaIdentities:
    """Identities between closed forms with different 2F1 parameters. With
    D = t theta + (1 - t) x, the integrands t^(rho+1) + t^rho (1 - t) =
    t^rho, and at s = 0 both a-side (and both b-side) weights are
    t^rho / D^(2 vartheta), with t / D^2 the integrand of lambda5. No
    quadrature is involved, so they hold at every scale."""

    @staticmethod
    def inputs(n: int):
        # theta = 2^U(-30, 30), x = theta r on the a-side and theta / r on
        # the b-side for r up to 50, vartheta and rho up to 6
        rng = random.Random(13)
        for _ in range(n):
            theta = 2.0 ** rng.uniform(-30.0, 30.0)
            r = rng.uniform(1.0, 50.0)
            yield (theta, theta * r, theta / r, rng.uniform(0.01, 6.0),
                   rng.uniform(0.0, 6.0))

    def test_identities_hold_to_1e_13(self):
        for theta, xa, xb, vt, rho in self.inputs(300):
            def lam(kind, s, vt=vt, rho=rho):
                return lambda_value(kind, theta, xa if kind <= 2 else xb, s,
                                    vt, rho)
            identities = (
                (lambda: lam(1, 1.0) + lam(2, 1.0), lambda: lam(1, 0.0)),
                (lambda: lam(3, 1.0) + lam(4, 1.0), lambda: lam(3, 0.0)),
                (lambda: lam(2, 0.0), lambda: lam(1, 0.0)),
                (lambda: lam(1, 0.0, 1.0, 1.0), lambda: lambda5(theta, xa)),
            )
            for k, (left, right) in enumerate(identities):
                assert agree_or_both_refused(left, right, 1e-13), (
                    k, theta, xa, xb, vt, rho)


class TestSharpness:
    """For affine f at s = 1, |f'| is constant and one side of the lemma
    identity vanishes at an endpoint, so the triangle inequality behind
    T2_3, T2_4 (q = 1) and T2_5 (every q) is tight there: lhs = rhs at
    x = a and x = b, and these bounds are best possible."""

    INTERVALS = ((0.7, 1.9), (1.0, 2.0), (0.2, 5.0), (3.0, 40.0),
                 (1e-3, 2e-3), (1e3, 5e3))

    @staticmethod
    def relative_slacks(fn_ids, s: float, t2_5_qs):
        for fn_id in fn_ids:
            f = get_function(fn_id)
            for a, b in TestSharpness.INTERVALS:
                iv = Interval(a, b)
                for theorem, qs in (("T2_3", (1.0,)), ("T2_4", (1.0,)),
                                    ("T2_5", t2_5_qs)):
                    for q in qs:
                        for x in (a, b):
                            rhs = ostrowski_rhs(theorem, f, x, iv, s, q, None)
                            slack = rhs - ostrowski_lhs(f, x, iv)
                            yield slack / rhs, (fn_id, a, b, theorem, q, x)

    def test_affine_bounds_attained_at_the_endpoints(self):
        for rel, case in self.relative_slacks(
                ("id", "neg"), 1.0, (1.0, 1.5, 2.0, 3.0, 7.5)):
            assert abs(rel) <= 1e-13, case

    def test_curvature_or_s_below_one_leaves_slack(self):
        # the control: f'' != 0, or s < 1, keeps the bound strict. T2_5's
        # factor lambda5^(1-1/q) does not depend on s, so its slack at s < 1
        # shrinks as q grows; q stays at 2 or below here
        for fn_ids, s in ((("pow:2",), 1.0), (("id", "neg"), 0.5)):
            for rel, case in self.relative_slacks(fn_ids, s, (1.0, 1.5, 2.0)):
                assert rel >= 0.05, case
