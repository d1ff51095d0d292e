"""Closed-form bound evaluators: lambda family, chains, Ostrowski sides."""

import itertools
import json
import math
import random
import re
from fractions import Fraction

import mpmath
import pytest
from conftest import (canary_lambda_value, lambda5, lambda5_oracle,
                      lambda_shapes, mp_lambda, record_tables, rhs_at)
from hypothesis import given, settings
from hypothesis import strategies as st

from hsconvex import bounds
from hsconvex.bounds import (OSTROWSKI_THEOREMS, classic_ostrowski_rhs,
                             hh_harmonic_bounds, hh_s_convex_bounds,
                             lambda_column, lambda_integrand, lambda_memo,
                             lambda_value, lambda_z, ostrowski_lhs, ostrowski_rhs,
                             resolve_exponents, validate_q)
from hsconvex.cli import main
from hsconvex.convexity import uniform_grid
from hsconvex.errors import DomainError, NumericError
from hsconvex.numeric import (MIN_NORMAL, FunctionSpec, Interval, derivative,
                              get_function, integrate, validate_s)


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
            lambda_z(6, 1.0, 2.0, 1.0, 1.0, 1.0)
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
        # kind 5 is the kind 1 (theta <= x) or kind 3 weight
        assert lambda_z(5, 1.0, 2.0, None, None, None) == 0.5
        assert lambda_z(5, 2.0, 1.0, None, None, None) == 0.5

    # each message, raised by the first check a tuple fails, in the order
    # the checks run
    MESSAGES = [
        ((0, 1.0, 2.0, 1.0, 1.0, 1.0), "kind must be 1..5, got 0"),
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
         "x/theta=1e-13 too extreme: w = 1 - z must exceed the cap 1e-12"),
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
        # the memo keeps weight columns: a column asked for again is not
        # computed, nor checked, again
        args = (4, 1.9, 1.0, 0.75, 1.5, 1.5)
        kind, theta, x, *shape = args
        fresh = lambda_value(*args)
        with lambda_memo():
            first, = lambda_column(kind, theta, [x], *shape)
            hit, = lambda_column(kind, theta, [x], *shape)
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

                ref = integrate(integrand, 0.0, 1.0).value
                assert total == pytest.approx(ref, rel=1e-9)

    def test_oracle_agreement_spot(self):
        args = (4, 1.9, 1.0, 0.75, 1.5, 1.5)
        oracle = integrate(lambda_integrand(*args), 0.0, 1.0).value
        assert lambda_value(*args) == pytest.approx(oracle, rel=1e-10)

    def test_against_mpmath_up_to_one(self):
        # kinds 1..4 over z in [0, 1 - 1e-10], vartheta <= 6, rho <= 6 and
        # s in [0, 1]; every other weight has m = c - a - b an integer or
        # within 1e-14..1e-3 of one. The reference takes 1 - w for the
        # float w of args, the quotient lambda_value hands to 2F1.
        rng = random.Random(5)
        worst = 0.0
        for kind, s, vartheta, rho, b, b2, c in lambda_shapes(5, 400):
            z = rng.choice((rng.random(), 1.0 - 10.0 ** rng.uniform(-10.0, -1.0)))
            theta, x = (1.0 - z, 1.0) if kind in (1, 2) else (1.0, 1.0 - z)
            args = (kind, theta, x, s, vartheta, rho)
            with mpmath.workdps(40):
                base = x if kind in (1, 2) else theta
                ref = (mpmath.beta(b, b2) / mpmath.mpf(base) ** (2 * vartheta)
                       * mpmath.hyp2f1(2 * vartheta, b, c,
                                       1 - mpmath.mpf(lambda_z(*args))))
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
        tables = record_tables(monkeypatch)

        def computed() -> int:
            return sum(len(t.asked) for t in tables)
        args = (1, 1.0, 1.5, 0.5, 1.0, 1.0)
        kind, theta, x, *shape = args
        value = lambda_value(*args)
        with lambda_memo():
            assert lambda_column(kind, theta, [x], *shape) == [value]
            with lambda_memo():  # shares the enclosing block's memo
                assert lambda_column(kind, theta, [x], *shape) == [value]
            assert lambda_column(kind, theta, [x], *shape) == [value]
        assert computed() == 2
        lambda_column(kind, theta, [x], *shape)  # the memo ended with the block
        assert computed() == 3

    def test_table_lives_for_its_outermost_block(self, monkeypatch):
        tables = record_tables(monkeypatch)
        # one shape (kind, s, vartheta, rho) at three x
        shape = dict(kind=1, theta=1.0, s=0.5, vartheta=1.5, rho=1.5)
        with lambda_memo():
            lambda_value(x=1.2, **shape)
            with lambda_memo():  # shares the enclosing block's tables
                lambda_value(x=1.7, **shape)
            lambda_value(x=1.4, **shape)
            # another kind, or another s, is another table
            lambda_value(**dict(shape, kind=2), x=1.2)
            lambda_value(**dict(shape, s=0.25), x=1.2)
        assert [len(t.asked) for t in tables] == [3, 1, 1]
        lambda_value(x=1.9, **shape)  # the tables ended with the block
        lambda_value(x=1.9, **shape)  # and outside one none is kept
        assert [len(t.asked) for t in tables] == [3, 1, 1, 1, 1]

    def test_shared_table_is_bit_identical(self):
        # x ascending, descending and interleaved in one block, each value
        # against its computation outside any block
        xs = [1.0 + 0.1 * i for i in range(1, 10)]
        for order in (xs, xs[::-1], xs[::2] + xs[1::2]):
            for kind, theta in ((1, 1.0), (2, 1.0), (3, 2.0), (4, 2.0)):
                args = [(kind, theta, x, 0.75, 1.5, 1.5) for x in order]
                fresh = [lambda_value(*a) for a in args]
                with lambda_memo():
                    shared = [lambda_value(*a) for a in args]
                assert [v.hex() for v in shared] == [v.hex() for v in fresh]


class TestLambdaIntegrand:
    # the integrand in u that the oracle integrates: t = u^4 where only
    # the left end is graded, its mirror 1 - t = (1-u)^4 where only the
    # right one is, u^4 (35 - 84u + 70u^2 - 20u^3) at both, u at neither
    def test_polynomial_at_z_zero(self):
        # theta = x: the integrand is t^a (1-t)^b / x^(2vt) dt, in u a
        # polynomial wherever an exponent that is not an integer is a
        # multiple of 1/4 at an end graded alone: t^n in t = u (a = n,
        # b = 0, no end graded); 4u^3 u^(4a) (1-u^4)^b at the left end
        # alone (b an integer); 4v^3 (1-v^4)^a v^(4b), v = 1-u, at the
        # right end alone (a an integer). Each has degree 23 at most, so
        # GK15 integrates it exactly, to B(a+1, b+1) / x^(2vt) up to
        # rounding
        def exact(a, b, x, vt):
            # B(a+1, m+1) = m! / ((a+1) (a+2) ... (a+m+1)) for an integer m
            m, c = (int(b), a) if b % 1 == 0 else (int(a), b)
            return float(math.factorial(m) / math.prod(
                Fraction(c) + 1 + j for j in range(m + 1))) / x ** (2.0 * vt)

        quarters = [k / 4 for k in range(20)]
        cases = [(kind, n - s, s) for kind in (1, 3) for n in range(7)
                 for s in (0.0, 0.5, 1.0) if n >= s]
        # the left end alone: t^(rho+s) on kinds 1, 3, t^rho (1-t)^s on
        # kinds 2, 4 with s an integer
        cases += [(kind, rho, s) for kind in (1, 3) for rho in range(5)
                  for s in (0.25, 0.5, 0.75)]
        cases += [(kind, rho, s) for kind in (2, 4) for rho in quarters
                  for s in (0.0, 1.0) if rho % 1 and 4 * (rho + s) <= 20]
        # the right end alone: (1-t)^s on kinds 2, 4 with rho an integer
        cases += [(kind, rho, s) for kind in (2, 4) for rho in range(5)
                  for s in (0.25, 0.5, 0.75)]
        worst = 0.0
        for (kind, rho, s), x, vt in itertools.product(
                cases, (1.0, 2.0, 0.3), (0.5, 1.0, 3.0)):
            a, b = (rho + s, 0.0) if kind in (1, 3) else (rho, s)
            oracle = integrate(lambda_integrand(kind, x, x, s, vt, rho),
                               0.0, 1.0).value
            ref = exact(a, b, x, vt)
            worst = max(worst, abs(oracle - ref) / math.ulp(ref))
        assert worst <= 4.0

    # (theta, x, s, vartheta, rho) of weights of each kind whose right end
    # is graded, and the map of each: kinds 2, 4 for (1-t)^s, s not an
    # integer, alone or with t^rho at the left end or kind 4's layer at
    # t = 0; kinds 1, 2 for the layer at t = 1 at z = 2/3
    RIGHT_GRADED = {
        1: [((1.0, 3.0, 0.5, 1.5, 1.5), "right"),
            ((1.0, 3.0, 0.25, 1.0, 1.0), "both")],
        2: [((1.0, 1.1, 0.25, 1.0, 0.0), "right"),
            ((1.0, 1.9, 0.5, 2.0, 2.0), "right"),
            ((1.0, 3.0, 1.0, 2.0, 2.0), "right"),
            ((1.0, 1.1, 0.5, 1.5, 1.5), "both")],
        4: [((1.9, 1.0, 0.75, 1.5, 1.0), "right"),
            ((1.1, 1.0, 0.25, 1.0, 0.5), "both"),
            ((3.0, 1.0, 0.5, 2.0, 2.0), "both")],
    }

    @pytest.mark.parametrize("kind", sorted(RIGHT_GRADED))
    def test_one_minus_t_keeps_its_digits(self, kind):
        # at u = 1 - 2^-30, t rounds to 1: a factor (1-t)^s formed from t
        # would be 0. Formed from 1 - u, the integrand is the value of the
        # map's expression, taken in mpmath
        worst = 0.0
        for ((theta, x, s, vt, rho), graded), e in itertools.product(
                self.RIGHT_GRADED[kind], (30, 45)):
            a, b = (rho + s, 0.0) if kind in (1, 3) else (rho, s)
            u = 1.0 - 2.0 ** -e
            value = lambda_integrand(kind, theta, x, s, vt, rho)(u)
            with mpmath.workdps(50):
                uu = mpmath.mpf(u)
                v = 1 - uu
                if graded == "right":
                    t, t1, dt = 1 - v ** 4, v ** 4, 4 * v ** 3
                else:
                    t = uu ** 4 * (35 - 84 * uu + 70 * uu ** 2 - 20 * uu ** 3)
                    t1 = v ** 4 * (35 - 84 * v + 70 * v ** 2 - 20 * v ** 3)
                    dt = 140 * uu ** 3 * v ** 3
                ref = (dt * t ** a * t1 ** b
                       / (t * theta + t1 * x) ** (2 * vt))
            worst = max(worst, float(abs(value - ref) / ref))
        assert worst <= 1e-15


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
        # values just inside (2F1) and outside (closed form) the cut agree
        x = 1.5
        for mag in (0.099, 0.101):
            for sign in (1.0, -1.0):
                theta = x * (1.0 - sign * mag)
                ref = lambda5_oracle(theta, x)
                assert lambda5(theta, x) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("x", [1.5, 2.2e-7, 3.1e5])
    def test_against_mpmath_near_equal(self, x):
        # |z| from 1 down to 1e-12 on both sides, four points a decade: 2F1
        # below the cut |z| = 0.1, where the closed form cancels (it was
        # 1.6e-12 off just above the Taylor cut |z| = 1e-4 that 2F1
        # replaced), and the closed form above it
        worst = 0.0
        for k in range(49):
            for sign in (1.0, -1.0):
                theta = x * (1.0 - sign * 10.0 ** (-k / 4.0))
                if theta > 0.0:
                    ref = mp_lambda(5, theta, x, None, None, None)
                    worst = max(worst, float(abs(lambda5(theta, x) - ref) / ref))
        assert worst <= 2e-15

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

    @pytest.mark.parametrize("c", [1e308, -1e308, 1.7976931348623157e308])
    def test_right_member_where_the_sum_overflows(self, c):
        # f(a) + f(b) overflows, (f(a)+f(b))/(s+1) does not: at s = 1 every
        # member of the chains of a constant is c
        f = get_function(f"const:{c!r}")
        assert hh_harmonic_bounds(f, Interval(1.0, 2.0), 1.0) == (c, c, c)
        assert hh_s_convex_bounds(f, 1.0, 2.0, 1.0) == (c, c, c)

    def test_right_member_in_range_is_the_direct_sum(self):
        # where f(a) + f(b) is finite, the right member is its quotient,
        # bit for bit
        rng = random.Random(11)
        for _ in range(200):
            f = get_function(f"pow:{rng.uniform(0.1, 300.0)!r}")
            a = rng.uniform(0.5, 2.0)
            b, s = a * rng.uniform(1.01, 8.0), rng.uniform(0.01, 1.0)
            try:
                right = (f(a) + f(b)) / (s + 1.0)
            except DomainError:
                continue
            assert hh_harmonic_bounds(f, Interval(a, b), s)[2] == right
            assert hh_s_convex_bounds(f, a, b, s)[2] == right

    def test_arithmetic_rejects_negative_a(self):
        with pytest.raises(DomainError):
            hh_s_convex_bounds(get_function("id"), -0.5, 1.0, 1.0)

    def test_arithmetic_evaluates_zero_endpoint_once(self, monkeypatch):
        points = []
        call = FunctionSpec.__call__
        monkeypatch.setattr(FunctionSpec, "__call__",
                            lambda spec, x: points.append(x) or call(spec, x))
        right = hh_s_convex_bounds(get_function("pow:2"), 0.0, 1.0, 1.0)[2]
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
        rhs = rhs_at("T2_3", get_function("id"), 1.5, self.IV, 1.0, 1.0,
                     None)
        expected = 2.0 * (0.25 * lambda5(1.0, 1.5) + 0.25 * lambda5(2.0, 1.5))
        assert rhs == pytest.approx(expected, rel=1e-12)
        assert rhs == pytest.approx(0.2644339286872331, rel=1e-10)

    def test_structural_zero_at_endpoints(self):
        f = get_function("pow:2")
        at_a = rhs_at("T2_3", f, 1.0, self.IV, 1.0, 2.0, None)
        at_b = rhs_at("T2_3", f, 2.0, self.IV, 1.0, 2.0, None)
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
            assert rhs_at(theorem, get_function("pow:2"), 1.5, self.IV,
                          1.0, 2.0, None, M=0.0) == 0.0
        for theorem in ("T2_6", "T2_7"):
            assert rhs_at(theorem, get_function("pow:2"), 1.5, self.IV,
                          1.0, 2.0, 2.0, M=0.0) == 0.0

    def test_corollary_linear_in_m(self):
        for theorem, q, p in (("T2_3", 2.0, None), ("T2_4", 1.0, None),
                              ("T2_5", 3.0, None), ("T2_6", 2.0, 2.0),
                              ("T2_7", 2.0, 2.0)):
            r1 = rhs_at(theorem, get_function("inv"), 1.3, self.IV,
                        0.5, q, p, M=0.7)
            r2 = rhs_at(theorem, get_function("inv"), 1.3, self.IV,
                        0.5, q, p, M=1.4)
            assert r2 == pytest.approx(2.0 * r1, rel=1e-12)

    def test_t2_5_q1_drops_side_weights(self):
        # at q=1 the lambda5^(1-1/q) factors are exactly 1, so T2_5 and T2_3
        # coincide (both reduce to the same (vt,rho)=(1,1) bracket)
        f = get_function("pow:2")
        r5 = rhs_at("T2_5", f, 1.4, self.IV, 0.5, 1.0, None)
        r3 = rhs_at("T2_3", f, 1.4, self.IV, 0.5, 1.0, None)
        assert r5 == pytest.approx(r3, rel=1e-13)

    def test_requires_pair_for_holder(self):
        for theorem in ("T2_6", "T2_7"):
            with pytest.raises(DomainError, match="needs conjugate exponents"):
                rhs_at(theorem, get_function("id"), 1.5, self.IV, 1.0,
                       None, None)
            # either exponent completes the pair
            rhs = rhs_at(theorem, get_function("id"), 1.5, self.IV,
                         1.0, 2.0, 2.0)
            assert rhs_at(theorem, get_function("id"), 1.5, self.IV,
                          1.0, 2.0, None) == rhs
            assert rhs_at(theorem, get_function("id"), 1.5, self.IV,
                          1.0, None, 2.0) == rhs

    def test_unknown_theorem(self):
        with pytest.raises(DomainError):
            rhs_at("T2_2", get_function("id"), 1.5, self.IV, 1.0, None,
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
        unit = rhs_at(theorem, f, 1.5, self.IV, 0.5, q, p)
        right, wrong = 0, []
        for k in range(-1000, 1001, 10):
            iv = Interval(math.ldexp(1.0, k), math.ldexp(1.0, k + 1))
            try:
                rhs = rhs_at(theorem, f, math.ldexp(1.5, k), iv, 0.5,
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
            assert rhs_at(theorem, get_function("pow:2"), x, self.IV,
                          s, q, None) >= 0.0



def paper_rhs(theorem: str, x: float, s: float, q: float, p, df) -> float:
    """(ab/(b-a)) [(x-a)^2 A + (b-x)^2 B] of Theorems 2.3-2.7 on [1, 2],
    with every lambda weight integrated from its defining integrand and
    df(u) standing for |f'(u)|."""
    a, b = 1.0, 2.0

    def quad(integrand) -> float:
        return integrate(integrand, 0.0, 1.0).value

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
                  * lambda5_oracle(a, x) ** (1.0 - 1.0 / q))
        side_b = (power_mean((3, 4), b, 1.0, 1.0)
                  * lambda5_oracle(b, x) ** (1.0 - 1.0 / q))
    elif theorem == "T2_6":
        side_a = power_mean((1, 2), a, q, 0.0)
        side_b = power_mean((3, 4), b, q, 0.0)
        prefactor = (1.0 / (p + 1.0)) ** (1.0 / p)
    else:
        side_a, side_b = hoelder(1, a), hoelder(3, b)
    return a * b / (b - a) * prefactor * ((x - a) ** 2 * side_a
                                          + (b - x) ** 2 * side_b)


def point_rhs(theorem: str, f: FunctionSpec, x: float, iv: Interval,
              s: float, q, p, M=None) -> float:
    """The rhs at one x as a scan point by point assembles it: every check,
    derivative and weight taken afresh at x, in the order it is needed,
    with ostrowski_rhs's errors."""
    try:
        return _point_rhs(theorem, f, x, iv, s, q, p, M)
    except OverflowError as exc:
        raise NumericError("ostrowski_rhs: result overflows") from exc
    except ZeroDivisionError as exc:
        raise NumericError("ostrowski_rhs: a divisor underflows to 0") from exc


def _point_rhs(theorem, f, x, iv, s, q, p, M):
    validate_s(s)
    a, b = iv.a, iv.b
    if not a <= x <= b:
        raise DomainError(f"x={x} outside [{a}, {b}]")
    q, p = resolve_exponents(theorem, q, p)
    if M is not None:
        dx = da = db = bounds.validate_m(M)
    else:
        dx, da, db = (abs(derivative(f, u)) for u in (x, a, b))
    inv_q = 1.0 / q
    vt, rho, prefactor = {
        "T2_3": lambda: (q, q, 1.0),
        "T2_4": lambda: (q, 1.0, 0.5 ** (1.0 - inv_q)),
        "T2_5": lambda: (1.0, 1.0, 1.0),
        "T2_6": lambda: (q, 0.0, (1.0 / (p + 1.0)) ** (1.0 / p)),
        "T2_7": lambda: (p, p, 1.0)}[theorem]()

    def side(end, d_end, kind):
        if theorem == "T2_7":
            lam = lambda_value(kind, end, x, 0.0, vt, rho)
            bracket = dx ** q + d_end ** q
        else:
            lam_x = lambda_value(kind, end, x, s, vt, rho)
            lam_end = lambda_value(kind + 1, end, x, s, vt, rho)
            bracket = lam_x * dx ** q + lam_end * d_end ** q
        if bracket < MIN_NORMAL and (dx or d_end):
            raise NumericError(f"{theorem}: the power mean at {end} "
                               "underflows below the normal floats")
        if theorem == "T2_7":
            return (lam ** (1.0 / vt) * (x - end) ** 2
                    * (bracket / (s + 1.0)) ** inv_q)
        term = (x - end) ** 2 * bracket ** inv_q
        if theorem == "T2_5":
            term *= lambda5(end, x) ** (1.0 - inv_q)
        return term

    total = 0.0
    if x > a:
        total += side(a, da, 1)
    if x < b:
        total += side(b, db, 3)
    v = a * b / (b - a) * prefactor * total
    if not math.isfinite(v):
        raise NumericError(f"ostrowski_rhs: non-finite result {v}")
    return v


def scan_outcome(scan):
    """The values of scan() as hex floats, or its error's type and text."""
    try:
        return [v.hex() for v in scan()]
    except (DomainError, NumericError) as exc:
        return type(exc), str(exc)


class TestRhsColumns:
    """A scan assembles its points from weight columns and the derivatives
    and exponents of one call: each value must be the float, and each
    failure the error, that a point-by-point scan gives."""

    @pytest.mark.parametrize("theorem", OSTROWSKI_THEOREMS)
    def test_scan_is_the_point_by_point_assembly(self, theorem):
        pairs = ([(2.0, 2.0), (1.5, 3.0)] if theorem in ("T2_6", "T2_7")
                 else [(1.0, None), (2.5, None)])
        for fn_id in ("pow:2.5", "inv", "neg", "const:2"):
            f = get_function(fn_id)
            for a, b in ((1.0, 2.0), (0.5, 3.0)):
                iv = Interval(a, b)
                # x = a, x = b and seven points inside
                xs = uniform_grid(a, b, 9)
                for s, (q, p), M in itertools.product((0.5, 1.0), pairs,
                                                      (None, 3.0)):
                    expected = [point_rhs(theorem, f, x, iv, s, q, p, M).hex()
                                for x in xs]
                    assert [rhs_at(theorem, f, x, iv, s, q, p, M=M).hex()
                            for x in xs] == expected
                    with lambda_memo():  # the second scan reads the memo
                        for _ in range(2):
                            assert scan_outcome(lambda: ostrowski_rhs(
                                theorem, f, xs, iv, s, q, p, M=M)) == expected

    def test_failing_points_raise_as_a_point_by_point_scan(self):
        # intervals up to 300 decades wide and down to the subnormals: most
        # scans fail somewhere, a weight's z at 1, a weight, a power or the
        # sum out of range, some at several points and in several ways
        rng = random.Random(7)
        failed = 0
        for _ in range(600):
            theorem = rng.choice(OSTROWSKI_THEOREMS)
            f = get_function(rng.choice(("id", "inv", "neg", "const:2",
                                         "pow:0.5", "pow:40", "pow:1e-3")))
            a = 10.0 ** rng.choice((rng.uniform(-320.0, 300.0),
                                    rng.uniform(-3.0, 3.0)))
            b = a * 10.0 ** rng.choice((rng.uniform(0.01, 1.0),
                                        rng.uniform(1.0, 300.0)))
            if not 0.0 < a < b < math.inf:
                continue
            iv, s = Interval(a, b), rng.choice((0.25, 0.5, 1.0))
            q = rng.choice((1.5, 2.0, 3.5, 50.0))
            p = q / (q - 1.0) if theorem in ("T2_6", "T2_7") else None
            M = rng.choice((None, None, 3.0, 1e200))
            xs = rng.choice(([rng.uniform(a, b)], uniform_grid(a, b, 9)))
            expected = scan_outcome(
                lambda: [point_rhs(theorem, f, x, iv, s, q, p, M) for x in xs])
            assert scan_outcome(lambda: ostrowski_rhs(
                theorem, f, xs, iv, s, q, p, M=M)) == expected, (
                theorem, f.fn_id, a, b, s, q, M, len(xs))
            failed += isinstance(expected, tuple)
        assert 200 <= failed <= 500


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
                        rhs = rhs_at(theorem, f, x, Interval(1.0, 2.0),
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
                            rhs = rhs_at(theorem, f, x, iv, s, q, None)
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
