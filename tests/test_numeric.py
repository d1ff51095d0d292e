"""Quadrature, derivative, and function-registry tests."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsconvex.errors import DomainError, NumericError
from hsconvex.numeric import (DEFAULT_TOL, FunctionSpec, Interval, QuadResult,
                              derivative, get_function, integrate,
                              weighted_mean)


class TestInterval:
    def test_valid(self):
        iv = Interval(1.0, 2.0)
        assert (iv.a, iv.b) == (1.0, 2.0)

    def test_rejects_bad(self):
        for a, b in ((0.0, 1.0), (-1.0, 2.0), (2.0, 1.0), (1.0, 1.0),
                     (1.0, math.inf), (math.nan, 2.0)):
            with pytest.raises(DomainError):
                Interval(a, b)


class TestIntegrate:
    def test_singular_beta_integrand(self):
        # integrable endpoint singularity in the derivative sense
        r = integrate(lambda t: t ** 1.5 * (1.0 - t) ** 0.5, 0.0, 1.0)
        assert abs(r.value - math.pi / 16.0) <= 1e-10
        assert r.err_est <= DEFAULT_TOL

    def test_exp(self):
        r = integrate(math.exp, 0.0, 1.0)
        assert r.value == pytest.approx(math.e - 1.0, abs=1e-12)

    def test_reciprocal(self):
        r = integrate(lambda u: 1.0 / u, 1.0, 2.0)
        assert r.value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_polynomial_exactness(self):
        # the embedded rule integrates polynomials up to degree 22 exactly
        for deg in range(0, 23):
            exact = (2.0 ** (deg + 1) - 1.0) / (deg + 1)
            r = integrate(lambda u, d=deg: u ** d, 1.0, 2.0)
            assert abs(r.value - exact) <= 1e-13 * max(1.0, abs(exact)), deg

    def test_split_additivity(self):
        f = lambda u: math.sin(u) + u * u
        whole = integrate(f, 0.5, 3.0).value
        for cut in (0.7, 1.3, 2.9):
            split = integrate(f, 0.5, cut).value + integrate(f, cut, 3.0).value
            assert split == pytest.approx(whole, abs=1e-10)

    def test_tolerance_respected(self):
        r = integrate(lambda u: math.cos(10.0 * u), 0.0, 3.0, tol=1e-13)
        exact = math.sin(30.0) / 10.0
        assert abs(r.value - exact) <= max(1e-13, r.err_est)

    def test_depth_exhaustion_carries_partial(self):
        # u^(-0.99) is integrable but its worst panel is always the leftmost,
        # so the subdivision chain hits the depth cap quickly
        with pytest.raises(NumericError) as exc_info:
            integrate(lambda u: u ** -0.99, 0.0, 1.0)
        err = exc_info.value
        assert math.isfinite(err.value)
        # true value is 100; the partial sum is in the right region
        assert 0.0 < err.value <= 101.0
        assert err.err_est > 0.0

    def test_nonfinite_sample_is_domain_error(self):
        with pytest.raises(DomainError):
            integrate(lambda u: math.nan, 0.0, 1.0)
        with pytest.raises(DomainError):
            integrate(lambda u: 1.0 / (u - 0.5) ** 0 * math.inf, 0.0, 1.0)

    def test_zero_width(self):
        r = integrate(math.exp, 1.0, 1.0)
        assert r.value == 0.0

    def test_quadresult_fields(self):
        r = integrate(math.exp, 0.0, 1.0)
        assert isinstance(r, QuadResult)
        assert r.err_est >= 0.0
        assert r.evals > 0


class TestWeightedMean:
    def test_identity(self):
        # (ab/(b-a)) int_1^2 u/u^2 du = 2 ln 2
        f = get_function("id")
        assert weighted_mean(f, Interval(1.0, 2.0)) == pytest.approx(
            2.0 * math.log(2.0), abs=1e-12)

    def test_inverse(self):
        # f(u)=1/u: (ab/(b-a)) int u^-3 du = (a+b)/(2ab) fits the AM of 1/a,1/b
        f = get_function("inv")
        a, b = 1.0, 2.0
        assert weighted_mean(f, Interval(a, b)) == pytest.approx(
            (a + b) / (2.0 * a * b), abs=1e-12)

    def test_constant_random_intervals(self):
        # mean of a constant is the constant, whatever the interval
        f = get_function("const:3.7")
        rng = random.Random(20240811)
        for _ in range(50):
            a = rng.uniform(0.05, 5.0)
            b = a + rng.uniform(0.01, 5.0)
            assert weighted_mean(f, Interval(a, b)) == pytest.approx(
                3.7, rel=1e-11)


class TestDerivative:
    def test_analytic_registry(self):
        f = get_function("pow:2")
        assert derivative(f, 1.5) == 3.0
        g = get_function("inv")
        assert derivative(g, 2.0) == -0.25

    def test_failing_or_non_finite_derivative(self):
        for deriv_fn in (lambda x: 1.0 / (x - 1.0), lambda x: math.inf,
                         lambda x: math.sqrt(-x)):
            with pytest.raises(DomainError):
                derivative(FunctionSpec("bad", lambda x: x, deriv_fn), 1.0)


class TestValues:
    XS = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    @staticmethod
    def failing(kind, bad):
        """An eval_fn that fails in the way `kind` names at x == bad."""
        def eval_fn(x):
            if x != bad:
                return x
            if kind == "zero_division":
                return 1.0 / (x - bad)
            if kind == "overflow":
                return math.exp(1000.0 * x)
            if kind == "value":
                return math.sqrt(-x)
            return {"inf": math.inf, "nan": math.nan}[kind]
        return eval_fn

    @staticmethod
    def per_point_error(f, xs):
        with pytest.raises(DomainError) as exc:
            for x in xs:
                f(x)
        return exc.value

    def assert_same_error(self, f, xs):
        expected = self.per_point_error(f, xs)
        with pytest.raises(DomainError) as exc:
            f.values(xs)
        assert str(exc.value) == str(expected)
        assert type(exc.value.__cause__) is type(expected.__cause__)

    def test_values_equal_the_calls(self):
        for fn_id in ("pow:0.5", "inv", "neg", "const:2"):
            f = get_function(fn_id)
            xs = [0.5 + 0.25 * i for i in range(20)]
            assert f.values(xs) == [f(x) for x in xs]
        assert get_function("id").values([]) == []

    @pytest.mark.parametrize("kind", ["zero_division", "overflow", "value",
                                      "inf", "nan"])
    @pytest.mark.parametrize("k", [0, 3, 5])
    def test_failing_point_raises_as_the_calls_do(self, kind, k):
        self.assert_same_error(FunctionSpec("bad", self.failing(kind, self.XS[k])),
                               self.XS)

    def test_first_bad_point_wins(self):
        # a nan at 2.0 comes before a division by zero at 4.0: the batch
        # stops at the division, the error still names 2.0
        nan_at_2 = self.failing("nan", 2.0)

        def eval_fn(x):
            return 1.0 / (x - 4.0) if x == 4.0 else nan_at_2(x)

        f = FunctionSpec("bad", eval_fn)
        self.assert_same_error(f, self.XS)
        with pytest.raises(DomainError, match="non-finite value at 2.0"):
            f.values(self.XS)

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, -math.inf])
    @pytest.mark.parametrize("k", [0, 3, 5])
    def test_points_outside_the_domain(self, bad, k):
        xs = list(self.XS)
        xs[k] = bad
        for fn_id in ("id", "inv", "pow:0.5"):
            self.assert_same_error(get_function(fn_id), xs)

    def test_other_exceptions_propagate(self):
        def eval_fn(x):
            raise KeyError(x)

        with pytest.raises(KeyError):
            FunctionSpec("bad", eval_fn).values(self.XS)


class TestRegistry:
    def test_vocabulary(self):
        cases = {
            "id": (2.0, 2.0),
            "inv": (2.0, 0.5),
            "neg": (2.0, -2.0),
            "const:2": (5.0, 2.0),
            "const:-1.5": (5.0, -1.5),
            "pow:2": (3.0, 9.0),
            "pow:0.5": (4.0, 2.0),
        }
        for fn_id, (x, expected) in cases.items():
            f = get_function(fn_id)
            assert f(x) == pytest.approx(expected, rel=1e-15)
            assert f.fn_id == fn_id

    def test_unknown_ids(self):
        for bad in ("", "pow", "pow:", "pow:0", "pow:-1", "exp", "const:",
                    "const:nan", "POW:2"):
            with pytest.raises(DomainError):
                get_function(bad)

    def test_domain_enforced(self):
        f = get_function("inv")
        with pytest.raises(DomainError):
            f(0.0)
        with pytest.raises(DomainError):
            f(-1.0)

    def test_pow_at_zero(self):
        # x^r with r > 0 extends continuously to 0; needed by the
        # arithmetic-mean chain on [0, b]
        f = get_function("pow:0.5")
        assert f(0.0) == 0.0

    @given(st.floats(min_value=0.01, max_value=100.0),
           st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=100, deadline=None)
    def test_pow_derivative_consistency(self, x, r):
        f = get_function(f"pow:{r!r}")
        assert derivative(f, x) == pytest.approx(r * x ** (r - 1.0), rel=1e-12)
