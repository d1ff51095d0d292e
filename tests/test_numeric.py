"""Quadrature, derivative, and function-registry tests."""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsconvex.convexity import check_convexity
from hsconvex.errors import DomainError, NumericError
from hsconvex.numeric import (MAX_EVALS, REL_TOL, ROUNDOFF, FunctionSpec,
                              Interval, QuadResult, arithmetic_mean,
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
        # every panel value is positive, so their summed |value| is r.value
        assert r.err_est <= REL_TOL * r.value

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
        # the panels of cos(10u) cancel: the stop is relative to their
        # summed |value|, at most the 1.91 of |cos(10u)|, not to the 0.099
        # of the value
        r = integrate(lambda u: math.cos(10.0 * u), 0.0, 3.0)
        exact = math.sin(30.0) / 10.0
        assert abs(r.value - exact) <= r.err_est <= REL_TOL * 2.0

    def test_depth_exhaustion_carries_partial(self):
        # u^(-0.99) is integrable but its worst panel is always the leftmost,
        # so the subdivision chain hits the depth cap quickly
        with pytest.raises(NumericError, match="bisection depth") as exc_info:
            integrate(lambda u: u ** -0.99, 0.0, 1.0)
        err = exc_info.value
        assert math.isfinite(err.value)
        # true value is 100; the partial sum is in the right region
        assert 0.0 < err.value <= 101.0
        assert err.err_est > 0.0

    def test_evaluation_budget_carries_partial(self):
        # sin^2 oscillates 3e5 times on [0, 100]: REL_TOL needs panels far
        # narrower than the budget pays for, none of them deep
        calls = []

        def f(u):
            calls.append(u)
            return math.sin(1e4 * u) ** 2

        with pytest.raises(NumericError, match="evaluation budget spent") as exc_info:
            integrate(f, 0.0, 100.0)
        err = exc_info.value
        assert len(calls) <= MAX_EVALS
        assert str(len(calls)) in str(err)
        # true value is 50
        assert abs(err.value - 50.0) <= 10.0
        assert err.err_est > REL_TOL * 50.0

    def test_nonfinite_sample_is_domain_error(self):
        with pytest.raises(DomainError):
            integrate(lambda u: math.nan, 0.0, 1.0)
        with pytest.raises(DomainError):
            integrate(lambda u: 1.0 / (u - 0.5) ** 0 * math.inf, 0.0, 1.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    def test_takes_no_tolerance(self, tol):
        # every oracle site asks for REL_TOL: there is none to pass
        with pytest.raises(TypeError):
            integrate(math.exp, 0.0, 1.0, tol)

    @pytest.mark.parametrize("e", [-600, -1, 0, 1, 600])
    def test_stop_is_relative(self, e):
        # scaling f by 2^e scales every panel sum exactly, so the stop
        # bisects the same panels at every scale
        base = integrate(lambda t: t ** 1.5 * (1.0 - t) ** 0.5, 0.0, 1.0)
        r = integrate(lambda t: 2.0 ** e * t ** 1.5 * (1.0 - t) ** 0.5,
                      0.0, 1.0)
        assert r == (2.0 ** e * base.value, 2.0 ** e * base.err_est,
                     base.evals)

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda u: u ** -1.5, 1.0, 2.0), (math.exp, 0.0, 1.0),
        (lambda t: t, 0.0, 1.0), (lambda u: 1e-300 * u * u, 1.0, 2.0)])
    def test_error_estimate_has_a_roundoff_floor(self, f, lo, hi):
        # a panel that integrates f exactly in floats estimates 0 error,
        # which its rounding does not bear out
        r = integrate(f, lo, hi)
        assert r.err_est >= ROUNDOFF * abs(r.value) > 0.0

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


class TestArithmeticMean:
    def test_in_range_is_the_quotient(self):
        # the mean is the quotient c (b^(r+1) - a^(r+1)) / ((r+1)(b-a)), or
        # c ln(b/a)/(b-a) at r = -1, to 1e-14
        rng = random.Random(1307)
        for _ in range(300):
            f = get_function(rng.choice(("id", "inv", "neg", "pow:0.5",
                                         "pow:2.3", "const:-1.7")))
            a = rng.choice((0.0, 2.0 ** rng.uniform(-2.0, 2.0)))
            b = (a or 1.0) * rng.uniform(1.1, 50.0)
            if a == 0.0 and f.fn_id == "inv":
                continue
            with mpmath.workdps(30):
                lo, hi, c, k = map(mpmath.mpf, (a, b, f.c, f.r + 1.0))
                integral = (mpmath.log(hi / lo) if k == 0
                            else (hi ** k - lo ** k) / k)
                mean = c * integral / (hi - lo)
            assert abs(arithmetic_mean(f, a, b) - mean) <= 1e-14 * abs(mean)

    def test_diverges_at_zero(self):
        with pytest.raises(DomainError, match="diverges"):
            arithmetic_mean(get_function("inv"), 0.0, 1.0)

    @pytest.mark.parametrize("a, b", [(-1.0, 2.0), (2.0, 1.0), (1.0, 1.0),
                                      (0.0, math.inf), (math.nan, 1.0)])
    def test_interval_outside_the_domain(self, a, b):
        # the closed form would answer for a < 0; f is not defined there
        with pytest.raises(DomainError, match="requires 0 <= a < b"):
            arithmetic_mean(get_function("id"), a, b)

    @pytest.mark.parametrize("fn_id, c, r", [("id", 1, 1), ("pow:0.5", 1, 0.5),
                                             ("const:3", 3, 0)])
    @pytest.mark.parametrize("a", [1e-200, 1e-300])
    def test_tiny_scales(self, fn_id, c, r, a):
        # the integral of id over [1e-200, 2e-200] is 1.5e-400, which
        # underflows to 0 before the division by b - a
        value = arithmetic_mean(get_function(fn_id), a, 2.0 * a)
        with mpmath.workdps(30):
            lo, hi = mpmath.mpf(a), mpmath.mpf(2.0 * a)
            mean = c * (hi ** (r + 1) - lo ** (r + 1)) / ((r + 1) * (hi - lo))
            assert abs(value - mean) <= 2.2e-16 * mean


class TestDerivative:
    def test_analytic_registry(self):
        f = get_function("pow:2")
        assert derivative(f, 1.5) == 3.0
        g = get_function("inv")
        assert derivative(g, 2.0) == -0.25

    def test_failing_or_non_finite_derivative(self):
        # (c*r)/(x*x) and x^(r-1) divide by zero, c*r*x^(r-1) overflows
        # or is inf
        cases = [(FunctionSpec("k", 1.0, -1.0), 0.0, ZeroDivisionError),
                 (FunctionSpec("k", 1.0, 0.5), 0.0, ZeroDivisionError),
                 (FunctionSpec("k", 1.0, 3.0), 1e200, OverflowError),
                 (FunctionSpec("k", 3.0, 3.0), 1e154, None)]
        for f, x, cause in cases:
            with pytest.raises(DomainError) as exc:
                derivative(f, x)
            assert type(exc.value.__cause__) is (cause or type(None))

    @pytest.mark.parametrize("fn_id", ["pow:0.5", "id", "inv", "const:2"])
    def test_negative_x_is_outside_the_domain(self, fn_id):
        # (-1.0) ** -0.5 is a complex number, which math.isfinite refuses
        # with a TypeError; x < 0 is refused first, as f itself refuses it
        with pytest.raises(DomainError, match="outside domain"):
            derivative(get_function(fn_id), -1.0)


class TestValues:
    """The values of a gate scan: check_convexity evaluates its function
    once per point, nodes first, each through the guard; a failure is
    reported at the first bad point."""

    # the nodes of a 6-point grid on [1, 6], in scan order
    XS = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    @staticmethod
    def failing(kind, bad):
        """A function that fails in the way `kind` names at x == bad."""
        def fn(x):
            if x != bad:
                return x
            if kind == "zero_division":
                return 1.0 / (x - bad)
            if kind == "overflow":
                return math.exp(1000.0 * x)
            if kind == "value":
                return math.sqrt(-x)
            return {"inf": math.inf, "nan": math.nan}[kind]
        return fn

    @staticmethod
    def per_point_error(name, fn, xs):
        """The DomainError of the first bad point of xs, guarded as f is."""
        for x in xs:
            try:
                v = fn(x)
            except (ZeroDivisionError, OverflowError, ValueError) as exc:
                return f"{name}: evaluation failed at {x}", type(exc)
            if not math.isfinite(v):
                return f"{name}: non-finite value at {x}", type(None)
        raise AssertionError("no bad point")

    def scan_error(self, name, fn):
        with pytest.raises(DomainError) as exc:
            check_convexity(name, fn, Interval(1.0, 6.0), 1.0, len(self.XS))
        return str(exc.value), type(exc.value.__cause__)

    def test_values_equal_the_calls(self):
        # the plain c*u^r and the guarded calls of f give one scan
        iv = Interval(0.5, 5.25)
        for fn_id in ("pow:0.5", "inv", "neg", "const:2"):
            f = get_function(fn_id)
            plain = (lambda u: f.c / u) if f.r == -1.0 else (
                lambda u: f.c * u ** f.r)
            assert (check_convexity(fn_id, plain, iv, 0.5, 20)
                    == check_convexity(fn_id, f, iv, 0.5, 20))

    @pytest.mark.parametrize("kind", ["zero_division", "overflow", "value",
                                      "inf", "nan"])
    @pytest.mark.parametrize("k", [0, 3, 5])
    def test_failing_point_raises_as_the_calls_do(self, kind, k):
        fn = self.failing(kind, self.XS[k])
        assert self.scan_error("bad", fn) == self.per_point_error("bad", fn,
                                                                  self.XS)

    def test_first_bad_point_wins(self):
        # a nan at 2.0 comes before a division by zero at 4.0: the error
        # names 2.0
        nan_at_2 = self.failing("nan", 2.0)

        def fn(x):
            return 1.0 / (x - 4.0) if x == 4.0 else nan_at_2(x)

        assert self.scan_error("bad", fn) == (
            "bad: non-finite value at 2.0", type(None))

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, -math.inf])
    @pytest.mark.parametrize("k", [0, 3, 5])
    def test_points_outside_the_domain(self, bad, k):
        # no scan point lies outside (0, inf]; f refuses one itself, at the
        # first bad point of a run of calls
        xs = list(self.XS)
        xs[k] = bad
        for fn_id in ("id", "inv", "pow:0.5"):
            f = get_function(fn_id)
            with pytest.raises(DomainError) as exc:
                [f(x) for x in xs]
            assert str(exc.value) == f"{fn_id}: {bad} outside domain (0.0, inf]"
            assert exc.value.__cause__ is None

    def test_other_exceptions_propagate(self):
        def fn(x):
            raise KeyError(x)

        with pytest.raises(KeyError):
            check_convexity("bad", fn, Interval(1.0, 6.0), 1.0, 6)


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

    def test_power_carries_c_and_r(self):
        # the exact gate reads (c, r) from here, not from the name
        cases = {"id": (1.0, 1.0), "inv": (1.0, -1.0), "neg": (-1.0, 1.0),
                 "const:-1.5": (-1.5, 0.0), "pow:2.30000001": (1.0, 2.30000001)}
        for fn_id, power in cases.items():
            assert get_function(fn_id)[1:] == power

    def test_unknown_ids(self):
        unknown = ("unknown function id {!r}; expected one of const:<c>, id, "
                   "pow:<r>, inv, neg")
        cases = {
            "": (unknown.format(""), None),
            "pow": (unknown.format("pow"), None),
            "pow:": ("bad exponent in 'pow:'", ValueError),
            "pow:0": ("pow exponent must be positive, got 0.0", None),
            "pow:-1": ("pow exponent must be positive, got -1.0", None),
            "exp": (unknown.format("exp"), None),
            "const:": ("bad constant in 'const:'", ValueError),
            "const:nan": ("constant must be finite, got nan", None),
            "POW:2": (unknown.format("POW:2"), None),
            "pow:inf": ("pow exponent must be positive, got inf", None),
            "const:1e400": ("constant must be finite, got inf", None),
            "id:": (unknown.format("id:"), None),
            "inv:2": (unknown.format("inv:2"), None),
        }
        for bad, (message, cause) in cases.items():
            with pytest.raises(DomainError) as exc:
                get_function(bad)
            assert str(exc.value) == message
            assert type(exc.value.__cause__) is (cause or type(None))

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

    def test_names_are_exact(self):
        # an id resolves to a name that reads back as the same c or r: the
        # 6-significant-digit form when it is exact, else repr
        cases = {
            "pow:2.30000001": "pow:2.30000001",
            "pow:1.0000001": "pow:1.0000001",
            "const:1234567": "const:1234567.0",
            "pow:2": "pow:2",
            "pow:0.5": "pow:0.5",
            "pow:2.0": "pow:2",
            "const:-1.5": "const:-1.5",
            "const:2": "const:2",
            "pow:1.23457": "pow:1.23457",
            "const:-2.71828": "const:-2.71828",
        }
        xs = [0.25, 1.0, 1.7, 3.0]
        for fn_id, name in cases.items():
            f = get_function(fn_id)
            assert f.fn_id == name
            g = get_function(f.fn_id)
            assert g.fn_id == name
            assert [g(x) for x in xs] == [f(x) for x in xs]
            assert [derivative(g, x) for x in xs] == [derivative(f, x)
                                                      for x in xs]

    def test_stream_names_unchanged(self):
        # every 6-significant-digit parameter keeps its name
        rng = random.Random(20261018)
        for _ in range(2000):
            text = format(rng.uniform(0.25, 3.0), ".6g")
            assert get_function("pow:" + text).fn_id == "pow:" + text
            text = format(rng.uniform(-3.0, 3.0), ".6g")
            assert get_function("const:" + text).fn_id == "const:" + text

    def test_power_law(self):
        f = FunctionSpec("k", 3.0, 2.5)
        assert (f.fn_id, f(2.0), derivative(f, 2.0)) == (
            "k", 3.0 * 2.0 ** 2.5, 7.5 * 2.0 ** 1.5)


def reference_forms(fn_id):
    """The registry's forms as closed lambdas: f and f' of each id."""
    if fn_id.startswith("const:"):
        c = float(fn_id[6:])
        return lambda x: c, lambda x: 0.0
    if fn_id.startswith("pow:"):
        r = float(fn_id[4:])
        return lambda x: x ** r, lambda x: r * x ** (r - 1.0)
    return {
        "id": (lambda x: x, lambda x: 1.0),
        "inv": (lambda x: 1.0 / x, lambda x: -1.0 / (x * x)),
        "neg": (lambda x: -x, lambda x: -1.0),
    }[fn_id]


def outcome(call, x):
    """The value of call(x) with the sign of a zero, or its DomainError's
    message and cause type."""
    try:
        v = call(x)
    except DomainError as exc:
        return str(exc), type(exc.__cause__)
    return v, math.copysign(1.0, v)


def reference_outcome(fn_id, form, x, what):
    """outcome of the closed lambda `form` at x under the guard of f
    (what = "value") or f' (what = "derivative"): a point below 0 or nan is
    outside the domain of f, a failing call fails with its cause, and an
    infinite or nan result is non-finite."""
    if what == "value" and not x >= 0.0:
        return f"{fn_id}: {x} outside domain (0.0, inf]", type(None)
    try:
        v = form(x)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        return f"{fn_id}: {what.replace('value', 'evaluation')} failed at {x}", type(exc)
    if not math.isfinite(v):
        return f"{fn_id}: non-finite {what} at {x}", type(None)
    return v, math.copysign(1.0, v)


def log_spread(n, seed):
    """n points spread in log scale over the positive floats, with the
    smallest and largest, the least normal, 0, 1, 1e200 and inf."""
    rng = random.Random(seed)
    return sorted([0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1e200,
                   1.7976931348623157e308, math.inf]
                  + [math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-1073, 1024))
                     for _ in range(n)])


class TestReferenceForms:
    XS = log_spread(10000, 16)

    @pytest.mark.parametrize("fn_id", [
        "id", "inv", "neg", "const:2", "const:-1.5", "const:0", "const:-0",
        "const:1e300", "pow:2", "pow:0.5", "pow:3", "pow:1", "pow:2.5",
        "pow:0.001", "pow:1.0000001"])
    def test_values_and_derivative_bit_identical(self, fn_id):
        f = get_function(fn_id)
        eval_fn, deriv_fn = reference_forms(fn_id)
        for x in self.XS:
            assert outcome(f, x) == reference_outcome(f.fn_id, eval_fn, x,
                                                      "value"), x
            assert (outcome(lambda u: derivative(f, u), x)
                    == reference_outcome(f.fn_id, deriv_fn, x,
                                         "derivative")), x
        for x in (-1e-300, -1.0, -math.inf, math.nan):
            assert outcome(f, x) == reference_outcome(f.fn_id, eval_fn, x,
                                                      "value"), x

    def test_failures_keep_their_errors(self):
        inv, pow3 = get_function("inv"), get_function("pow:3")
        assert outcome(inv, 0.0) == ("inv: evaluation failed at 0.0",
                                     ZeroDivisionError)
        assert outcome(lambda u: derivative(inv, u), 1e-200) == (
            "inv: derivative failed at 1e-200", ZeroDivisionError)
        assert outcome(pow3, 1e200) == ("pow:3: evaluation failed at 1e+200",
                                        OverflowError)
        assert outcome(lambda u: derivative(pow3, u), 1e200) == (
            "pow:3: derivative failed at 1e+200", OverflowError)
