"""Beta and Gauss hypergeometric tests. mpmath, a test-only dependency,
is the reference for both hyp2f1 routes on each side of the cutoff."""

import math
import random
import sys

import mpmath
import pytest
from conftest import lambda_shapes
from hypothesis import given, settings
from hypothesis import strategies as st

from hsconvex import specfn
from hsconvex.errors import DomainError, NumericError
from hsconvex.specfn import W_CAP, Gauss2F1, beta, hyp2f1

CUTOFF = specfn.DEFAULT_CONFIG.z_series_cutoff
# z on both sides of the cutoff, up to 1 - 1e-10
Z_POINTS = (0.0, 0.3, 0.75, CUTOFF, 0.9000001, 0.95, 0.999, 1.0 - 1e-6,
            1.0 - 1e-10)
# z of the closed-form identities, on both sides of the cutoff
IDENTITY_Z = (0.1, 0.5, 0.85, 0.95, 0.999, 1.0 - 1e-6, 1.0 - 1e-9)


def rel_err(value: float, a: float, b: float, c: float, z: float) -> float:
    with mpmath.workdps(40):
        ref = mpmath.hyp2f1(a, b, c, z)
        return float(abs((value - ref) / ref))


class TestBeta:
    def test_known_values(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-13)
        assert beta(1.5, 2.0) == pytest.approx(4.0 / 15.0, rel=1e-12)
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-12)

    def test_recurrence(self):
        # B(x+1, y) = B(x, y) * x/(x+y)
        for x, y in ((0.7, 1.3), (2.5, 4.0), (10.0, 0.5)):
            assert beta(x + 1.0, y) == pytest.approx(beta(x, y) * x / (x + y),
                                                     rel=1e-12)

    @given(st.floats(min_value=0.5, max_value=50.0),
           st.floats(min_value=0.5, max_value=50.0))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, x, y):
        assert beta(x, y) == pytest.approx(beta(y, x), rel=1e-13)

    def test_accepted_values_within_fidelity(self):
        # large arguments cancel three big lgamma values, and large sums
        # fall below the normal range: beta refuses both, and every value
        # it returns holds FIDELITY
        rng = random.Random(4)
        accepted = refused = 0
        for _ in range(1500):
            x = 10.0 ** rng.uniform(-3.0, 6.0)
            y = 10.0 ** rng.uniform(-3.0, 3.0)
            try:
                value = beta(x, y)
            except NumericError:
                refused += 1
                continue
            accepted += 1
            with mpmath.workdps(40):
                err = float(abs(value / mpmath.beta(x, y) - 1))
            assert err <= specfn.FIDELITY, (x, y)
        assert accepted > 1000 and refused > 100
        for x, y in ((1e5, 1.0), (1e15, 1.0), (3051.9, 196.9), (800.0, 800.0)):
            with pytest.raises(NumericError):
                beta(x, y)

    def test_refusals(self):
        for x, y in ((0.0, 1.0), (1.0, -2.0), (math.nan, 1.0), (1.0, math.inf)):
            with pytest.raises(DomainError, match="requires positive arguments"):
                beta(x, y)
        # B(x, y) is about 1/x + 1/y near 0: past the largest float it is
        # refused, where math.exp raised a bare OverflowError
        with pytest.raises(NumericError, match="overflows the float range"):
            beta(1e-310, 1e-310)
        with mpmath.workdps(40):
            ref = mpmath.beta(1.2e-308, 1.2e-308)
        assert float(abs(beta(1.2e-308, 1.2e-308) / ref - 1)) <= specfn.FIDELITY


class TestHyp2F1:
    def test_z_zero_is_one(self):
        assert hyp2f1(2.0, 1.5, 3.0, 0.0) == 1.0

    def test_a_zero_is_one(self):
        assert hyp2f1(0.0, 1.5, 3.0, 0.7) == pytest.approx(1.0, rel=1e-14)

    def test_log_identity(self):
        # 2F1(1,1;2;z) = -ln(1-z)/z
        for i in range(1, 10):
            z = i / 10.0
            ref = -math.log1p(-z) / z
            assert hyp2f1(1.0, 1.0, 2.0, z) == pytest.approx(ref, rel=1e-10)

    def test_atanh_identity(self):
        # 2F1(1/2, 1; 3/2; z^2) = atanh(z)/z
        for z in (0.3, 0.6, 0.9):
            ref = math.atanh(z) / z
            assert hyp2f1(0.5, 1.0, 1.5, z * z) == pytest.approx(ref, rel=1e-12)

    def test_dilog_style_identity(self):
        # 2F1(1, 1; 3; z) = 2 (z + (1-z) ln(1-z)) / z^2, where c - a - b = 1
        for z in IDENTITY_Z:
            ref = 2.0 * (z + (1.0 - z) * math.log1p(-z)) / (z * z)
            assert hyp2f1(1.0, 1.0, 3.0, z) == pytest.approx(ref, rel=1e-11)

    def test_pole_identity(self):
        # 2F1(2, 1; 2; z) = 1 / (1-z), where c - a - b = -1
        for z in IDENTITY_Z:
            assert hyp2f1(2.0, 1.0, 2.0, z) == pytest.approx(1.0 / (1.0 - z),
                                                             rel=1e-13)

    def test_monotone_in_z(self):
        # positive-coefficient series, so nondecreasing in z
        vals = [hyp2f1(1.5, 1.0, 2.5, z / 20.0) for z in range(19)]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 2.0, -0.1)   # z < 0
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 2.0, 1.0)    # z at the singular point
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 2.0, 1.0 - 1e-13)  # inside the guard band
        with pytest.raises(DomainError):
            hyp2f1(1.0, 2.0, 1.5, 0.5)    # c <= b
        with pytest.raises(DomainError):
            hyp2f1(-1.0, 1.0, 2.0, 0.5)   # a < 0
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 2.0, math.nan)

    def test_value_beyond_the_floats_refused(self):
        # 2F1(1e6, 1; 2; 1/2) = (2^999999 - 1) / 499999.5, by the series,
        # and 2F1(400, 399; 400.5; 0.99), about 1e797 by Euler's transform,
        # by the continuation: each was returned as inf
        for args in ((1e6, 1.0, 2.0, 0.5), (400.0, 399.0, 400.5, 0.99)):
            with pytest.raises(NumericError, match="non-finite result inf"):
                hyp2f1(*args)

    def test_gauss2f1_refuses_a_value_beyond_the_floats(self):
        # the series at z = 1/2 and the continuation's start at z = 0.95
        # leave the floats: the class refuses them as hyp2f1 does
        for args, w in (((1e6, 1.0, 2.0), 0.05), ((1200.0, 1.0, 2.0), 0.5)):
            with pytest.raises(NumericError, match="non-finite result inf"):
                Gauss2F1(*args)(w)

    def test_sum_runs_on_while_its_terms_grow(self):
        # a tiny b makes the first terms tiny, though later ratios times z
        # pass 1 and the terms grow: two of them below 1e-15 of the sum
        # ended it at about 1.0, where the values are 6.2e52, 4.2e257,
        # 1.7e76 and 1.11. In the last two the first ratio, about
        # (a+1)/(2(c+1)), times z is below 1 but (a+n)/(c+n) z is not
        for args in ((500.0, 1e-20, 2.0, 0.3), (1000.0, 1e-19, 10.0, 0.5),
                     (1000.0, 1e-20, 500.0, 0.8), (200.0, 1e-20, 100.0, 0.8)):
            assert rel_err(hyp2f1(*args), *args) <= 1e-11
        # a kept instance sums from its table, whose loop finds n from its
        # iterator, and ends where a fresh table ends, at a smaller z too
        kept = Gauss2F1(1000.0, 1e-20, 500.0)
        for w in (0.2, 0.2, 0.5, 0.3):
            assert kept(w) == hyp2f1(1000.0, 1e-20, 500.0, 1.0 - w)

    def test_signed_terms(self):
        # the connection route's sums: a, b or c below 0 makes the first
        # ratios signed, and past them a sum whose terms are negative is
        # summed as -F; it returns F and the sum of the |t_n|, here held
        # against mpmath's, where F is negative too. In (6, 5; -2.9) at
        # w = 0.05 the later terms turn the sum's sign, which a sum
        # compared with a fixed sign of it never stopped at
        for args in ((-2.5, 1.5, 0.7), (2.0, 3.0, -3.3), (-4.3, 2.2, -1.8),
                     (1.2, 1.7, -0.3), (6.0, 5.0, -2.9), (-3.5, 4.0, -0.9)):
            for w in (0.09, 0.05, 1e-3):
                value, size = specfn._part(*args)._series(w)
                with mpmath.workdps(40):
                    ref, term, mag = mpmath.hyp2f1(*args, w), 1, 0
                    for n in range(60):
                        mag += abs(term)
                        term *= ((args[0] + n) * (args[1] + n)
                                 / ((args[2] + n) * (n + 1)) * w)
                    assert abs(value - ref) <= 1e-15 * mag, (args, w)
                    assert abs(size - mag) <= 1e-15 * mag, (args, w)

    def test_continuation_points_of_the_battery(self):
        # the hyp2f1_log_identity row's points above the cutoff: F' at
        # z = 1/2 by DLMF 15.5.1 is a sum of its own, which ends on its
        # own terms, not on F's (a slope cut that way was 1.2e-14 to
        # 2.2e-14 off)
        for z in (0.95, 0.99, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9):
            assert rel_err(hyp2f1(1.0, 1.0, 2.0, z), 1.0, 1.0, 2.0, z) <= 1e-14

    def test_slope_triple_bypasses_the_c_above_b_check(self):
        # c - b below the rounding of b + 1 makes b + 1 and c + 1 one float;
        # the slope's series needs only b + 1, c + 1 > 0
        for args in ((1.0, 1e-17, 2e-17, 0.95), (3.0, 0.5, 0.5000000000000001,
                                                 0.97)):
            assert args[2] + 1.0 == args[1] + 1.0
            assert rel_err(hyp2f1(*args), *args) <= 1e-13

    def test_near_one_large_value(self):
        # close to the z=1 singularity but inside the allowed domain the
        # continuation must still deliver a finite, accurate value
        z = 0.999
        ref = -math.log1p(-z) / z
        assert hyp2f1(1.0, 1.0, 2.0, z) == pytest.approx(ref, rel=1e-9)

    def test_series_budget_exhaustion(self):
        # at c = 200 the continuation loses too much to cancellation, and
        # the Gauss series at z this close to 1 needs more terms than the
        # budget allows
        with pytest.raises(NumericError) as exc_info:
            hyp2f1(4.0, 199.0, 200.0, 1.0 - 1e-6)
        # the error carries the partial sum it got to
        assert math.isfinite(exc_info.value.value)
        assert exc_info.value.value > 1.0


class TestAgainstMpmath:
    def test_lambda_domain_sweep(self):
        worst = 0.0
        for _, _, vartheta, _, b, _, c in lambda_shapes(6, 160):
            a = 2.0 * vartheta
            for z in Z_POINTS:
                worst = max(worst, rel_err(hyp2f1(a, b, c, z), a, b, c, z))
        assert worst <= 1e-10

    def test_series_sums_at_the_z_given(self):
        # below the cutoff hyp2f1 sums the series at z itself; handed to
        # Gauss2F1 as w = 1 - z, it summed at 1 - w (z = 0.1 at
        # 0.09999999999999998), and its worst error here was 3.1e-15
        worst = max(rel_err(hyp2f1(a, b, c, z), a, b, c, z)
                    for a, b, c in ((1.0, 1.0, 2.0), (20.0, 10.5, 11.5),
                                    (2.0, 1.5, 3.0))
                    for z in (k / 100.0 for k in range(1, 50)))
        assert worst <= 2e-15

    def test_large_c_is_accurate_or_refused(self):
        # a large c makes the continuation cancel, and its lgamma values
        # keep the connection route off; no value may come back that the
        # loss estimate should have refused (53 returned, 9.1e-14 at worst,
        # and 67 refused)
        rng = random.Random(7)
        returned = refused = 0
        for _ in range(120):
            kind, rho, s = rng.randint(1, 4), rng.uniform(40.0, 300.0), rng.random()
            a = 2.0 * rng.uniform(0.05, 6.0)
            b = {1: rho + s + 1.0, 2: rho + 1.0, 3: 1.0, 4: s + 1.0}[kind]
            c = rho + s + 2.0
            z = 1.0 - 10.0 ** rng.uniform(-10.0, -1.05)
            try:
                value = hyp2f1(a, b, c, z)
            except NumericError:
                refused += 1
                continue
            returned += 1
            assert rel_err(value, a, b, c, z) <= specfn.FIDELITY
        assert returned > 0 and refused > 0


def outcome(call):
    """call()'s value as hex, or the value and message of its NumericError."""
    try:
        return call().hex()
    except NumericError as exc:
        return exc.value, str(exc)


class TestRatioTable:
    # the series below the cutoff, the continuation from z = 1/2 above it,
    # and at c = 200 the series at z that the continuation falls back to
    # (returned up to 0.99, refused beyond)
    FALLBACK = (4.0, 199.0, 200.0)
    FALLBACK_Z = (0.3, 0.92, 0.95, 0.99, 0.999, 1.0 - 1e-6)

    @staticmethod
    def orders(zs):
        ascending = sorted(zs)
        return (ascending, ascending[::-1],
                ascending[1::2] + ascending[::2])

    def check_orders(self, a, b, c, zs):
        fresh = {z: outcome(lambda: Gauss2F1(a, b, c)(1.0 - z)) for z in zs}
        for order in self.orders(zs):
            table = Gauss2F1(a, b, c)
            assert [outcome(lambda: table(1.0 - z)) for z in order] == [
                fresh[z] for z in order], (a, b, c, order)

    def test_tabled_sum_equals_a_fresh_one(self):
        # every value a shared table returns is the value of a table of its
        # own, over the lambda region, whichever order the z come in
        for _, _, vartheta, _, b, _, c in lambda_shapes(26, 60):
            self.check_orders(2.0 * vartheta, b, c,
                              Z_POINTS + (0.5, 0.1, 0.6))
        self.check_orders(*self.FALLBACK, self.FALLBACK_Z)

    def test_table_grows_only_as_far_as_a_sum_needs(self):
        # after each z the table is as long as the longest fresh table of
        # the z so far: no ratio is computed twice or ahead of its need
        table = Gauss2F1(*self.FALLBACK)
        longest = 0
        for z in self.orders(self.FALLBACK_Z)[2]:
            fresh = Gauss2F1(*self.FALLBACK)
            outcome(lambda: fresh(1.0 - z))
            outcome(lambda: table(1.0 - z))
            longest = max(longest, len(fresh.ratios))
            assert len(table.ratios) == longest
        # the refused sums at 0.999 and 1 - 1e-6 fill it to the budget
        assert longest == specfn.SERIES_MAX_TERMS
        assert table.ratios[7] == (4.0 + 7) * (199.0 + 7) / ((200.0 + 7) * 8.0)

    def test_table_checks_its_arguments(self):
        for args in ((1.0, 2.0, 1.5, 0.5), (-1.0, 1.0, 2.0, 0.5),
                     (1.0, math.inf, 2.0, 0.5)):
            with pytest.raises(DomainError):
                Gauss2F1(*args[:3])
        table = Gauss2F1(1.0, 1.0, 2.0)
        for z in (-0.1, 1.0, math.nan):
            with pytest.raises(DomainError):
                table(1.0 - z)  # a table takes w = 1 - z
        assert table.ratios == []


class TestRefusedSumError:
    def test_no_bound_is_infinite(self):
        # every later ratio times z exceeds 1 - 1e-6, so no tail bound
        # below 1 exists; the last term, 7.9e8, once stood in for an error
        # of 6.6e19
        with pytest.raises(NumericError) as exc_info:
            hyp2f1(4.0, 199.0, 200.0, 1.0 - 1e-6)
        assert exc_info.value.err_est == math.inf

    def test_bound_holds_the_value(self):
        # here the later ratios times z stay below z = 1 - 1e-6
        args = (0.5, 199.0, 200.0, 1.0 - 1e-6)
        with pytest.raises(NumericError) as exc_info:
            hyp2f1(*args)
        exc = exc_info.value
        with mpmath.workdps(40):
            err = float(abs(mpmath.hyp2f1(*args) - exc.value))
        assert err > 1.0
        assert err <= exc.err_est < math.inf

    def test_start_series_spends_its_budget(self, monkeypatch):
        # above the cutoff the continuation starts from the series of F
        # and of F' at z = 1/2. Their terms are at most those of
        # 2F1(a, c; c; 1/2) = 2^a and 2F1(a+1, c+1; c+1; 1/2) = 2^(a+1), so
        # at 5,000 terms a triple leaves the floats before it spends them;
        # 24 terms of 2F1(1, 1; 2; 1/2) = 2 ln 2 fall short
        monkeypatch.setattr(specfn, "SERIES_MAX_TERMS", 24)
        with pytest.raises(NumericError, match="series did not converge "
                           "within 24 terms at z=0.5") as exc_info:
            Gauss2F1(1.0, 1.0, 2.0)(0.05)
        exc = exc_info.value
        assert abs(exc.value - 2.0 * math.log(2.0)) <= exc.err_est < 1e-8

    def test_short_budget_bounds_hold_the_values(self, monkeypatch):
        # with 24 terms most sums run out; each refusal's err_est must cover
        # the distance of its partial sum from the mpmath value
        monkeypatch.setattr(specfn, "SERIES_MAX_TERMS", 24)
        bounded = 0
        for _, _, vartheta, _, b, _, c in lambda_shapes(27, 24):
            a = 2.0 * vartheta
            for z in (0.3, 0.6, 0.8, 0.95):
                with pytest.raises(NumericError) as exc_info:
                    Gauss2F1(a, b, c)._series(z)
                exc = exc_info.value
                with mpmath.workdps(40):
                    err = float(abs(mpmath.hyp2f1(a, b, c, z) - exc.value))
                assert err <= exc.err_est, (a, b, c, z)
                bounded += exc.err_est < math.inf
                # one Taylor step from z0 of length h, from exact F, F'
                z0 = 0.5 + 0.4 * z
                h = min(0.999 - z0, (1.0 - z0) / 2.0)
                with mpmath.workdps(40):
                    f = float(mpmath.hyp2f1(a, b, c, z0))
                    h_deriv = float(h * mpmath.diff(
                        lambda t: mpmath.hyp2f1(a, b, c, t), z0))
                    ref = mpmath.hyp2f1(a, b, c, z0 + h)
                with pytest.raises(NumericError) as exc_info:
                    specfn._taylor_step(a, b, c, z0, h, f, h_deriv)
                exc = exc_info.value
                with mpmath.workdps(40):
                    err = float(abs(ref - exc.value))
                assert err <= exc.err_est, (a, b, c, z0, h)
                bounded += exc.err_est < math.inf
        # 171 of the 192 refusals have a finite bound
        assert bounded >= 150


# the functions of specfn that each sum one series
SUMS = ("_series", "_taylor_step")


def sums_in(call, names=SUMS) -> int:
    """Number of calls of the names, by default the SUMS, that call()
    makes."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        code = frame.f_code
        if (event == "call" and code.co_filename == specfn.__file__
                and code.co_name in names):
            count += 1
    sys.setprofile(profile)
    try:
        call()
    except NumericError:
        pass
    finally:
        sys.setprofile(None)
    return count


class TestWorkBound:
    def test_at_most_41_sums(self):
        # two series at z = 1/2 (F and F'), at most 39 steps to w = W_CAP,
        # and a fallback series that ends the steps; each sum stops at
        # SERIES_MAX_TERMS terms, and no run here takes more than 41
        z_top = math.nextafter(1.0 - W_CAP, 0.0)
        assert 1.0 - z_top > W_CAP >= 1.0 - math.nextafter(z_top, 1.0)
        counts = [sums_in(lambda: hyp2f1(a, b, c, z))
                  for a, b, c in ((1.0, 1.0, 2.0), (12.0, 7.0, 8.0),
                                  (4.0, 199.0, 200.0), (2.0, 60.0, 62.0))
                  for z in (0.5, CUTOFF, 0.95, 1.0 - 1e-9, z_top)]
        assert max(counts) <= 41
        assert sums_in(lambda: hyp2f1(1.0, 1.0, 2.0, z_top)) == 41

    def test_two_sums_on_the_connection_route(self):
        # a non-integer m above the cutoff: two Gauss sums in w = 1 - z and
        # no Taylor step, down to the top z (the continuation made two
        # start sums, F and F' at z = 1/2, and up to 39 steps); c - a < 0
        # in the second triple makes its second sum's first terms signed
        z_top = math.nextafter(1.0 - W_CAP, 0.0)
        for args in ((3.0, 2.5, 4.2), (8.0, 1.5, 3.7)):
            for z in (0.95, 1.0 - 1e-6, z_top):
                assert sums_in(lambda: hyp2f1(*args, z)) == 2, (args, z)
                assert sums_in(lambda: hyp2f1(*args, z),
                               ("_taylor_step",)) == 0, (args, z)
                assert rel_err(hyp2f1(*args, z), *args, z) <= 1e-13
