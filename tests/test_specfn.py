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
from hsconvex.specfn import Z_CAP, beta, hyp2f1

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

    def test_large_c_is_accurate_or_refused(self):
        # a large c makes the continuation cancel; no value may come back
        # that the loss estimate should have refused
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
            assert rel_err(value, a, b, c, z) <= 1e-8
        assert returned > 0 and refused > 0


def sums_in(call) -> int:
    """Number of sums (calls of specfn's helpers) that call() makes."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        code = frame.f_code
        if (event == "call" and code.co_filename == specfn.__file__
                and code.co_name != "hyp2f1"):
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
        # one series at z = 1/2, at most 39 steps to Z_CAP, and at most one
        # fallback series; each sum stops at SERIES_MAX_TERMS terms
        z_top = math.nextafter(Z_CAP, 0.0)
        counts = [sums_in(lambda: hyp2f1(a, b, c, z))
                  for a, b, c in ((1.0, 1.0, 2.0), (12.0, 7.0, 8.0),
                                  (4.0, 199.0, 200.0), (2.0, 60.0, 62.0))
                  for z in (0.5, CUTOFF, 0.95, 1.0 - 1e-9, z_top)]
        assert max(counts) <= 41
        assert sums_in(lambda: hyp2f1(1.0, 1.0, 2.0, z_top)) == 40
