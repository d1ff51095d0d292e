"""The GK15 panel kernel against its loop form, bit for bit.

numeric.gk15 writes the 15 samples and both sums out flat; reference_gk15
below is the loop it replaced. Both sample f in one order and add in one
order, so every answer, and every error, must be the same.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsconvex import numeric
from hsconvex.errors import DomainError, NumericError
from hsconvex.numeric import gk15


def reference_gk15(f, lo, hi):
    """The loop form of the 15-point Kronrod rule on [lo, hi], which tests
    each sample as it is taken."""
    xgk, wgk, wg = numeric._XGK, numeric._WGK, numeric._WG
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    try:
        fc = f(c)
        if not math.isfinite(fc):
            raise DomainError(f"non-finite sample at {c}")
        kron = wgk[7] * fc
        gauss = wg[3] * fc
        for j in range(7):
            xa = c - h * xgk[j]
            xb = c + h * xgk[j]
            fa = f(xa)
            fb = f(xb)
            if not (math.isfinite(fa) and math.isfinite(fb)):
                bad = xa if not math.isfinite(fa) else xb
                raise DomainError(f"non-finite sample at {bad}")
            kron += wgk[j] * (fa + fb)
            if j % 2 == 1:
                gauss += wg[j // 2] * (fa + fb)
    except (ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"non-finite sample on [{lo}, {hi}]") from exc
    value, err = kron * h, abs(kron - gauss) * abs(h)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise NumericError(f"non-finite panel sum on [{lo}, {hi}]")
    return value, err


def outcome(kernel, f, lo, hi):
    """The answer of kernel as hex floats, or its exception's type and
    message."""
    try:
        return [v.hex() for v in kernel(f, lo, hi)]
    except (DomainError, NumericError) as exc:
        return type(exc), str(exc)


# integrands of several shapes, each from a few drawn parameters
FAMILIES = {
    "poly": lambda p: lambda u: ((p[0] * u + p[1]) * u + p[2]) * u + p[3],
    "exp": lambda p: lambda u: p[0] * math.exp(p[1] * u),
    "sin": lambda p: lambda u: math.sin(p[0] * 10.0 * u + p[1]) * p[2],
    "kink": lambda p: lambda u: abs(u - p[0]) ** (abs(p[1]) + 0.5),
    "peak": lambda p: lambda u: p[0] / (1e-3 + (u - p[1]) ** 2),
    "scaled": lambda p: lambda u: u * p[0] * 1e300,
}


class TestFlatKernel:
    @given(st.sampled_from(sorted(FAMILIES)),
           st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=4),
           st.floats(-5.0, 5.0),
           st.floats(1e-9, 8.0))
    @settings(max_examples=400, deadline=None)
    def test_bit_identical_to_the_loop(self, family, params, lo, width):
        f = FAMILIES[family](params)
        hi = lo + width
        assert outcome(gk15, f, lo, hi) == outcome(reference_gk15, f, lo, hi)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-3.0, 1e-3),
                                        (1e300, 1.5e300)])
    @pytest.mark.parametrize("k", range(15))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     ZeroDivisionError, OverflowError])
    def test_bad_sample_k_raises_as_the_loop(self, lo, hi, k, bad):
        # sample k is non-finite or its evaluation raises: the same error,
        # naming the same point
        def make():
            calls = []

            def f(u):
                calls.append(u)
                if len(calls) != k + 1:
                    return math.cos(u)
                if isinstance(bad, float):
                    return bad
                raise bad()
            return f
        expected = outcome(reference_gk15, make(), lo, hi)
        assert outcome(gk15, make(), lo, hi) == expected
        assert expected[0] is DomainError

    def test_finite_samples_summing_past_the_floats(self):
        # every sample 1.7e308: the Kronrod sum overflows, no sample is bad
        for lo, hi in ((0.0, 1.0), (0.0, 4.0)):
            f = lambda u: 1.7e308
            assert outcome(gk15, f, lo, hi) == outcome(reference_gk15, f,
                                                       lo, hi)
        assert outcome(gk15, f, 0.0, 4.0)[0] is NumericError
