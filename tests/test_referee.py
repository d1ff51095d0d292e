"""The closed means and lambda weights refereed against mpmath.

Both means of c*u^r, weighted_mean and arithmetic_mean, on [a, b] with
a = 2^k for k from -1000 to 1000 and b/a from 1 + 2^-20 to 2^20, and the
arithmetic mean on [0, 2^k]. The reference is the defining integral in
closed form, evaluated by mpmath at 30 digits on [1, b/a] and scaled by
2^(k*r): a mean of u^r over [2^k a, 2^k b] is 2^(k*r) times the mean over
[a, b], and 2^k * (b/a) is the float b exactly. Each call gives an answer
within 1e-14 relative of the reference, or a NumericError.

The closed lambda weights are held against conftest.mp_lambda where the
ratio w = 1 - z of theta and x is small: kinds 1..4 down to w = 1e-11,
within 1e-13, and lambda5 down to 1e-300 on both sides, within 1e-14.
"""

import itertools
import math
import sys

import mpmath
import pytest
from conftest import mp_lambda

from hsconvex.bounds import lambda5, lambda_value
from hsconvex.errors import NumericError
from hsconvex.numeric import (Interval, arithmetic_mean, get_function,
                              weighted_mean)

SHAPES = ("const:0", "const:-1.7", "id", "neg", "inv", "pow:0.25",
          "pow:0.5", "pow:1.0000001", "pow:2", "pow:2.7", "pow:3")
RATIOS = (1.0 + 2.0 ** -20, 1.0 + 2.0 ** -10, 1.5, 2.0, 10.0, 1000.0,
          2.0 ** 20)
EXPONENTS = range(-1000, 1001, 3)
REL_TOL = 1e-14
# exact as mpf at any precision: a float converts without rounding
MP_TOL, MP_MIN, MP_MAX = map(mpmath.mpf, (REL_TOL, 2.0 ** -1022,
                                          sys.float_info.max))

# the calls the sweep answers, and the representable means (normal
# floats) it refuses, each where a^r or b^r leaves the normal floats
# although the mean does not
ANSWERED = 91_639
REPRESENTABLE_REFUSALS = 47


def mp_means(c, r, q):
    """(weighted, arithmetic) mean of c*u^r on [1, q], by mpmath."""
    def integral(k):  # of u^(k-1) over [1, q]
        return mpmath.log(q) if k == 0 else (q ** k - 1) / k
    return (c * q / (q - 1) * integral(r - 1), c * integral(r + 1) / (q - 1))


def referee(call, ref, tally):
    """Hold call() against ref: an answer within REL_TOL, else a
    NumericError, which tally counts where ref is a normal float."""
    size = abs(ref)
    try:
        v = call()
    except NumericError:
        tally["refused"] += 1
        tally["representable_refused"] += MP_MIN <= size <= MP_MAX
        return
    tally["answered"] += 1
    assert abs(mpmath.mpf(v) - ref) <= MP_TOL * size, call


def test_both_means_over_the_domain():
    tally = dict.fromkeys(("answered", "refused", "representable_refused"), 0)
    with mpmath.workdps(30):
        for fn_id in SHAPES:
            f = get_function(fn_id)
            c, r = mpmath.mpf(f.c), mpmath.mpf(f.r)
            unit = [(q, *mp_means(c, r, mpmath.mpf(q))) for q in RATIOS]
            for k in EXPONENTS:
                a, scale = 2.0 ** k, mpmath.mpf(2) ** (k * r)
                for q, harmonic, plain in unit:
                    b = a * q
                    referee(lambda: weighted_mean(f, Interval(a, b)),
                            scale * harmonic, tally)
                    referee(lambda: arithmetic_mean(f, a, b),
                            scale * plain, tally)
                if f.r > -1.0:
                    referee(lambda: arithmetic_mean(f, 0.0, a),
                            c * scale / (r + 1), tally)
    assert tally["answered"] == ANSWERED
    assert tally["representable_refused"] == REPRESENTABLE_REFUSALS


def test_quotient_is_formed_before_the_scale():
    # pow:1.0000001 on [2^-1000, 2^-1000 (1 + 2^-20)]: b^r * expm1(k L)
    # is about 1e-314, subnormal, so multiplying before dividing by k w
    # loses digits: 1.9e-11 off
    f, a = get_function("pow:1.0000001"), 2.0 ** -1000
    b = a * (1.0 + 2.0 ** -20)
    with mpmath.workdps(30):
        harmonic, _ = mp_means(1, mpmath.mpf(f.r), mpmath.mpf(b / a))
        ref = mpmath.mpf(2) ** (-1000 * mpmath.mpf(f.r)) * harmonic
        mean = weighted_mean(f, Interval(a, b))
        assert abs(mpmath.mpf(mean) - ref) <= REL_TOL * ref
    w = (b - a) / a
    k = 1.0 - f.r
    product_first = b ** f.r * math.expm1(k * math.log1p(w)) / (k * w)
    assert abs(product_first - mean) > 1e-12 * mean


@pytest.mark.parametrize("fn_id", ["const:0", "const:-1.7", "const:1e308"])
@pytest.mark.parametrize("a, b", [(1.0, 2.0), (1e-300, 1e300),
                                  (5e-324, 1e-323)])
def test_constant_means_are_exact(fn_id, a, b):
    # the means of c are c itself, bit for bit, at every scale
    f = get_function(fn_id)
    assert weighted_mean(f, Interval(a, b)) == f.c
    assert arithmetic_mean(f, a, b) == arithmetic_mean(f, 0.0, b) == f.c


def test_closed_lambda_near_z_one():
    # every kind at 1 - z = 1e-3 .. 1e-11, s in {0, 0.5, 1}, vartheta up
    # to 10: 2F1 is handed w = theta/x or x/theta, not z, so the rounding
    # of z, which cost up to |c-a-b| 2^-53 / (1 - z) (1.6e-6), costs
    # nothing; w itself, a correctly rounded quotient, costs a few ulps
    worst = 0.0
    for kind, s, vartheta, gap in itertools.product(
            (1, 2, 3, 4), (0.0, 0.5, 1.0), (1.0, 2.0, 5.0, 10.0),
            (1e-3, 1e-6, 1e-9, 1e-11)):
        theta, x = (3.0 * gap, 3.0) if kind < 3 else (3.0, 3.0 * gap)
        args = (kind, theta, x, s, vartheta, 1.5)
        ref = mp_lambda(*args)
        worst = max(worst, float(abs(lambda_value(*args) - ref) / ref))
    assert worst <= 1e-13


def test_lambda5_far_from_the_diagonal():
    # x/theta and theta/x from 1 down to 1e-300, four points a decade:
    # where x << theta, log(x/theta) keeps the digits that log1p of
    # (x - theta)/theta, near -1, lost (1.3e-2 off at x/theta = 1.8e-16)
    worst = 0.0
    for k in range(1201):
        r = 10.0 ** (-k / 4.0)
        for theta, x in ((1.7 * r, 1.7), (1.7, 1.7 * r)):
            ref = mp_lambda(5, theta, x, None, None, None)
            worst = max(worst, float(abs(lambda5(theta, x) - ref) / ref))
    assert worst <= 1e-14
