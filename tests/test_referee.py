"""The closed means and lambda weights refereed against mpmath.

Both means of c*u^r, weighted_mean and arithmetic_mean, on [a, b] with
a = 2^k for k from -1000 to 1000 and b/a from 1 + 2^-20 to 2^20, and the
arithmetic mean on [0, 2^k]. The reference is the defining integral in
closed form, evaluated by mpmath at 30 digits on [1, b/a] and scaled by
2^(k*r): a mean of u^r over [2^k a, 2^k b] is 2^(k*r) times the mean over
[a, b], and 2^k * (b/a) is the float b exactly. Each call gives an answer
within 1e-14 relative of the reference, or a NumericError.

The closed lambda weights are held against conftest.mp_lambda: kinds 1..4
within 1e-13 where the ratio w = 1 - z of theta and x is small, down to
w = 1e-11, and away from it, across the series cutoff; lambda5 down to
w = 1e-300 on both sides, within 1e-14.

ostrowski_rhs of T2_3..T2_7 is held against the same theorems assembled in
mpmath at 30 digits, from mp_lambda's weights, on [2^k, 2^k q] at x = a, b
and between: each value is within 1e-10 relative, or its scan is refused
with a DomainError or NumericError.
"""

import functools
import itertools
import math
import sys

import mpmath
import pytest
from conftest import lambda5, mp_lambda

from hsconvex.bounds import lambda_memo, lambda_value, ostrowski_rhs
from hsconvex.convexity import uniform_grid
from hsconvex.errors import DomainError, NumericError
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


def test_closed_lambda_away_from_z_one():
    # every kind at 1 - z from 0.99 to 0.01, across the 0.9 cutoff between
    # the Gauss series and the continuation, rho from T2_6's 0 to 10 and
    # vartheta from 0.5 to 10: each (kind, 1 - z, rho, vartheta) once, at
    # the s its indices pick in turn (320 weights; 1.4e-14 off at worst)
    worst = 0.0
    for (i, kind), (j, gap), (k, rho), (m, vartheta) in itertools.product(
            *map(enumerate, ((1, 2, 3, 4), (0.99, 0.5, 0.11, 0.09, 0.01),
                             (0.0, 1.0, 3.0, 10.0), (0.5, 1.0, 3.0, 10.0)))):
        s = (0.0, 0.5, 1.0)[(i + j + k + m) % 3]
        theta, x = (3.0 * gap, 3.0) if kind < 3 else (3.0, 3.0 * gap)
        args = (kind, theta, x, s, vartheta, rho)
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


# the rhs slice: every registry shape on [2^k, 2^k q] for the exponents
# and ratios below, at x = a, b and three points between
RHS_SHAPES = ("const:2", "id", "neg", "inv", "pow:0.5", "pow:2.7")
RHS_SCALES = (-40, 0, 40)
RHS_RATIOS = (1.0 + 2.0 ** -20, 1.5, 2.0 ** 10)
RHS_S = (0.25, 1.0)
# (theorem, q, p) as resolve_exponents completes them
RHS_EXPONENTS = (("T2_3", 1.0, None), ("T2_3", 2.0, None),
                 ("T2_4", 1.0, None), ("T2_4", 2.0, None),
                 ("T2_5", 1.0, None), ("T2_5", 2.0, None),
                 ("T2_6", 2.0, 2.0), ("T2_6", 1.5, 3.0),
                 ("T2_7", 2.0, 2.0), ("T2_7", 1.5, 3.0))


@functools.cache
def mp_unit_weight(kind, theta, x, s, vartheta, rho):
    """mp_lambda, computed once for each weight the slice asks for."""
    return mp_lambda(kind, theta, x, s, vartheta, rho)


def mp_weight(kind, theta, x, s, vartheta, rho, k):
    """The weight at (theta, x) = 2^k (theta', x'), from the one at
    (theta', x'): the base of every weight scales out as 2^(-2 k vartheta)
    (vartheta = 1 for lambda5), and z does not move."""
    unit = mp_unit_weight(kind, math.ldexp(theta, -k), math.ldexp(x, -k),
                          s, vartheta, rho)
    return unit * mpmath.mpf(2) ** (-2 * k * (vartheta or 1.0))


def mp_rhs(theorem, f, x, a, b, s, q, p, k):
    """The rhs of Theorems 2.3-2.7 at x on [a, b] = 2^k [a', b'] in mpmath,
    with |f'(u)| = |c r u^(r-1)| and every weight from mp_weight."""
    c, r, mq = mpmath.mpf(f.c), mpmath.mpf(f.r), mpmath.mpf(q)
    vt, rho = {"T2_3": (q, q), "T2_4": (q, 1.0), "T2_5": (1.0, 1.0),
               "T2_6": (q, 0.0), "T2_7": (p, p)}[theorem]
    prefactor = 1
    if theorem == "T2_4":
        prefactor = mpmath.mpf(0.5) ** (1 - 1 / mq)
    elif theorem == "T2_6":
        prefactor = (1 / (mpmath.mpf(p) + 1)) ** (1 / mpmath.mpf(p))

    def df(u):
        return abs(c * r * mpmath.mpf(u) ** (r - 1))
    total = 0
    for end, kind in ((a, 1), (b, 3)):
        if x == end:
            continue
        if theorem == "T2_7":
            side = (mp_weight(kind, end, x, 0.0, vt, rho, k)
                    ** (1 / mpmath.mpf(vt))
                    * ((df(x) ** mq + df(end) ** mq) / (s + 1)) ** (1 / mq))
        else:
            side = (mp_weight(kind, end, x, s, vt, rho, k) * df(x) ** mq
                    + mp_weight(kind + 1, end, x, s, vt, rho, k)
                    * df(end) ** mq) ** (1 / mq)
        if theorem == "T2_5":
            side *= mp_weight(5, end, x, None, None, None, k) ** (1 - 1 / mq)
        total += (mpmath.mpf(x) - end) ** 2 * side
    return mpmath.mpf(a) * b / (mpmath.mpf(b) - a) * prefactor * total


def test_ostrowski_rhs_against_mpmath():
    # each value is right (within 1e-10 of mp_rhs), or its scan is refused
    # by a DomainError or NumericError; none is wrong
    tally = dict.fromkeys(("right", "refused", "wrong"), 0)
    worst = 0.0
    with mpmath.workdps(30):
        for k, ratio, s, (theorem, q, p) in itertools.product(
                RHS_SCALES, RHS_RATIOS, RHS_S, RHS_EXPONENTS):
            a = 2.0 ** k
            iv = Interval(a, a * ratio)
            xs = uniform_grid(iv.a, iv.b, 5)
            with lambda_memo():  # the shapes share their weights
                for f in map(get_function, RHS_SHAPES):
                    try:
                        rhs = ostrowski_rhs(theorem, f, xs, iv, s, q, p)
                    except (DomainError, NumericError):
                        tally["refused"] += len(xs)
                        continue
                    for x, v in zip(xs, rhs):
                        ref = mp_rhs(theorem, f, x, iv.a, iv.b, s, q, p, k)
                        err = abs(mpmath.mpf(v) - ref)
                        tally["right" if err <= 1e-10 * ref else "wrong"] += 1
                        if ref:
                            worst = max(worst, float(err / ref))
    # every value answered, 1.5e-14 off at worst
    assert tally == {"right": 5400, "refused": 0, "wrong": 0}
    assert worst <= 1e-13
