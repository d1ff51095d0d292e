"""Closed-form evaluators for the right-hand sides of the inequalities.

The lambda coefficient family, indexed by kind 1..4, collects the weighted
integrals

    kinds 1, 3:  int_0^1 t^(rho+s)           / (t*theta + (1-t)*x)^(2*vartheta) dt
    kinds 2, 4:  int_0^1 t^rho (1-t)^s       / (t*theta + (1-t)*x)^(2*vartheta) dt

where kinds 1, 2 sit on the a-side (theta <= x, z = 1 - theta/x) and kinds
3, 4 on the b-side (x <= theta, z = 1 - x/theta). Each has a closed form in
Beta and 2F1 obtained from the Euler integral representation; this module
evaluates the closed forms, and the quadrature oracle in `verify` holds
them against the defining integrals, in a u graded at the ends that need it.

Kind 5, T2_5's lambda5 = int_0^1 t/(t*theta + (1-t)*x)^2 dt, takes no s,
vartheta or rho. It is the kind 1 (theta <= x) or 3 weight at (s, vartheta,
rho) = (0, 1, 1); its value, with no cap on w = 1 - z, is the elementary
form ((x-theta)/theta - ln(x/theta)) / (x-theta)^2 away from theta = x.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import sys
from typing import Optional, Sequence

from .errors import DomainError, NumericError
# integrate is not called here, but perfbench's tracer test reads the name
# from this module
from .numeric import (MIN_NORMAL, FunctionSpec, Interval, arithmetic_mean,
                      derivative, integrate, validate_s, weighted_mean)
from .specfn import W_CAP, Gauss2F1, beta

OSTROWSKI_THEOREMS = ("T2_3", "T2_4", "T2_5", "T2_6", "T2_7")
# the z above which lambda_integrand grades the denominator's layer
LAYER_Z = 0.5


def validate_q(q: float) -> float:
    """Power-mean exponent: q >= 1."""
    if not (math.isfinite(q) and q >= 1.0):
        raise DomainError(f"q must satisfy q >= 1, got {q}")
    return q


def validate_m(m: float) -> float:
    """Derivative bound: M >= 0."""
    if not (math.isfinite(m) and m >= 0.0):
        raise DomainError(f"M must be nonnegative, got {m}")
    return m


def resolve_exponents(theorem: str, q: Optional[float],
                      p: Optional[float]) -> tuple[Optional[float], Optional[float]]:
    """Check and complete the exponents (q, p) a theorem takes, given as the
    CLI's --q and --p: none for T2_2 and classic; a power-mean q >= 1 for
    T2_3..T2_5 (p None); Hoelder conjugates p, q > 1 with 1/p + 1/q = 1 for
    T2_6/T2_7, where either determines the other. Resolved exponents come
    back unchanged.
    """
    if theorem in ("T2_2", "classic"):
        if q is not None or p is not None:
            raise DomainError(f"{theorem} takes no exponents: drop --q and --p")
        return None, None
    if theorem not in ("T2_6", "T2_7"):
        if p is not None:
            raise DomainError(f"{theorem} takes no --p: give --q alone")
        if q is None:
            raise DomainError(f"{theorem} needs --q (a power-mean exponent >= 1)")
        return validate_q(q), None
    if p is None and q is None:
        raise DomainError(f"{theorem} needs conjugate exponents: give --p, --q or both")
    if q is None:
        if not (math.isfinite(p) and p > 1.0):
            raise DomainError(f"p must exceed 1, got {p}")
        q = p / (p - 1.0)
    elif p is None:
        if not (math.isfinite(q) and q > 1.0):
            raise DomainError(f"q must exceed 1, got {q}")
        p = q / (q - 1.0)
    if not (math.isfinite(p) and p > 1.0 and math.isfinite(q) and q > 1.0):
        raise DomainError(f"conjugate exponents must exceed 1, got ({p}, {q})")
    if abs(1.0 / p + 1.0 / q - 1.0) > 1e-14:
        raise DomainError(f"1/p + 1/q must equal 1, got p={p}, q={q}")
    return q, p


def _kind5(theta: float, x: float) -> tuple:
    """Kind 5 as kind 1 (theta <= x) or 3 at (s, vartheta, rho) = (0, 1, 1)."""
    return 1 if theta <= x else 3, theta, x, 0.0, 1.0, 1.0


def lambda_z(kind: int, theta: float, x: float, s: float, vartheta: float,
             rho: float) -> float:
    """Check the arguments of the lambda weight of `kind` (5 as _kind5's)
    and return its w = 1 - z > W_CAP: theta/x on the a-side (kinds 1, 2),
    x/theta on the b-side, a correctly rounded quotient, as z is not."""
    if kind not in (1, 2, 3, 4, 5):
        raise DomainError(f"kind must be 1..5, got {kind}")
    if kind == 5:
        kind, theta, x, s, vartheta, rho = _kind5(theta, x)
    for name, v in (("theta", theta), ("x", x)):
        if not (math.isfinite(v) and v > 0.0):
            raise DomainError(f"{name} must be positive, got {v}")
    if not (math.isfinite(s) and s >= 0.0):
        raise DomainError(f"s must be nonnegative, got {s}")
    if not (math.isfinite(vartheta) and vartheta > 0.0):
        raise DomainError(f"vartheta must be positive, got {vartheta}")
    if not (math.isfinite(rho) and rho >= 0.0):
        raise DomainError(f"rho must be nonnegative, got {rho}")
    if kind in (1, 2) and not theta <= x:
        raise DomainError(f"kinds 1, 2 are a-side weights and require "
                          f"theta <= x, got theta={theta}, x={x}")
    if kind in (3, 4) and not x <= theta:
        raise DomainError(f"kinds 3, 4 are b-side weights and require "
                          f"x <= theta, got theta={theta}, x={x}")
    name, w = ("theta/x", theta / x) if kind < 3 else ("x/theta", x / theta)
    if not w > W_CAP:
        raise DomainError(f"{name}={w} too extreme: w = 1 - z must exceed "
                          f"the cap {W_CAP}")
    return w


def lambda_integrand(kind: int, theta: float, x: float, s: float,
                     vartheta: float, rho: float):
    """Return the defining integrand t^a (1-t)^b / (t*theta + (1-t)*x)^(2vt)
    of the lambda weight as a callable on (0, 1), after the checks of
    lambda_z: what the quadrature oracle integrates to cross-check the
    closed form. Its u grades to order 4 each end where a non-integer power
    sits or, above z = LAYER_Z, the denominator's layer of width about 1 - z
    (t = 1 on the a-side, t = 0 on the b-side): t = u^4 at the left alone,
    its mirror at the right, u^4 (35 - 84u + 70u^2 - 20u^3) at both (Sidi
    1993), u at neither. 1 - t is formed from 1 - u and keeps its digits.
    Kind 5 takes _kind5's."""
    if kind == 5:
        return lambda_integrand(*_kind5(theta, x))
    z = 1.0 - lambda_z(kind, theta, x, s, vartheta, rho)
    two_vt = 2.0 * vartheta
    a, b = (rho + s, 0.0) if kind in (1, 3) else (rho, s)
    left = a % 1.0 != 0.0 or (z > LAYER_Z and kind in (3, 4))
    right = b % 1.0 != 0.0 or (z > LAYER_Z and kind in (1, 2))
    if left and right:
        def integrand(u: float) -> float:
            v = 1.0 - u
            uv, u2, v2 = 140.0 * u * v, u * u, v * v
            t = u2 * u2 * (35.0 + u * (-84.0 + u * (70.0 - 20.0 * u)))
            t1 = v2 * v2 * (35.0 + v * (-84.0 + v * (70.0 - 20.0 * v)))
            return uv * u2 * v2 * t ** a * t1 ** b / (t * theta + t1 * x) ** two_vt
    elif left:
        def integrand(u: float) -> float:
            u2 = u * u
            t, t1 = u2 * u2, (1.0 - u) * (1.0 + u) * (1.0 + u2)
            return 4.0 * u2 * u * t ** a * t1 ** b / (t * theta + t1 * x) ** two_vt
    elif right:
        def integrand(u: float) -> float:
            v = 1.0 - u
            v2 = v * v
            t, t1 = u * (1.0 + v) * (1.0 + v2), v2 * v2
            return 4.0 * v2 * v * t ** a * t1 ** b / (t * theta + t1 * x) ** two_vt
    else:
        def integrand(u: float) -> float:
            v = 1.0 - u
            return u ** a * v ** b / (u * theta + v * x) ** two_vt
    return integrand


def _finite(fn):
    """Make fn raise NumericError where its float arithmetic leaves the
    float range: an OverflowError inside it, a division by a square or
    power that underflowed to 0, or a non-finite float it would return."""
    @functools.wraps(fn)
    def finite_fn(*args, **kwargs):
        try:
            v = fn(*args, **kwargs)
        except OverflowError as exc:
            raise NumericError(f"{fn.__name__}: result overflows") from exc
        except ZeroDivisionError as exc:
            raise NumericError(f"{fn.__name__}: a divisor underflows to 0") from exc
        if isinstance(v, float) and not math.isfinite(v):
            raise NumericError(f"{fn.__name__}: non-finite result {v}")
        return v
    return finite_fn


# the sweep in progress: (kind, end, s, vartheta, rho, *xs) -> lambda_column,
# (kind, s, vartheta, rho) -> (Beta factor, Gauss2F1); None outside a block
_LAMBDA_MEMO: contextvars.ContextVar[Optional[dict]] = contextvars.ContextVar(
    "lambda_memo", default=None)


@contextlib.contextmanager
def lambda_memo():
    """Within the block, lambda_column computes each weight column once,
    and the weights that share (kind, s, vartheta, rho) share one 2F1 ratio
    table: no weight depends on f. A nested block shares the outer memo,
    which ends with the outermost block, so nothing outlives its run."""
    if _LAMBDA_MEMO.get() is not None:
        yield
        return
    token = _LAMBDA_MEMO.set({})
    try:
        yield
    finally:
        _LAMBDA_MEMO.reset(token)


@_finite
def lambda_value(kind: int, theta: float, x: float, s: float,
                 vartheta: float, rho: float) -> float:
    """Evaluate the closed form of the lambda weight of `kind`,
    beta(b, b2) / base^(2vt) * 2F1(2vt, b; rho+s+2; z), with the Beta
    arguments (b, b2) and the base of each kind in the table below, after
    the checks of lambda_z. A lambda_memo block keeps the Beta factor and
    the Gauss2F1, which depend on (kind, s, vartheta, rho) alone. Kind 5
    (s, vartheta, rho None) is its elementary form where |1 - theta/x| >=
    0.1, 1/(2 x^2) at theta = x (lgamma would round it), else _kind5's."""
    if kind == 5 and 0.0 < theta < math.inf and 0.0 < x < math.inf:
        if theta == x:
            return 0.5 / (x * x)
        if abs(1.0 - theta / x) >= 0.1:
            d, e, r = x - theta, (x - theta) / theta, x / theta
            # log1p keeps e - ln(1+e) accurate; below x/theta = 1/4, log(x/theta)
            # keeps the digits 1 + e lost, and log x - log theta below MIN_NORMAL
            log_ratio = (math.log1p(e) if r >= 0.25 else math.log(r)
                         if r >= MIN_NORMAL else math.log(x) - math.log(theta))
            return (e - log_ratio) / (d * d)
    if kind == 5:
        kind, theta, x, s, vartheta, rho = _kind5(theta, x)
    w = lambda_z(kind, theta, x, s, vartheta, rho)
    memo = _LAMBDA_MEMO.get()
    shape = (kind, s, vartheta, rho)
    part = None if memo is None else memo.get(shape)
    if part is None:
        b, b2 = {1: (rho + s + 1.0, 1.0),
                 2: (rho + 1.0, s + 1.0),
                 3: (1.0, rho + s + 1.0),
                 4: (s + 1.0, rho + 1.0)}[kind]
        part = beta(b, b2), Gauss2F1(2.0 * vartheta, b, rho + s + 2.0)
        if memo is not None:
            memo[shape] = part
    beta_factor, series = part
    base = x if kind in (1, 2) else theta
    return beta_factor / base ** (2.0 * vartheta) * series(w)


def lambda_column(kind: int, end: float, xs: Sequence[float], s: float,
                  vartheta: float, rho: float) -> list[Optional[float]]:
    """lambda_value(kind, end, x, s, vartheta, rho) over xs, None at x = end,
    whose side is zero, and None throughout if one fails, so that a caller
    meets the error point by point. A lambda_memo block keeps each column."""
    memo = _LAMBDA_MEMO.get()
    memo = {} if memo is None else memo
    key = (kind, end, s, vartheta, rho, *xs)
    if key not in memo:
        try:
            memo[key] = [None if x == end else lambda_value(
                kind, end, x, s, vartheta, rho) for x in xs]
        except (DomainError, NumericError):
            memo[key] = [None] * len(xs)
    return memo[key]


def harmonic_midpoint(iv: Interval) -> float:
    """2ab/(a+b), correctly rounded as the integer quotient 2pm/(pn + mq) of
    a = p/q and b = m/n: no product ab overflows or underflows on the way."""
    (p, q), (m, n) = iv.a.as_integer_ratio(), iv.b.as_integer_ratio()
    return 2 * p * m / (p * n + m * q)


def _chain_right(fa: float, fb: float, s: float) -> float:
    """(f(a)+f(b))/(s+1), as f(a)/(s+1) + f(b)/(s+1) where f(a)+f(b) overflows."""
    right = (fa + fb) / (s + 1.0)
    return right if math.isfinite(right) else fa / (s + 1.0) + fb / (s + 1.0)


def hh_harmonic_bounds(f: FunctionSpec, iv: Interval,
                       s: float) -> tuple[float, float, float]:
    """Return the harmonic Hermite-Hadamard chain (left, middle, right):

        2^(s-1) f(2ab/(a+b))  <=  (ab/(b-a)) int_a^b f(u)/u^2 du  <=  (f(a)+f(b))/(s+1)

    The chain holds whenever f is harmonically s-convex on [a, b]; this
    function only evaluates the three members.
    """
    validate_s(s)
    left = 2.0 ** (s - 1.0) * f(harmonic_midpoint(iv))
    middle = weighted_mean(f, iv)
    return left, middle, _chain_right(f(iv.a), f(iv.b), s)


def hh_s_convex_bounds(f: FunctionSpec, a: float, b: float,
                       s: float) -> tuple[float, float, float]:
    """Return the arithmetic-mean chain (left, middle, right):

        2^(s-1) f((a+b)/2)  <=  (1/(b-a)) int_a^b f  <=  (f(a)+f(b))/(s+1)

    for a >= 0. This is the s-convex (second sense) counterpart of the
    harmonic chain.
    """
    validate_s(s)
    left = 2.0 ** (s - 1.0) * f((a + b) / 2.0)
    middle = arithmetic_mean(f, a, b)
    return left, middle, _chain_right(f(a), f(b), s)


@_finite
def classic_ostrowski_rhs(x: float, iv: Interval, M: float) -> float:
    """Classic Ostrowski bound M(b-a) [1/4 + (x - (a+b)/2)^2 / (b-a)^2]."""
    validate_m(M)
    if not iv.a <= x <= iv.b:
        raise DomainError(f"x={x} outside [{iv.a}, {iv.b}]")
    w = iv.b - iv.a
    mid = 0.5 * (iv.a + iv.b)
    ww = w * w
    if sys.float_info.min <= ww <= sys.float_info.max:
        return M * w * (0.25 + (x - mid) ** 2 / ww)
    # w*w underflows or overflows; the ratio |x - mid|/w <= 1/2 does not
    return M * w * (0.25 + ((x - mid) / w) ** 2)


def ostrowski_lhs(f: FunctionSpec, x: float, iv: Interval) -> float:
    """Return |f(x) - (ab/(b-a)) int_a^b f(u)/u^2 du|."""
    if not iv.a <= x <= iv.b:
        raise DomainError(f"x={x} outside [{iv.a}, {iv.b}]")
    return abs(f(x) - weighted_mean(f, iv))


@_finite
def ostrowski_rhs(theorem: str, f: FunctionSpec, xs: Sequence[float],
                  iv: Interval, s: float, q: Optional[float],
                  p: Optional[float], M: Optional[float] = None) -> list[float]:
    """Assemble the right-hand side of one Ostrowski-type bound at each x of
    xs: (ab/(b-a)) * prefactor * [side(a) + side(b)], where side(end) is
    (x-end)^2 times a lambda-weighted power mean of |f'(x)|^q and
    |f'(end)|^q (times lambda5^(1-1/q) for T2_5), or Hoelder's form of the
    same for T2_7, each end term of each theorem built in one loop.

    The exponents (q, p) are completed by resolve_exponents. |f'| comes from
    numeric.derivative, or is M when M is given (the corollary mode). x = a
    or x = b zeroes that side, whose weights are not evaluated. The checks,
    |f'(a)|, |f'(b)| and the prefactor are taken once per scan, each weight
    column once (lambda_column); each x gets the float, or the error, of a
    scan of [x] alone.
    """
    if theorem not in OSTROWSKI_THEOREMS:
        raise DomainError(f"unknown theorem {theorem!r}; expected one of "
                          f"{', '.join(OSTROWSKI_THEOREMS)}")
    validate_s(s)
    a, b = iv.a, iv.b
    for x in xs:
        if not a <= x <= b:
            raise DomainError(f"x={x} outside [{a}, {b}]")
    q, p = resolve_exponents(theorem, q, p)
    if M is not None:
        dxs, da, db = [validate_m(M)] * len(xs), M, M
    else:
        # the order of a scan of [x]; |f'| is monotone: no later x fails alone
        dxs = [abs(derivative(f, x)) for x in xs[:1]]
        da, db = abs(derivative(f, a)), abs(derivative(f, b))
        dxs += [abs(derivative(f, x)) for x in xs[1:]]

    inv_q = 1.0 / q
    # the theorems differ in the (vartheta, rho) of the lambda weights and
    # an outer prefactor; T2_7 weighs each side by kind 1 or 3 at s = 0
    vt, rho, prefactor = {
        "T2_3": lambda: (q, q, 1.0),
        "T2_4": lambda: (q, 1.0, 0.5 ** (1.0 - inv_q)),
        "T2_5": lambda: (1.0, 1.0, 1.0),
        "T2_6": lambda: (q, 0.0, (1.0 / (p + 1.0)) ** (1.0 / p)),
        "T2_7": lambda: (p, p, 1.0)}[theorem]()
    scale = a * b / (b - a) * prefactor
    s_w, kinds = (0.0, (1, 3)) if theorem == "T2_7" else (s, (1, 2, 3, 4))
    rhs = []
    with lambda_memo():
        col = {k: lambda_column(k, a if k < 3 else b, xs, s_w, vt, rho) for k in kinds}
        col5 = {end: lambda_column(5, end, xs, None, None, None)
                for end in (a, b) if theorem == "T2_5"}
        for i, (x, dx) in enumerate(zip(xs, dxs)):
            total = 0.0
            for end, d_end, kind in ((a, da, 1), (b, db, 3)):
                # kinds 1, 2 weigh the a-side, 3, 4 the b-side, 5 (lambda5) both;
                # a weight None in its column failed: lambda_value raises here
                if x == end:
                    continue
                lam = col[kind][i] or lambda_value(kind, end, x, s_w, vt, rho)
                if theorem == "T2_7":
                    bracket = dx ** q + d_end ** q
                else:
                    lam_end = col[kind + 1][i] or lambda_value(
                        kind + 1, end, x, s, vt, rho)
                    bracket = lam * dx ** q + lam_end * d_end ** q
                # a power-mean bracket below the normal floats has lost its
                # digits, to 0 at worst, unless dx and d_end are both 0
                if bracket < MIN_NORMAL and (dx or d_end):
                    raise NumericError(f"{theorem}: the power mean at {end} "
                                       "underflows below the normal floats")
                if theorem == "T2_7":  # (x - end)^2 is (end - x)^2 exactly
                    total += lam ** (1.0 / vt) * (x - end) ** 2 \
                        * (bracket / (s + 1.0)) ** inv_q
                elif theorem == "T2_5":
                    lam5 = col5[end][i] or lambda_value(5, end, x, None, None, None)
                    total += (x - end) ** 2 * bracket ** inv_q \
                        * lam5 ** (1.0 - inv_q)
                else:
                    total += (x - end) ** 2 * bracket ** inv_q
            rhs.append(scale * total)
            if not math.isfinite(rhs[-1]):  # _finite's test, point by point
                raise NumericError(f"ostrowski_rhs: non-finite result {rhs[-1]}")
    return rhs
