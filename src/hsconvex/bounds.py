"""Closed-form evaluators for the right-hand sides of the inequalities.

The lambda coefficient family, indexed by kind 1..4, collects the weighted
integrals

    kinds 1, 3:  int_0^1 t^(rho+s)           / (t*theta + (1-t)*x)^(2*vartheta) dt
    kinds 2, 4:  int_0^1 t^rho (1-t)^s       / (t*theta + (1-t)*x)^(2*vartheta) dt

where kinds 1, 2 sit on the a-side (theta <= x, z = 1 - theta/x) and kinds
3, 4 on the b-side (x <= theta, z = 1 - x/theta). Each has a closed form in
Beta and 2F1 obtained from the Euler integral representation; the closed
forms are what this module evaluates, and the quadrature oracle in
`verify` holds them against the defining integrals.

lambda5 is the q = 1 degenerate weight int_0^1 t/(t*theta + (1-t)*x)^2 dt
with the elementary closed form (1/(x-theta)) (1/theta - ln(x/theta)/(x-theta)).
That expression loses all precision as theta -> x, so the implementation
switches to a Taylor expansion in z = 1 - theta/x below |z| = 1e-4.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

from .errors import DomainError, NumericError
from .numeric import (DEFAULT_TOL, FunctionSpec, Interval, derivative,
                      integrate, validate_s, weighted_mean)
from .specfn import Z_CAP, beta, hyp2f1

OSTROWSKI_THEOREMS = ("T2_3", "T2_4", "T2_5", "T2_6", "T2_7")

# switch point between the elementary lambda5 closed form and its Taylor
# expansion about theta = x; below this the closed form cancels catastrophically
_LAMBDA5_TAYLOR_CUT = 1e-4


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


@dataclass(frozen=True)
class ConjugatePair:
    """Holder conjugate exponents: p, q > 1 with 1/p + 1/q = 1."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and self.p > 1.0
                and math.isfinite(self.q) and self.q > 1.0):
            raise DomainError(f"conjugate exponents must exceed 1, got ({self.p}, {self.q})")
        if abs(1.0 / self.p + 1.0 / self.q - 1.0) > 1e-14:
            raise DomainError(f"1/p + 1/q must equal 1, got p={self.p}, q={self.q}")

    @classmethod
    def from_p(cls, p: float) -> "ConjugatePair":
        if not (math.isfinite(p) and p > 1.0):
            raise DomainError(f"p must exceed 1, got {p}")
        return cls(p, p / (p - 1.0))

    @classmethod
    def from_q(cls, q: float) -> "ConjugatePair":
        if not (math.isfinite(q) and q > 1.0):
            raise DomainError(f"q must exceed 1, got {q}")
        return cls(q / (q - 1.0), q)


def resolve_exponents(theorem: str,
                      exponents: Union[float, ConjugatePair, tuple, None]
                      ) -> tuple[Optional[float], Optional[ConjugatePair]]:
    """Normalize what a theorem takes to (q, pair): nothing for T2_2, a
    ConjugatePair for T2_6/T2_7 (pair set), a scalar q >= 1 or the q of a
    ConjugatePair for the others (pair None). exponents may also be the
    CLI's (--q, --p) flags; for T2_6/T2_7 either determines the other.
    """
    if theorem == "T2_2":
        return None, None
    holder = theorem in ("T2_6", "T2_7")
    if isinstance(exponents, tuple):
        q, p = exponents
        exponents = q
        if holder and p is not None:
            exponents = ConjugatePair.from_p(p) if q is None else ConjugatePair(p, q)
        elif holder and q is not None:
            exponents = ConjugatePair.from_q(q)
    if holder and not isinstance(exponents, ConjugatePair):
        raise DomainError(f"{theorem} needs conjugate exponents: give --p, --q or both")
    if exponents is None:
        raise DomainError(f"{theorem} needs --q (a power-mean exponent >= 1)")
    if isinstance(exponents, ConjugatePair):
        return exponents.q, exponents if holder else None
    return validate_q(exponents), None


@dataclass(frozen=True)
class LambdaArgs:
    """Argument tuple (kind, theta, x, s, vartheta, rho) of the lambda family."""

    kind: int
    theta: float
    x: float
    s: float
    vartheta: float
    rho: float

    def __post_init__(self) -> None:
        if self.kind not in (1, 2, 3, 4):
            raise DomainError(f"kind must be 1..4, got {self.kind}")
        for name, v in (("theta", self.theta), ("x", self.x)):
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be positive, got {v}")
        if not (math.isfinite(self.s) and self.s >= 0.0):
            raise DomainError(f"s must be nonnegative, got {self.s}")
        if not (math.isfinite(self.vartheta) and self.vartheta > 0.0):
            raise DomainError(f"vartheta must be positive, got {self.vartheta}")
        if not (math.isfinite(self.rho) and self.rho >= 0.0):
            raise DomainError(f"rho must be nonnegative, got {self.rho}")
        if self.kind in (1, 2) and not self.theta <= self.x:
            raise DomainError(
                f"kinds 1, 2 are a-side weights and require theta <= x, "
                f"got theta={self.theta}, x={self.x}")
        if self.kind in (3, 4) and not self.x <= self.theta:
            raise DomainError(
                f"kinds 3, 4 are b-side weights and require x <= theta, "
                f"got theta={self.theta}, x={self.x}")
        if self.z >= Z_CAP:
            raise DomainError(
                f"z={self.z} too close to 1 (theta/x ratio too extreme)")

    @property
    def z(self) -> float:
        if self.kind in (1, 2):
            return 1.0 - self.theta / self.x
        return 1.0 - self.x / self.theta


def lambda_integrand(args: LambdaArgs):
    """Return the defining integrand of args as a callable on (0, 1).

    This is what the quadrature oracle integrates when cross-checking the
    closed form.
    """
    theta, x = args.theta, args.x
    two_vt = 2.0 * args.vartheta
    rho, s = args.rho, args.s
    if args.kind in (1, 3):
        def integrand(t: float) -> float:
            return t ** (rho + s) / (t * theta + (1.0 - t) * x) ** two_vt
    else:
        def integrand(t: float) -> float:
            return t ** rho * (1.0 - t) ** s / (t * theta + (1.0 - t) * x) ** two_vt
    return integrand


def lambda5_integrand(theta: float, x: float):
    """Return the defining integrand t/(t*theta + (1-t)*x)^2 of lambda5."""
    def integrand(t: float) -> float:
        denom = t * theta + (1.0 - t) * x
        return t / (denom * denom)
    return integrand


def _finite(fn):
    """Make fn raise NumericError where its float arithmetic leaves the
    float range: an OverflowError inside it, a division by a square or
    power that underflowed to 0, or a non-finite value it would return."""
    @functools.wraps(fn)
    def finite_fn(*args, **kwargs):
        try:
            v = fn(*args, **kwargs)
        except OverflowError as exc:
            raise NumericError(f"{fn.__name__}: result overflows") from exc
        except ZeroDivisionError as exc:
            raise NumericError(f"{fn.__name__}: a divisor underflows to 0") from exc
        if not math.isfinite(v):
            raise NumericError(f"{fn.__name__}: non-finite result {v}")
        return v
    return finite_fn


# the lambda weights of the sweep in progress, keyed by LambdaArgs; None
# outside a lambda_memo block
_LAMBDA_MEMO: contextvars.ContextVar[Optional[dict]] = contextvars.ContextVar(
    "lambda_memo", default=None)


@contextlib.contextmanager
def lambda_memo():
    """Within the block, lambda_value computes each distinct LambdaArgs
    once and returns the stored value after. A weight does not depend on f,
    so a sweep over many functions repeats the same few hundred. A block
    inside another shares the outer block's memo; the memo ends with the
    outermost block, so no value outlives the run that computed it."""
    if _LAMBDA_MEMO.get() is not None:
        yield
        return
    token = _LAMBDA_MEMO.set({})
    try:
        yield
    finally:
        _LAMBDA_MEMO.reset(token)


@_finite
def lambda_value(args: LambdaArgs) -> float:
    """Evaluate the closed form of the lambda weight `args`,
    beta(b, b2) / base^(2vt) * 2F1(2vt, b; rho+s+2; z), with the Beta
    arguments (b, b2) and the base of each kind in the table below.
    Inside a lambda_memo block each distinct args is computed once."""
    memo = _LAMBDA_MEMO.get()
    if memo is not None and args in memo:
        return memo[args]
    rho, s = args.rho, args.s
    b, b2, base = {1: (rho + s + 1.0, 1.0, args.x),
                   2: (rho + 1.0, s + 1.0, args.x),
                   3: (1.0, rho + s + 1.0, args.theta),
                   4: (s + 1.0, rho + 1.0, args.theta)}[args.kind]
    two_vt = 2.0 * args.vartheta
    front = beta(b, b2) / base ** two_vt
    value = front * hyp2f1(two_vt, b, rho + s + 2.0, args.z)
    if memo is not None:
        memo[args] = value
    return value


@_finite
def lambda5(theta: float, x: float) -> float:
    """Evaluate int_0^1 t/(t*theta + (1-t)*x)^2 dt.

    Closed form ((x-theta)/theta - ln(x/theta)) / (x-theta)^2 away from
    theta = x; Taylor expansion (1/x^2) sum_k ((k+1)/(k+2)) z^k with
    z = 1 - theta/x when |z| < 1e-4. Continuous through theta = x, where
    the value is 1/(2 x^2).
    """
    for name, v in (("theta", theta), ("x", x)):
        if not (math.isfinite(v) and v > 0.0):
            raise DomainError(f"lambda5 requires {name} > 0, got {v}")
    z = 1.0 - theta / x
    if abs(z) >= _LAMBDA5_TAYLOR_CUT:
        d = x - theta
        w = d / theta
        # log1p keeps w - ln(1+w) accurate when w is small but above the
        # cut; w rounds to -1 when x << theta, where log1p has no value
        log_ratio = math.log(x) - math.log(theta) if w <= -1.0 else math.log1p(w)
        return (w - log_ratio) / (d * d)
    acc = 0.0
    term = 1.0
    for k in range(12):
        acc += (k + 1.0) / (k + 2.0) * term
        term *= z
    return acc / (x * x)


def hh_harmonic_bounds(f: FunctionSpec, iv: Interval, s: float,
                       tol: float = DEFAULT_TOL) -> tuple[float, float, float]:
    """Return the harmonic Hermite-Hadamard chain (left, middle, right):

        2^(s-1) f(2ab/(a+b))  <=  (ab/(b-a)) int_a^b f(u)/u^2 du  <=  (f(a)+f(b))/(s+1)

    The chain holds whenever f is harmonically s-convex on [a, b]; this
    function only evaluates the three members.
    """
    validate_s(s)
    left = 2.0 ** (s - 1.0) * f(2.0 * iv.a * iv.b / (iv.a + iv.b))
    middle = weighted_mean(f, iv, tol)
    right = (f(iv.a) + f(iv.b)) / (s + 1.0)
    return left, middle, right


def hh_s_convex_bounds(f: FunctionSpec, a: float, b: float, s: float,
                       tol: float = DEFAULT_TOL) -> tuple[float, float, float]:
    """Return the arithmetic-mean chain (left, middle, right):

        2^(s-1) f((a+b)/2)  <=  (1/(b-a)) int_a^b f  <=  (f(a)+f(b))/(s+1)

    for a >= 0. This is the s-convex (second sense) counterpart of the
    harmonic chain.
    """
    validate_s(s)
    if not (math.isfinite(a) and math.isfinite(b) and 0.0 <= a < b):
        raise DomainError(f"requires 0 <= a < b, got [{a}, {b}]")
    left = 2.0 ** (s - 1.0) * f((a + b) / 2.0)
    middle = integrate(f, a, b, tol).value / (b - a)
    right = (f(a) + f(b)) / (s + 1.0)
    return left, middle, right


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


def ostrowski_lhs(f: FunctionSpec, x: float, iv: Interval,
                  tol: float = DEFAULT_TOL) -> float:
    """Return |f(x) - (ab/(b-a)) int_a^b f(u)/u^2 du|."""
    if not iv.a <= x <= iv.b:
        raise DomainError(f"x={x} outside [{iv.a}, {iv.b}]")
    return abs(f(x) - weighted_mean(f, iv, tol))


@_finite
def ostrowski_rhs(theorem: str, f: FunctionSpec, x: float, iv: Interval,
                  s: float, q: Union[float, ConjugatePair],
                  M: Optional[float] = None) -> float:
    """Assemble the right-hand side of one Ostrowski-type bound at x:
    (ab/(b-a)) * prefactor * [side(a) + side(b)], where side(end) is
    (x-end)^2 times a lambda-weighted power mean of |f'(x)|^q and
    |f'(end)|^q (times lambda5^(1-1/q) for T2_5), or Hoelder's form of the
    same for T2_7. Every end term of every theorem is built by side().

    T2_3/T2_4/T2_5 take a scalar exponent q >= 1; T2_6/T2_7 require a
    ConjugatePair. Derivative magnitudes |f'(x)|, |f'(a)|, |f'(b)| come from
    numeric.derivative, or are all replaced by M when M is given (the
    corollary mode; the printed corollary prefactors are algebraically this
    substitution). x = a or x = b zeroes that side structurally, skipping
    the lambda evaluations whose z would sit at the domain edge.
    """
    if theorem not in OSTROWSKI_THEOREMS:
        raise DomainError(f"unknown theorem {theorem!r}; expected one of "
                          f"{', '.join(OSTROWSKI_THEOREMS)}")
    validate_s(s)
    a, b = iv.a, iv.b
    if not a <= x <= b:
        raise DomainError(f"x={x} outside [{a}, {b}]")

    q_exp, pair = resolve_exponents(theorem, q)

    if M is not None:
        validate_m(M)
        dx = da = db = M
    else:
        dx, da, db = (abs(derivative(f, u)) for u in (x, a, b))

    inv_q = 1.0 / q_exp
    # the theorems differ in the (vartheta, rho) of the lambda weights and
    # an outer prefactor
    if theorem == "T2_3":
        vt, rho, prefactor = q_exp, q_exp, 1.0
    elif theorem == "T2_4":
        vt, rho, prefactor = q_exp, 1.0, 0.5 ** (1.0 - inv_q)
    elif theorem == "T2_5":
        vt, rho, prefactor = 1.0, 1.0, 1.0
    elif theorem == "T2_6":
        vt, rho, prefactor = q_exp, 0.0, (1.0 / (pair.p + 1.0)) ** (1.0 / pair.p)
    else:  # T2_7
        vt, rho, prefactor = pair.p, pair.p, 1.0

    def side(end: float, d_end: float, kind: int) -> float:
        # kinds 1, 2 weigh the a-side, kinds 3, 4 the b-side; (x - end)^2
        # equals (end - x)^2 exactly
        if theorem == "T2_7":
            lam = lambda_value(LambdaArgs(kind, end, x, 0.0, vt, rho))
            return lam ** (1.0 / vt) * (x - end) ** 2 \
                * ((dx ** q_exp + d_end ** q_exp) / (s + 1.0)) ** inv_q
        lam_x = lambda_value(LambdaArgs(kind, end, x, s, vt, rho))
        lam_end = lambda_value(LambdaArgs(kind + 1, end, x, s, vt, rho))
        term = (x - end) ** 2 \
            * (lam_x * dx ** q_exp + lam_end * d_end ** q_exp) ** inv_q
        if theorem == "T2_5":
            term *= lambda5(end, x) ** (1.0 - inv_q)
        return term

    total = 0.0
    if x > a:
        total += side(a, da, 1)
    if x < b:
        total += side(b, db, 3)
    return a * b / (b - a) * prefactor * total
