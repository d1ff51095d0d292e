"""Adaptive quadrature oracle and the function registry.

The verifier in this package never trusts a closed form on its own: every
formula is cross-checked against `integrate`, a globally adaptive
Gauss-Kronrod 7/15 scheme. The embedded 7-point Gauss rule provides the
error estimate |K15 - G7| per panel; the panel with the worst estimate is
bisected until the summed estimate drops below the caller's tolerance.

`FunctionSpec` packages an evaluable f with an optional analytic f' and a
validity domain; the registry maps the CLI's function vocabulary
(const:<c>, id, pow:<r>, inv, neg) onto FunctionSpec instances.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DomainError, NumericError

DEFAULT_TOL = 1e-10
MAX_DEPTH = 50

# Gauss-Kronrod 7/15 abscissae and weights on [-1, 1]. XGK holds the
# nonnegative Kronrod nodes (odd indices are the embedded Gauss-7 nodes);
# WG holds the Gauss weights for those embedded nodes.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839998060075650,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


@dataclass(frozen=True)
class QuadResult:
    """One quadrature answer: value, error estimate, evaluation count."""

    value: float
    err_est: float
    evals: int

    def __post_init__(self) -> None:
        if self.err_est < 0:
            raise ValueError("err_est must be nonnegative")


@dataclass(frozen=True)
class Interval:
    """A closed interval [a, b] strictly inside (0, inf)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError("interval endpoints must be finite")
        if not 0.0 < self.a < self.b:
            raise DomainError(f"interval requires 0 < a < b, got [{self.a}, {self.b}]")


@dataclass(frozen=True)
class FunctionSpec:
    """An evaluable scalar function with optional analytic derivative.

    eval_fn and deriv_fn receive points from (domain_lo, domain_hi];
    domain_lo is treated as an open endpoint (registry functions live on
    (0, inf) and several blow up at 0).
    """

    fn_id: str
    eval_fn: Callable[[float], float]
    deriv_fn: Optional[Callable[[float], float]] = None
    domain_lo: float = 0.0
    domain_hi: float = math.inf

    def __call__(self, x: float) -> float:
        # the arithmetic-mean chain may evaluate at a = 0; that is allowed
        # when f is finite there, which the checks below establish
        if not (self.domain_lo < x <= self.domain_hi or x == self.domain_lo == 0.0):
            raise DomainError(f"{self.fn_id}: {x} outside domain "
                              f"({self.domain_lo}, {self.domain_hi}]")
        try:
            v = self.eval_fn(x)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise DomainError(f"{self.fn_id}: evaluation failed at {x}") from exc
        if not math.isfinite(v):
            raise DomainError(f"{self.fn_id}: non-finite value at {x}")
        return v

    def deriv(self, x: float) -> float:
        if self.deriv_fn is None:
            raise DomainError(f"{self.fn_id}: no analytic derivative")
        try:
            v = self.deriv_fn(x)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise DomainError(f"{self.fn_id}: derivative failed at {x}") from exc
        if not math.isfinite(v):
            raise DomainError(f"{self.fn_id}: non-finite derivative at {x}")
        return v


def gk15(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Apply the 15-point Kronrod rule on [lo, hi].

    Returns (K15 value, |K15 - G7| error estimate). Raises DomainError on a
    non-finite sample, per the integrate contract, and NumericError when
    finite samples sum to a non-finite value or estimate.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    fc = f(c)
    if not math.isfinite(fc):
        raise DomainError(f"non-finite sample at {c}")
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    for j in range(7):
        xa = c - h * _XGK[j]
        xb = c + h * _XGK[j]
        fa = f(xa)
        fb = f(xb)
        if not (math.isfinite(fa) and math.isfinite(fb)):
            bad = xa if not math.isfinite(fa) else xb
            raise DomainError(f"non-finite sample at {bad}")
        kron += _WGK[j] * (fa + fb)
        if j % 2 == 1:
            gauss += _WG[j // 2] * (fa + fb)
    value, err = kron * h, abs(kron - gauss) * abs(h)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise NumericError(f"non-finite panel sum on [{lo}, {hi}]")
    return value, err


def integrate(f: Callable[[float], float], lo: float, hi: float,
              tol: float = DEFAULT_TOL) -> QuadResult:
    """Integrate f over [lo, hi] to absolute tolerance tol.

    Globally adaptive: the panel with the largest |K15 - G7| estimate is
    bisected first, so effort concentrates where the integrand is hardest.
    Node ordering and the final fsum reduction are deterministic, making
    results bit-reproducible run to run.

    Raises NumericError (carrying the best value and its error estimate)
    when a panel would need bisection beyond MAX_DEPTH, and DomainError on
    any non-finite sample.
    """
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    if lo == hi:
        return QuadResult(value=0.0, err_est=0.0, evals=0)
    if not lo < hi:
        raise DomainError(f"integrate requires lo <= hi, got [{lo}, {hi}]")
    val, err = gk15(f, lo, hi)
    # heap entries: (-err, insertion counter, depth, lo, hi, value, err);
    # the counter breaks err ties deterministically
    heap = [(-err, 0, 0, lo, hi, val, err)]
    counter = 1
    evals = 15
    total_err = err
    while total_err > tol:
        _, _, depth, a, b, v, e = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if depth >= MAX_DEPTH or mid <= a or mid >= b:
            best = math.fsum(item[5] for item in heap) + v
            raise NumericError(
                f"bisection depth {depth} exhausted at panel [{a}, {b}]",
                value=best, err_est=total_err)
        v1, e1 = gk15(f, a, mid)
        v2, e2 = gk15(f, mid, b)
        evals += 30
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, counter, depth + 1, a, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, depth + 1, mid, b, v2, e2))
        counter += 2
    value = math.fsum(item[5] for item in heap)
    return QuadResult(value=value, err_est=total_err, evals=evals)


def weighted_mean(f: FunctionSpec, iv: Interval, tol: float = DEFAULT_TOL) -> float:
    """Return (ab/(b-a)) * integral_a^b f(u)/u^2 du.

    This is the integral average against the measure du/u^2 that every
    harmonic-mean inequality in this package compares against.
    """
    if iv.a < f.domain_lo or iv.b > f.domain_hi:
        raise DomainError(f"[{iv.a}, {iv.b}] outside domain of {f.fn_id}")
    q = integrate(lambda u: f(u) / (u * u), iv.a, iv.b, tol)
    return iv.a * iv.b / (iv.b - iv.a) * q.value


_CBRT_EPS = float(2.0 ** -52) ** (1.0 / 3.0)


def derivative(f: FunctionSpec, x: float) -> float:
    """Return f'(x): the analytic derivative when present, else a central
    difference with step h = cbrt(machine epsilon) * max(1, |x|)."""
    if f.deriv_fn is not None:
        return f.deriv(x)
    h = _CBRT_EPS * max(1.0, abs(x))
    if x - h <= f.domain_lo or x + h > f.domain_hi:
        raise DomainError(
            f"{f.fn_id}: x={x} too close to the domain boundary for a "
            "central difference and no analytic derivative is available")
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _make_pow(r: float) -> FunctionSpec:
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"pow exponent must be positive, got {r}")
    return FunctionSpec(
        fn_id=f"pow:{r:g}",
        eval_fn=lambda x: x ** r,
        deriv_fn=lambda x: r * x ** (r - 1.0),
    )


def _make_const(c: float) -> FunctionSpec:
    if not math.isfinite(c):
        raise DomainError(f"constant must be finite, got {c}")
    return FunctionSpec(
        fn_id=f"const:{c:g}",
        eval_fn=lambda x: c,
        deriv_fn=lambda x: 0.0,
    )


_FIXED_REGISTRY = {
    "id": FunctionSpec("id", lambda x: x, lambda x: 1.0),
    "inv": FunctionSpec("inv", lambda x: 1.0 / x, lambda x: -1.0 / (x * x)),
    "neg": FunctionSpec("neg", lambda x: -x, lambda x: -1.0),
}

REGISTRY_FORMS = ("const:<c>", "id", "pow:<r>", "inv", "neg")


def get_function(fn_id: str) -> FunctionSpec:
    """Resolve a registry id (const:<c>, id, pow:<r>, inv, neg)."""
    if fn_id in _FIXED_REGISTRY:
        return _FIXED_REGISTRY[fn_id]
    if fn_id.startswith("const:"):
        try:
            c = float(fn_id[6:])
        except ValueError as exc:
            raise DomainError(f"bad constant in {fn_id!r}") from exc
        return _make_const(c)
    if fn_id.startswith("pow:"):
        try:
            r = float(fn_id[4:])
        except ValueError as exc:
            raise DomainError(f"bad exponent in {fn_id!r}") from exc
        return _make_pow(r)
    raise DomainError(
        f"unknown function id {fn_id!r}; expected one of {', '.join(REGISTRY_FORMS)}")
