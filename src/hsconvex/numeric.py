"""Adaptive quadrature oracle and the function registry.

The verifier in this package never trusts a closed form on its own: every
formula is cross-checked against `integrate`, a globally adaptive
Gauss-Kronrod 7/15 scheme. The embedded 7-point Gauss rule provides the
error estimate |K15 - G7| per panel; the panel with the worst estimate is
bisected until the summed estimate drops below the caller's tolerance.

`FunctionSpec` packages an evaluable f on (0, inf) with its analytic f' or
None. Every registry function is c*u^r, with f and f' built by one rule in
`power_law`; its exact name (const:<c>, id, pow:<r>, inv, neg) gives (c, r).
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, NamedTuple, Optional

from .errors import DomainError, NumericError

DEFAULT_TOL = 1e-10
MAX_DEPTH = 50
# integrand evaluations one integrate call may spend. MAX_DEPTH bounds how
# deep one panel goes, not how many panels there are: near a sharp peak the
# bisection can split many thousands of panels before any reaches MAX_DEPTH
MAX_EVALS = 100_000

# the least normal float; below it a value has lost digits, and a product
# or integral may have underflowed to 0
MIN_NORMAL = 2.0 ** -1022

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


def validate_s(s: float) -> float:
    """s-convexity exponent: s in (0, 1]."""
    if not (math.isfinite(s) and 0.0 < s <= 1.0):
        raise DomainError(f"s must lie in (0, 1], got {s}")
    return s


class QuadResult(NamedTuple):
    """One quadrature answer: value, error estimate, evaluation count."""

    value: float
    err_est: float
    evals: int


class _Endpoints(NamedTuple):
    a: float
    b: float


class Interval(_Endpoints):
    """A closed interval [a, b] strictly inside (0, inf), checked on
    construction (by a subclass: a NamedTuple may not define __new__)."""

    __slots__ = ()

    def __new__(cls, a: float, b: float) -> Interval:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DomainError("interval endpoints must be finite")
        if not 0.0 < a < b:
            raise DomainError(f"interval requires 0 < a < b, got [{a}, {b}]")
        return super().__new__(cls, a, b)


class FunctionSpec(NamedTuple):
    """An evaluable scalar function with its analytic derivative or None.

    eval_fn and deriv_fn receive points from (0, inf]; 0 is an open
    endpoint (several registry functions blow up there).
    """

    fn_id: str
    eval_fn: Callable[[float], float]
    deriv_fn: Optional[Callable[[float], float]] = None

    def __call__(self, x: float) -> float:
        # the arithmetic-mean chain may evaluate at a = 0; that is allowed
        # when f is finite there, which the checks below establish
        if not x >= 0.0:
            raise DomainError(f"{self.fn_id}: {x} outside domain (0.0, inf]")
        try:
            v = self.eval_fn(x)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise DomainError(f"{self.fn_id}: evaluation failed at {x}") from exc
        if not math.isfinite(v):
            raise DomainError(f"{self.fn_id}: non-finite value at {x}")
        return v

    def values(self, xs: list[float]) -> list[float]:
        """[self(x) for x in xs], guarded once for the whole list: one
        domain check, eval_fn mapped over xs, one finiteness check. When
        any of them fails, the per-point calls are rerun, so the DomainError
        raised is the one of the first bad point, with the same cause."""
        if all(map((0.0).__le__, xs)):
            try:
                vs = list(map(self.eval_fn, xs))
            except (ZeroDivisionError, OverflowError, ValueError):
                pass
            else:
                if all(map(math.isfinite, vs)):
                    return vs
        return [self(x) for x in xs]


def gk15(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Apply the 15-point Kronrod rule on [lo, hi].

    Returns (K15 value, |K15 - G7| error estimate). Raises DomainError on a
    non-finite sample, per the integrate contract, including one whose
    evaluation divides by zero or overflows, and NumericError when finite
    samples sum to a non-finite value or estimate.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    try:
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
    except (ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"non-finite sample on [{lo}, {hi}]") from exc
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
    when a panel would need bisection beyond MAX_DEPTH or a bisection would
    take the evaluations past MAX_EVALS, and DomainError on any non-finite
    sample.
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
    while True:
        if total_err <= tol:
            # the running sum cancels, down to below zero; stop only when
            # the exact sum over the live panels also meets tol
            total_err = math.fsum(item[6] for item in heap)
            if total_err <= tol:
                break
        _, _, depth, a, b, v, e = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        too_deep = depth >= MAX_DEPTH or mid <= a or mid >= b
        if too_deep or evals + 30 > MAX_EVALS:
            best = math.fsum(item[5] for item in heap) + v
            best_err = math.fsum(item[6] for item in heap) + e
            raise NumericError(
                f"bisection depth {depth} exhausted at panel [{a}, {b}]"
                if too_deep else
                f"evaluation budget spent: {evals} evaluations, error "
                f"estimate {best_err:.3g} above tol {tol:g}",
                value=best, err_est=best_err)
        v1, e1 = gk15(f, a, mid)
        v2, e2 = gk15(f, mid, b)
        evals += 30
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, counter, depth + 1, a, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, depth + 1, mid, b, v2, e2))
        counter += 2
    value = math.fsum(item[5] for item in heap)
    return QuadResult(value=value, err_est=total_err, evals=evals)


def arithmetic_mean(f: FunctionSpec, a: float, b: float, tol: float) -> float:
    """Return (1/(b-a)) * integral_a^b f(u) du, with the integral to
    absolute tolerance tol. Where the integral is not a normal float (at
    tiny a and b it underflows before the division), the mean is taken as
    integral_0^1 f(a + t(b-a)) dt instead, to the same tolerance."""
    total = integrate(f, a, b, tol).value
    if abs(total) >= MIN_NORMAL:
        return total / (b - a)
    return integrate(lambda t: f(a + t * (b - a)), 0.0, 1.0, tol).value


def weighted_mean(f: FunctionSpec, iv: Interval, tol: float = DEFAULT_TOL) -> float:
    """Return (ab/(b-a)) * integral_a^b f(u)/u^2 du.

    This is the integral average against the measure du/u^2 that every
    harmonic-mean inequality in this package compares against.
    """
    q = integrate(lambda u: f(u) / (u * u), iv.a, iv.b, tol)
    return iv.a * iv.b / (iv.b - iv.a) * q.value


def derivative(f: FunctionSpec, x: float) -> float:
    """Return the analytic f'(x). Raises DomainError when f has no
    deriv_fn, or when deriv_fn fails or is not finite at x."""
    if f.deriv_fn is None:
        raise DomainError(f"{f.fn_id}: no analytic derivative")
    try:
        v = f.deriv_fn(x)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise DomainError(f"{f.fn_id}: derivative failed at {x}") from exc
    if not math.isfinite(v):
        raise DomainError(f"{f.fn_id}: non-finite derivative at {x}")
    return v


def power_law(fn_id: str, c: float, r: float) -> FunctionSpec:
    """f(u) = c*u^r and f'(u) = (c*r)*u^(r-1), by one rule. r = -1 divides,
    c/u and (c*r)/(u*u), as u**-1.0 and u**-2.0 round differently; r = 0
    has f' = +0.0, as c*0 is -0.0 for c < 0 and u**-1.0 overflows at a
    subnormal u."""
    cr, r1 = c * r, r - 1.0
    if r == -1.0:
        return FunctionSpec(fn_id, lambda x: c / x, lambda x: cr / (x * x))
    return FunctionSpec(fn_id, lambda x: c * x ** r,
                        (lambda x: 0.0) if r == 0.0 else lambda x: cr * x ** r1)


def exact(v: float) -> str:
    """v as {v:g} when that reads back as v, else as repr(v)."""
    return f"{v:g}" if float(f"{v:g}") == v else repr(v)


_POWER_FORMS = {"id": (1.0, 1.0), "inv": (1.0, -1.0), "neg": (-1.0, 1.0)}

REGISTRY_FORMS = ("const:<c>", "id", "pow:<r>", "inv", "neg")


def get_function(fn_id: str) -> FunctionSpec:
    """Resolve a registry id to the c*u^r it names: const:<c> is (c, 0), id
    (1, 1), pow:<r> (1, r) for r > 0, inv (1, -1), neg (-1, 1). The fn_id
    returned names c or r exactly, so it resolves to the same values."""
    if fn_id in _POWER_FORMS:
        return power_law(fn_id, *_POWER_FORMS[fn_id])
    if fn_id.startswith("const:"):
        try:
            c = float(fn_id[6:])
        except ValueError as exc:
            raise DomainError(f"bad constant in {fn_id!r}") from exc
        if not math.isfinite(c):
            raise DomainError(f"constant must be finite, got {c}")
        return power_law(f"const:{exact(c)}", c, 0.0)
    if fn_id.startswith("pow:"):
        try:
            r = float(fn_id[4:])
        except ValueError as exc:
            raise DomainError(f"bad exponent in {fn_id!r}") from exc
        if not (math.isfinite(r) and r > 0.0):
            raise DomainError(f"pow exponent must be positive, got {r}")
        return power_law(f"pow:{exact(r)}", 1.0, r)
    raise DomainError(
        f"unknown function id {fn_id!r}; expected one of {', '.join(REGISTRY_FORMS)}")
