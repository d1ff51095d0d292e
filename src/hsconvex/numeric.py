"""The function registry, its closed means and the quadrature oracle.

`FunctionSpec` is the one function type: a registry function c*u^r, held as
its exact name (const:<c>, id, pow:<r>, inv, neg) and (c, r). Calling it
gives f(u), `derivative` gives f'(u), and `weighted_mean` and
`arithmetic_mean` give its two means, each by one closed form.

`integrate`, a globally adaptive Gauss-Kronrod 7/15 scheme, is the oracle
every closed form is held against, and is used for nothing else. Each panel
is one call of `gk15`, its 15 samples and two sums written out flat; the
embedded 7-point Gauss rule gives the error estimate |K15 - G7|, and the
panel with the worst estimate is bisected until the summed estimate is at
most REL_TOL of the summed |value| of the panels. There is no tolerance to
set: every oracle site asks for the same relative accuracy.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, NamedTuple, Optional

from .errors import DomainError, NumericError

# integrate stops at a summed |K15 - G7| of REL_TOL times the summed |value|
# of the panels, and reports no less than ROUNDOFF of that sum, below which
# the sums carry rounding (QUADPACK's epsrel and 50 * epmach * resabs)
REL_TOL = 1e-12
ROUNDOFF = 50.0 * 2.0 ** -52
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
    """The registry function f(u) = c*u^r on [0, inf], named fn_id; 0 is
    an open endpoint where r < 0. r = -1 divides, c/u, as u**-1.0 rounds
    differently."""

    fn_id: str
    c: float
    r: float

    def __call__(self, x: float) -> float:
        # the arithmetic-mean chain may evaluate at a = 0; that is allowed
        # when f is finite there, which the checks below establish
        if not x >= 0.0:
            raise DomainError(f"{self.fn_id}: {x} outside domain (0.0, inf]")
        try:
            v = self.c / x if self.r == -1.0 else self.c * x ** self.r
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise DomainError(f"{self.fn_id}: evaluation failed at {x}") from exc
        if not math.isfinite(v):
            raise DomainError(f"{self.fn_id}: non-finite value at {x}")
        return v


def gk15(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Apply the 15-point Kronrod rule on [lo, hi], sampling f at the
    centre, then at each node pair (c - h*x_j, c + h*x_j) from the outside
    in, and summing in that order. Returns (K15 value, |K15 - G7| error
    estimate). Raises DomainError on a non-finite sample, per the integrate
    contract, including one whose evaluation divides by zero or overflows,
    and NumericError when finite samples sum to a non-finite value or
    estimate. The weights are positive, so only sums that are not finite
    send the check to the samples, to name the first bad one.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x0, x1, x2, x3, x4, x5, x6, _ = _XGK
    try:
        fc = f(c)
        a0, b0 = f(c - h * x0), f(c + h * x0)
        a1, b1 = f(c - h * x1), f(c + h * x1)
        a2, b2 = f(c - h * x2), f(c + h * x2)
        a3, b3 = f(c - h * x3), f(c + h * x3)
        a4, b4 = f(c - h * x4), f(c + h * x4)
        a5, b5 = f(c - h * x5), f(c + h * x5)
        a6, b6 = f(c - h * x6), f(c + h * x6)
    except (ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"non-finite sample on [{lo}, {hi}]") from exc
    (w0, w1, w2, w3, w4, w5, w6, w7), (g0, g1, g2, g3) = _WGK, _WG
    kron = (w7 * fc + w0 * (a0 + b0) + w1 * (a1 + b1) + w2 * (a2 + b2)
            + w3 * (a3 + b3) + w4 * (a4 + b4) + w5 * (a5 + b5) + w6 * (a6 + b6))
    gauss = g3 * fc + g0 * (a1 + b1) + g1 * (a3 + b3) + g2 * (a5 + b5)
    value, err = kron * h, abs(kron - gauss) * abs(h)
    if not (math.isfinite(value) and math.isfinite(err)):
        xs = [c] + [u for x in _XGK[:7] for u in (c - h * x, c + h * x)]
        ys = (fc, a0, b0, a1, b1, a2, b2, a3, b3, a4, b4, a5, b5, a6, b6)
        for x, y in zip(xs, ys):
            if not math.isfinite(y):
                raise DomainError(f"non-finite sample at {x}")
        raise NumericError(f"non-finite panel sum on [{lo}, {hi}]")
    return value, err


def integrate(f: Callable[[float], float], lo: float, hi: float) -> QuadResult:
    """Integrate f over [lo, hi] to the relative tolerance REL_TOL,
    bisecting the panel of largest estimate first, where the integrand is
    hardest. The error estimate is never below ROUNDOFF of the summed
    |value| of the panels. Node ordering and the final fsum reduction are
    deterministic, making results bit-reproducible run to run.

    Raises NumericError (carrying the best value and its error estimate)
    when a panel would need bisection beyond MAX_DEPTH or a bisection would
    take the evaluations past MAX_EVALS, and DomainError on any non-finite
    sample.
    """
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
    total_err, total_abs = err, abs(val)
    while True:
        if total_err <= REL_TOL * total_abs:
            # the running sums cancel, the errors down to below zero; stop
            # only when the exact sums over the live panels also meet it
            total_err = math.fsum(item[6] for item in heap)
            total_abs = math.fsum(abs(item[5]) for item in heap)
            if total_err <= REL_TOL * total_abs:
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
                f"estimate {best_err:.3g} above {REL_TOL:g} of the summed |value|",
                value=best, err_est=best_err)
        v1, e1 = gk15(f, a, mid)
        v2, e2 = gk15(f, mid, b)
        evals += 30
        total_err += e1 + e2 - e
        total_abs += abs(v1) + abs(v2) - abs(v)
        heapq.heappush(heap, (-e1, counter, depth + 1, a, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, depth + 1, mid, b, v2, e2))
        counter += 2
    value = math.fsum(item[5] for item in heap)
    return QuadResult(value, max(total_err, ROUNDOFF * total_abs), evals)


def _power_mean(f: FunctionSpec, base: float, k: float,
                w: Optional[float]) -> float:
    """A mean of f = c*u^r: c*base^r times expm1(k*L)/(k*w), L = log1p(w)
    (L/w at k = 0, 1/k for w None), and c itself at r = 0. The quotient is
    formed before the product, which could go subnormal on the way. Raises
    NumericError where c*base^r or the mean leaves the normal floats."""
    if f.r == 0.0:
        return f.c
    try:
        scale = f.c * base ** f.r
        ratio = (1.0 / k if w is None else math.log1p(w) / w if k == 0.0
                 else math.expm1(k * math.log1p(w)) / (k * w))
    except OverflowError as exc:
        raise NumericError(f"{f.fn_id}: the mean overflows") from exc
    v = scale * ratio
    if not (abs(scale) >= MIN_NORMAL and MIN_NORMAL <= abs(v) < math.inf):
        raise NumericError(f"{f.fn_id}: the mean leaves the normal floats")
    return v


def arithmetic_mean(f: FunctionSpec, a: float, b: float) -> float:
    """Return (1/(b-a)) * integral_a^b f(u) du for 0 <= a < b in closed
    form: c*a^r * expm1((r+1)L)/((r+1)w) with w = (b-a)/a and L =
    log1p(w), and c*b^r/(r+1) at a = 0, where r <= -1 diverges."""
    if not (math.isfinite(a) and math.isfinite(b) and 0.0 <= a < b):
        raise DomainError(f"requires 0 <= a < b, got [{a}, {b}]")
    if a > 0.0:
        return _power_mean(f, a, f.r + 1.0, (b - a) / a)
    if f.r <= -1.0:
        raise DomainError(f"{f.fn_id}: the integral diverges at 0")
    return _power_mean(f, b, f.r + 1.0, None)


def weighted_mean(f: FunctionSpec, iv: Interval) -> float:
    """Return (ab/(b-a)) * integral_a^b f(u)/u^2 du, the mean against du/u^2
    of every harmonic inequality here, in closed form: the arithmetic mean
    of c*v^(-r) over [1/b, 1/a], c*b^r * expm1((1-r)L)/((1-r)w) with the w
    and L of arithmetic_mean."""
    return _power_mean(f, iv.b, 1.0 - f.r, (iv.b - iv.a) / iv.a)


def derivative(f: FunctionSpec, x: float) -> float:
    """Return f'(x) = (c*r)*x^(r-1): (c*r)/(x*x) at r = -1, as x**-2.0
    rounds differently, and +0.0 at r = 0, as c*0 is -0.0 for c < 0 and
    x**-1.0 overflows at a subnormal x. Raises DomainError at x < 0, and
    where that fails or is not finite."""
    c, r = f.c, f.r
    if not x >= 0.0:
        raise DomainError(f"{f.fn_id}: {x} outside domain (0.0, inf]")
    try:
        if r == 0.0:
            v = 0.0
        elif r == -1.0:
            v = c * r / (x * x)
        else:
            v = c * r * x ** (r - 1.0)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise DomainError(f"{f.fn_id}: derivative failed at {x}") from exc
    if not math.isfinite(v):
        raise DomainError(f"{f.fn_id}: non-finite derivative at {x}")
    return v


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
        return FunctionSpec(fn_id, *_POWER_FORMS[fn_id])
    if fn_id.startswith("const:"):
        try:
            c = float(fn_id[6:])
        except ValueError as exc:
            raise DomainError(f"bad constant in {fn_id!r}") from exc
        if not math.isfinite(c):
            raise DomainError(f"constant must be finite, got {c}")
        return FunctionSpec(f"const:{exact(c)}", c, 0.0)
    if fn_id.startswith("pow:"):
        try:
            r = float(fn_id[4:])
        except ValueError as exc:
            raise DomainError(f"bad exponent in {fn_id!r}") from exc
        if not (math.isfinite(r) and r > 0.0):
            raise DomainError(f"pow exponent must be positive, got {r}")
        return FunctionSpec(f"pow:{exact(r)}", 1.0, r)
    raise DomainError(
        f"unknown function id {fn_id!r}; expected one of {', '.join(REGISTRY_FORMS)}")
