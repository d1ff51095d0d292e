"""Special-function kernel: Euler Beta and Gauss 2F1.

Everything here is restricted to the parameter region the bound formulas
actually visit: positive Beta arguments and 2F1(a, b; c; z) with
c > b > 0, a >= 0, z in [0, 1). Up to z_series_cutoff 2F1 is the Gauss
power series; above it the series value at z = 1/2 is continued along the
hypergeometric differential equation. Neither route uses quadrature, so
the quadrature oracle in `verify` is independent of both.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, NumericError

# z at or above this is treated as outside the domain: 2F1 is singular at
# z = 1 and every lambda diverges there
Z_CAP = 1.0 - 1e-12

# a sum ends after two consecutive terms below SERIES_REL_TOL relative to
# the partial sum; SERIES_MAX_TERMS terms without that raise NumericError
SERIES_REL_TOL = 1e-15
SERIES_MAX_TERMS = 5000

# largest relative rounding error, estimated from the cancellation in the
# continuation's sums, that a returned value may carry
FIDELITY = 1e-10


class RouteSplit(NamedTuple):
    """z_series_cutoff: largest z that hyp2f1 sums by the Gauss series;
    above it the series is continued from z = 1/2 along the ODE."""

    z_series_cutoff: float


DEFAULT_CONFIG = RouteSplit(0.9)


def beta(x: float, y: float) -> float:
    """Return B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y) for x, y > 0.

    The three lgamma values cancel; when their rounding, 2^-52 times the
    sum of their magnitudes, could put the relative error above FIDELITY
    (B(x, 1) for x above about 24700), NumericError is raised instead. It
    is raised too below the least normal float, 2^-1022, where rounding
    cannot hold FIDELITY (B(800, 800) is 2.8e-483)."""
    if not (math.isfinite(x) and x > 0.0 and math.isfinite(y) and y > 0.0):
        raise DomainError(f"beta requires positive arguments, got ({x}, {y})")
    lx, ly, lxy = math.lgamma(x), math.lgamma(y), math.lgamma(x + y)
    if (abs(lx) + abs(ly) + abs(lxy)) * 2.0 ** -52 > FIDELITY:
        raise NumericError(f"beta({x}, {y}) loses its digits to the "
                           f"cancellation of lgamma values")
    value = math.exp(lx + ly - lxy)
    if value < 2.0 ** -1022:
        raise NumericError(f"beta({x}, {y}) falls below the normal float range")
    return value


def _gauss_series(a: float, b: float, c: float,
                  z: float) -> tuple[float, float]:
    """Gauss power series: return (F, z F') at z, the sums of t_n and of
    n t_n, t_n = (a)_n (b)_n / ((c)_n n!) z^n.

    Terms are built by the ratio recurrence. Termination requires two
    consecutive terms below SERIES_REL_TOL relative to the partial sum,
    guarding against an accidental zero term.
    """
    term = 1.0
    total = 1.0
    z_deriv = 0.0
    small_run = 0
    for n in range(SERIES_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (1.0 + n)) * z
        total += term
        z_deriv += (n + 1.0) * term
        if abs(term) <= SERIES_REL_TOL * abs(total):
            small_run += 1
            if small_run >= 2:
                return total, z_deriv
        else:
            small_run = 0
    raise NumericError(
        f"2F1 series did not converge within {SERIES_MAX_TERMS} terms "
        f"at z={z}", value=total, err_est=abs(term))


def _taylor_step(a: float, b: float, c: float, z0: float, h: float,
                 f: float, h_deriv: float) -> tuple[float, float, float]:
    """One Taylor step of z(1-z)F'' + (c-(a+b+1)z)F' - abF = 0 from z0 to
    z0 + h, given f = F(z0) and h_deriv = h F'(z0). The scaled
    coefficients v_n = u_n h^n of F(z0 + t) = sum u_n t^n satisfy

        z0(1-z0)(n+1)(n+2) v_{n+2} = h^2 (n+a)(n+b) v_n
                                     - h (n+1)((1-2 z0) n + c-(a+b+1)z0) v_{n+1}

    Return (F(z0+h), h F'(z0+h), loss), loss = sum |v_n| / |sum v_n|.
    """
    p0, p1, q0 = z0 * (1.0 - z0), 1.0 - 2.0 * z0, c - (a + b + 1.0) * z0
    v0, v1 = f, h_deriv
    total, h_total, size = v0 + v1, v1, abs(v0) + abs(v1)
    small_run = 0
    for n in range(SERIES_MAX_TERMS):
        v0, v1 = v1, ((h * h * (n + a) * (n + b) * v0
                       - h * (n + 1.0) * (p1 * n + q0) * v1)
                      / (p0 * (n + 1.0) * (n + 2.0)))
        total += v1
        h_total += (n + 2.0) * v1
        size += abs(v1)
        if (abs(v1) <= SERIES_REL_TOL * abs(total)
                and (n + 2.0) * abs(v1) <= SERIES_REL_TOL * abs(h_total)):
            small_run += 1
            if small_run >= 2:
                return total, h_total, size / abs(total)
        else:
            small_run = 0
    raise NumericError(
        f"2F1 Taylor step did not converge within {SERIES_MAX_TERMS} terms "
        f"at z={z0 + h}", value=total, err_est=abs(v1))


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Return 2F1(a, b; c; z) on the region c > b > 0, a >= 0, z in [0, 1).

    Up to z_series_cutoff the Gauss series. Above it F and F' at z0 = 1/2
    come from the series and are carried to z by Taylor steps of length
    min(z - z0, (1 - z0)/2), so each step's sum converges like 2^-n and at
    most 39 steps reach Z_CAP. When the summed losses of the steps put the
    estimated error above FIDELITY (large c), the Gauss series at z is
    summed instead, and NumericError raised if it does not converge. z
    within 1e-12 of 1 is rejected: the function diverges there and the
    lambda coefficients built on it lose meaning.
    """
    for name, v in (("a", a), ("b", b), ("c", c), ("z", z)):
        if not math.isfinite(v):
            raise DomainError(f"hyp2f1: {name} must be finite, got {v}")
    if not c > b > 0.0:
        raise DomainError(f"hyp2f1 requires c > b > 0, got b={b}, c={c}")
    if a < 0.0:
        raise DomainError(f"hyp2f1 requires a >= 0, got {a}")
    if not 0.0 <= z < Z_CAP:
        raise DomainError(f"hyp2f1 requires 0 <= z < {Z_CAP}, got {z}")
    if z <= DEFAULT_CONFIG.z_series_cutoff:
        return _gauss_series(a, b, c, z)[0]
    z0 = 0.5
    f, z_deriv = _gauss_series(a, b, c, z0)
    deriv, loss = z_deriv / z0, 1.0
    while z0 < z:
        h = min(z - z0, (1.0 - z0) / 2.0)
        f, h_deriv, step_loss = _taylor_step(a, b, c, z0, h, f, h * deriv)
        deriv, loss, z0 = h_deriv / h, loss + step_loss, z0 + h
        # the comparison is false for a nan loss, which counts as lost
        if not loss * 2.0 ** -52 <= FIDELITY:
            return _gauss_series(a, b, c, z)[0]
    return f
