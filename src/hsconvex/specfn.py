"""Special-function kernel: log-Gamma, Euler Beta, and Gauss 2F1.

Everything here is restricted to the parameter region the bound formulas
actually visit: positive Gamma/Beta arguments and 2F1(a, b; c; z) with
c > b > 0, a >= 0, z in [0, 1). Within that region two independent
evaluation routes exist for 2F1 (power series and the Euler integral), and
the test suite holds them against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NumericError
from .numeric import gk15, integrate

# Lanczos coefficients, g = 7, 9 terms. Absolute error of ln_gamma stays
# below 1e-12 on [0.5, 200], checked against quadrature of the Euler
# integral and the stdlib in the tests.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LN_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# z at or above this is treated as outside the domain: the Euler integral
# representation requires |z| < 1 and every lambda diverges as z -> 1
Z_CAP = 1.0 - 1e-12


@dataclass(frozen=True)
class SpecFnConfig:
    """Tunable knobs for the 2F1 evaluation strategy.

    series_rel_tol: relative term-size threshold that ends the power series.
    series_max_terms: term budget before giving up with a NumericError.
    z_series_cutoff: largest z handled by the series; above it the Euler
        integral route takes over (the series converges too slowly there).
    """

    series_rel_tol: float = 1e-15
    series_max_terms: int = 5000
    z_series_cutoff: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 < self.series_rel_tol < 1e-6:
            raise DomainError("series_rel_tol must lie in (0, 1e-6)")
        if not 0.0 < self.z_series_cutoff < 1.0:
            raise DomainError("z_series_cutoff must lie in (0, 1)")
        if self.series_max_terms < 1:
            raise DomainError("series_max_terms must be at least 1")


DEFAULT_CONFIG = SpecFnConfig()


def ln_gamma(x: float) -> float:
    """Return ln Gamma(x) for x > 0.

    Fixed-coefficient Lanczos approximation; no reflection formula because
    arguments in this package are always positive.
    """
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"ln_gamma requires finite x > 0, got {x}")
    xm1 = x - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, 9):
        acc += _LANCZOS_C[i] / (xm1 + i)
    t = xm1 + _LANCZOS_G + 0.5
    return _HALF_LN_TWO_PI + (xm1 + 0.5) * math.log(t) - t + math.log(acc)


def beta(x: float, y: float) -> float:
    """Return B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y) for x, y > 0."""
    if not (math.isfinite(x) and x > 0.0 and math.isfinite(y) and y > 0.0):
        raise DomainError(f"beta requires positive arguments, got ({x}, {y})")
    return math.exp(ln_gamma(x) + ln_gamma(y) - ln_gamma(x + y))


def _hyp2f1_series(a: float, b: float, c: float, z: float,
                   config: SpecFnConfig) -> float:
    """Gauss power series sum_n (a)_n (b)_n / ((c)_n n!) z^n.

    Terms are built by the ratio recurrence. Termination requires two
    consecutive terms below series_rel_tol relative to the partial sum,
    guarding against an accidental zero term.
    """
    term = 1.0
    total = 1.0
    small_run = 0
    for n in range(config.series_max_terms):
        term *= (a + n) * (b + n) / ((c + n) * (1.0 + n)) * z
        total += term
        if abs(term) <= config.series_rel_tol * abs(total):
            small_run += 1
            if small_run >= 2:
                return total
        else:
            small_run = 0
    raise NumericError(
        f"2F1 series did not converge within {config.series_max_terms} terms "
        f"at z={z}", value=total, err_est=abs(term))


def _hyp2f1_euler(a: float, b: float, c: float, z: float) -> float:
    """Euler integral route:

        2F1(a,b;c;z) = (1/B(b, c-b)) * int_0^1 t^(b-1) (1-t)^(c-b-1) (1-zt)^(-a) dt

    valid for c > b > 0. Used above the series cutoff, where the integrand
    develops a sharp but integrable peak near t = 1.
    """
    def integrand(t: float) -> float:
        return t ** (b - 1.0) * (1.0 - t) ** (c - b - 1.0) * (1.0 - z * t) ** (-a)

    # scale the absolute quadrature tolerance to a one-panel estimate so a
    # large integral does not demand an unattainable absolute error
    rough, _ = gk15(integrand, 0.0, 1.0)
    tol = max(1e-13, 1e-12 * abs(rough))
    q = integrate(integrand, 0.0, 1.0, tol)
    return q.value / beta(b, c - b)


def hyp2f1(a: float, b: float, c: float, z: float,
           config: SpecFnConfig | None = None) -> float:
    """Return 2F1(a, b; c; z) on the region c > b > 0, a >= 0, z in [0, 1).

    Power series up to z_series_cutoff, Euler-integral quadrature above it.
    z within 1e-12 of 1 is rejected: the function diverges there and the
    lambda coefficients built on it lose meaning.
    """
    cfg = config or DEFAULT_CONFIG
    for name, v in (("a", a), ("b", b), ("c", c), ("z", z)):
        if not math.isfinite(v):
            raise DomainError(f"hyp2f1: {name} must be finite, got {v}")
    if not c > b > 0.0:
        raise DomainError(f"hyp2f1 requires c > b > 0, got b={b}, c={c}")
    if a < 0.0:
        raise DomainError(f"hyp2f1 requires a >= 0, got {a}")
    if not 0.0 <= z < Z_CAP:
        raise DomainError(f"hyp2f1 requires 0 <= z < {Z_CAP}, got {z}")
    if z <= cfg.z_series_cutoff:
        return _hyp2f1_series(a, b, c, z, cfg)
    return _hyp2f1_euler(a, b, c, z)
