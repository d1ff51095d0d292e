"""Special-function kernel: Euler Beta and Gauss 2F1.

Everything here is restricted to the parameter region the bound formulas
actually visit: positive Beta arguments and 2F1(a, b; c; z) with
c > b > 0, a >= 0 and w = 1 - z in (W_CAP, 1]. Up to z_series_cutoff 2F1
is the Gauss power series; above it the series values of F and F' at
z = 1/2 are continued along the hypergeometric differential equation.
Neither route uses quadrature, so the quadrature oracle in `verify` is
independent of both.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, NumericError

# w = 1 - z at or below this is treated as outside the domain: 2F1 is
# singular at z = 1 and every lambda diverges there
W_CAP = 1e-12

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
    cannot hold FIDELITY (B(800, 800) is 2.8e-483), and above the largest
    float (B(1e-310, 1e-310) is 2e310)."""
    if not (math.isfinite(x) and x > 0.0 and math.isfinite(y) and y > 0.0):
        raise DomainError(f"beta requires positive arguments, got ({x}, {y})")
    lx, ly, lxy = math.lgamma(x), math.lgamma(y), math.lgamma(x + y)
    if (abs(lx) + abs(ly) + abs(lxy)) * 2.0 ** -52 > FIDELITY:
        raise NumericError(f"beta({x}, {y}) loses its digits to the "
                           f"cancellation of lgamma values")
    try:
        value = math.exp(lx + ly - lxy)
    except OverflowError as exc:
        raise NumericError(f"beta({x}, {y}) overflows the float range") from exc
    if value < 2.0 ** -1022:
        raise NumericError(f"beta({x}, {y}) falls below the normal float range")
    return value


def _finite(value: float) -> float:
    """value, or NumericError where a Gauss sum left the floats."""
    if not math.isfinite(value):
        raise NumericError(f"hyp2f1: non-finite result {value}")
    return value


def _series_error(what: str, z: float, value: float, tail: float,
                  size: float) -> NumericError:
    """NumericError for a sum that spent its SERIES_MAX_TERMS terms: value
    is the partial sum, and err_est the bound `tail` on what the unsummed
    terms add (inf when none is known) plus SERIES_MAX_TERMS * 2^-50 of
    the summed magnitudes `size`, for the rounding of that many steps of a
    few operations each."""
    return NumericError(
        f"2F1 {what} did not converge within {SERIES_MAX_TERMS} terms "
        f"at z={z}", value=value,
        err_est=tail + SERIES_MAX_TERMS * 2.0 ** -50 * size)


def _ratio_cap(u: float, v: float, n: float) -> float:
    """Bound on (u+m)/(v+m) over m >= n for u, v >= 0: monotone in m and
    tending to 1, it stays below max(1, its first value), rounded up."""
    return max(1.0, (u + n) / (v + n) * (1.0 + 2.0 ** -50))


class Gauss2F1:
    """2F1(a, b; c; z) for one parameter triple on the region c > b > 0,
    a >= 0, as a function of w = 1 - z, for w in (W_CAP, 1].

    ratios[n] = (a+n)(b+n) / ((c+n)(n+1)) is the ratio t_(n+1)/t_n of the
    Gauss series' terms t_n = (a)_n (b)_n / ((c)_n n!) z^n, bar the factor
    z. The table starts empty, and _series, its one reader, extends it as
    far as a sum needs, so each ratio is computed once whatever the order
    of the z. A term advances as term *= ratios[n] * z, which rounds as the
    recurrence written out does, so no value depends on the table's
    history. Only the owner of an instance keeps its table: hyp2f1 starts
    an empty one per call, and each continuation start one for F'.
    """

    __slots__ = ("a", "b", "c", "ratios")

    def __init__(self, a: float, b: float, c: float):
        for name, v in (("a", a), ("b", b), ("c", c)):
            if not math.isfinite(v):
                raise DomainError(f"hyp2f1: {name} must be finite, got {v}")
        if not c > b > 0.0:
            raise DomainError(f"hyp2f1 requires c > b > 0, got b={b}, c={c}")
        if a < 0.0:
            raise DomainError(f"hyp2f1 requires a >= 0, got {a}")
        self.a, self.b, self.c = a, b, c
        self.ratios: list[float] = []

    def __call__(self, w: float) -> float:
        """Return 2F1(a, b; c; z) at z = 1 - w, for w as a caller forms it,
        a quotient (lambda_z), with no rounding of 1 - w.

        Up to z_series_cutoff the Gauss series. Above it two Gauss sums at
        z0 = 1/2, F and F' (DLMF 15.5.1, from a table of its own), are
        carried to z by Taylor steps of length min(w0 - w, w0/2),
        w0 = 1 - z0, so each step's sum converges like 2^-n and at most 39
        steps reach W_CAP. When the summed losses of the steps put the
        estimated error above FIDELITY (large c), the Gauss series at z is
        summed instead. NumericError is raised for a sum that does not
        converge or a value beyond the floats; DomainError for w at or
        below W_CAP, where 2F1 and the lambda built on it diverge.
        """
        if not W_CAP < w <= 1.0:  # false for a nan w too
            raise DomainError(f"hyp2f1 requires {W_CAP} < w = 1 - z <= 1, "
                              f"got w={w}")
        z = 1.0 - w
        if z <= DEFAULT_CONFIG.z_series_cutoff:
            return self._series(z)
        a, b, c = self.a, self.b, self.c
        w0 = 0.5  # the start z0 = 1 - w0 = 1/2, equal to w0
        # F' = (ab/c) 2F1(a+1, b+1; c+1; z), made past __init__, whose c > b
        # fails where c - b is below the rounding of b + 1
        slope = Gauss2F1.__new__(Gauss2F1)
        slope.a, slope.b, slope.c, slope.ratios = a + 1.0, b + 1.0, c + 1.0, []
        f, deriv, loss = self._series(w0), a * b / c * slope._series(w0), 1.0
        while w < w0:
            # w0 is a power of 2 and 1 - w0 is exact, as is the last h
            h = min(w0 - w, w0 / 2.0)
            f, h_deriv, step_loss = _taylor_step(a, b, c, 1.0 - w0, h, f,
                                                 h * deriv)
            deriv, loss, w0 = h_deriv / h, loss + step_loss, w0 - h
            # false for a nan loss, so a non-finite step is never returned
            if not loss * 2.0 ** -52 <= FIDELITY:
                return self._series(z)
        return f

    def _series(self, z: float) -> float:
        """Gauss power series: return F at z, the sum of the t_n.

        The terms are positive, so a sum ends at the second of two terms
        in a row below SERIES_REL_TOL of the partial sum (one may be an
        accidental zero) once _settled. The ratios come from the table
        while it lasts and extend it after. A sum beyond the floats is
        refused.
        """
        ratios = self.ratios
        term = total = 1.0
        small_run = 0
        for ratio in (left := iter(ratios)):  # its length hint: ratios left
            term *= ratio * z
            total += term
            if term <= SERIES_REL_TOL * total:
                small_run += 1
                if small_run >= 2 and self._settled(
                        z, len(ratios) - 1 - left.__length_hint__(), total):
                    return _finite(total)
            else:
                small_run = 0
        a, b, c = self.a, self.b, self.c
        # a float n: int + float is not specialized; n < 2^53 sums exactly
        for n in map(float, range(len(ratios), SERIES_MAX_TERMS)):
            ratio = (a + n) * (b + n) / ((c + n) * (1.0 + n))
            ratios.append(ratio)
            term *= ratio * z
            total += term
            if term <= SERIES_REL_TOL * total:
                small_run += 1
                if small_run >= 2 and self._settled(z, n, total):
                    return _finite(total)
            else:
                small_run = 0
        raise self._unconverged(z, term, total)

    def _settled(self, z: float, n: float, total: float) -> bool:
        """Whether a sum may end at ratios[n]: it is inf, or no later term
        grows (z ratios[m] < 1, m >= n), though a tiny b made it small."""
        return (total == math.inf or z * (self.a + n) < 1.0 + n
                or self._shrink(z, n) < 1.0)

    def _shrink(self, z: float, n: float) -> float:
        """Bound on z * ratios[m] over m >= n, as b <= c (_ratio_cap)."""
        return z * min(_ratio_cap(self.a, 1.0, n), _ratio_cap(
            self.a, self.c, n) * _ratio_cap(self.b, 1.0, n))

    def _unconverged(self, z: float, term: float,
                     total: float) -> NumericError:
        """The error of a sum that spent its terms at z: the rest adds at
        most term * r / (1 - r) while r = _shrink(z, SERIES_MAX_TERMS) < 1."""
        r = self._shrink(z, SERIES_MAX_TERMS)
        tail = term * r / (1.0 - r) if r < 1.0 else math.inf
        return _series_error("series", z, total, tail, total)


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
    for n in map(float, range(SERIES_MAX_TERMS)):
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
    # for m >= N = SERIES_MAX_TERMS, |v_(m+2)| <= A |v_m| + B |v_(m+1)|
    # with A, B the caps below ((p1 m + q0)/(m+2) is monotone in m and
    # tends to p1); then |v_(N+k)| <= K r^k for r the positive root of
    # r^2 = B r + A, so while r < 1 the unsummed terms add at most
    # K r^2 / (1 - r)
    n = SERIES_MAX_TERMS
    cap_a = h * h / p0 * min(_ratio_cap(a, 1.0, n) * _ratio_cap(b, 2.0, n),
                             _ratio_cap(a, 2.0, n) * _ratio_cap(b, 1.0, n))
    cap_b = h / p0 * max(abs(p1), abs(p1 * n + q0) / (n + 2.0))
    r = (cap_b + math.sqrt(cap_b * cap_b + 4.0 * cap_a)) / 2.0 \
        * (1.0 + 2.0 ** -50)
    tail = math.inf
    if r < 1.0:
        k = max(abs(v0), abs(v1) / r)
        tail = k * r * r / (1.0 - r)
    raise _series_error("Taylor step", z0 + h, total, tail, size)


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Return 2F1(a, b; c; z) on c > b > 0, a >= 0, z in [0, 1) from a fresh
    Gauss2F1, summed at z itself up to the cutoff, where 1 - z rounds it.
    A value beyond the floats (2F1(1e6, 1; 2; 1/2)) raises NumericError."""
    series = Gauss2F1(a, b, c)
    return (series._series(z) if 0.0 <= z <= DEFAULT_CONFIG.z_series_cutoff
            else series(1.0 - z))
