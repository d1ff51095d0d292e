"""Special-function kernel: Euler Beta and Gauss 2F1.

Everything here is restricted to the parameter region the bound formulas
actually visit: positive Beta arguments and 2F1(a, b; c; z) with
c > b > 0, a >= 0 and w = 1 - z in (W_CAP, 1]. Up to z_series_cutoff 2F1
is the Gauss power series. Above it, two Gauss series in w (the 1 - z
connection formula) where their error estimate allows; else, for integer
or near-integer c - a - b and large parameters, the series values of F
and F' at z = 1/2 continued along the hypergeometric differential
equation. No route uses quadrature, so the quadrature oracle in `verify`
is independent of all of them.
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

# largest error estimate, in units of 2^-52, of a value the connection
# route returns (Gauss2F1._connection). On 12,598 triples its true error
# reached 1.22 times the estimate against mpmath: 300 keeps it below 1e-13
CONNECTION_ULPS = 300.0


class RouteSplit(NamedTuple):
    """z_series_cutoff: largest z that hyp2f1 sums by the Gauss series;
    above it the connection sums in 1 - z or the continuation."""

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
    """Bound on (u+m)/(v+m) over m >= n for u + n >= 0 < v + n: monotone
    in m and tending to 1, it stays below max(1, its first value), rounded
    up."""
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
    an empty one per call, and each call above the cutoff one per sum of
    another triple (_part).
    """

    __slots__ = ("a", "b", "c", "head", "ratios")

    def __init__(self, a: float, b: float, c: float):
        for name, v in (("a", a), ("b", b), ("c", c)):
            if not math.isfinite(v):
                raise DomainError(f"hyp2f1: {name} must be finite, got {v}")
        if not c > b > 0.0:
            raise DomainError(f"hyp2f1 requires c > b > 0, got b={b}, c={c}")
        if a < 0.0:
            raise DomainError(f"hyp2f1 requires a >= 0, got {a}")
        self.a, self.b, self.c, self.head = a, b, c, 0
        self.ratios: list[float] = []

    def __call__(self, w: float) -> float:
        """Return 2F1(a, b; c; z) at z = 1 - w, for w as a caller forms it,
        a quotient (lambda_z), with no rounding of 1 - w.

        Up to z_series_cutoff the Gauss series. Above it the two Gauss sums
        in w of _connection, where its error estimate allows; else (integer
        or near-integer c - a - b, large parameters) two Gauss sums at
        z0 = 1/2, F and F' (DLMF 15.5.1), carried to z by Taylor steps of
        length min(w0 - w, w0/2), w0 = 1 - z0, so each step's sum converges
        like 2^-n and at most 39 steps reach W_CAP. When the summed losses
        of the steps put the estimated error above FIDELITY (large c), the
        Gauss series at z is summed instead. NumericError is raised for a
        sum that does not converge or a value beyond the floats;
        DomainError for w at or below W_CAP, where 2F1 and the lambda built
        on it diverge.
        """
        if not W_CAP < w <= 1.0:  # false for a nan w too
            raise DomainError(f"hyp2f1 requires {W_CAP} < w = 1 - z <= 1, "
                              f"got w={w}")
        z = 1.0 - w
        if z <= DEFAULT_CONFIG.z_series_cutoff:
            return self._series(z)[0]
        value = self._connection(w)
        if value is not None:
            return value
        a, b, c = self.a, self.b, self.c
        w0 = 0.5  # the start z0 = 1 - w0 = 1/2, equal to w0
        # F' = (ab/c) 2F1(a+1, b+1; c+1; z)
        f, deriv, loss = (self._series(w0)[0], a * b / c * _part(
            a + 1.0, b + 1.0, c + 1.0)._series(w0)[0], 1.0)
        while w < w0:
            # w0 is a power of 2 and 1 - w0 is exact, as is the last h
            h = min(w0 - w, w0 / 2.0)
            f, h_deriv, step_loss = _taylor_step(a, b, c, 1.0 - w0, h, f,
                                                 h * deriv)
            deriv, loss, w0 = h_deriv / h, loss + step_loss, w0 - h
            # false for a nan loss, so a non-finite step is never returned
            if not loss * 2.0 ** -52 <= FIDELITY:
                return self._series(z)[0]
        return f

    def _connection(self, w: float) -> float | None:
        """F at z = 1 - w from two Gauss sums in w (DLMF 15.8.4), with
        m = c - a - b and the Gamma ratios as signed lgamma sums:

            F = G(c)G(m)/(G(c-a)G(c-b)) F(a, b; 1-m; w)
                + w^m G(c)G(-m)/(G(a)G(b)) F(c-a, c-b; 1+m; w)
              = T1 S1 + T2 S2.

        Each T is off by about 2^-52 L relative: L sums the |lgamma|,
        |m log w| and the shift that m's rounding makes in c, c - a and
        c - b (the identity holds for c = a + b + m) times how near a pole
        of Gamma each lies. The cancellation C = (|T1| sum |t1| + |T2| sum
        |t2|) / |F| scales it. None where (L + 1) C passes CONNECTION_ULPS
        (m near an integer, large parameters), at a pole (integer m) or
        where a factor or sum leaves the floats.
        """
        a, b, c = self.a, self.b, self.c
        m = c - a - b
        try:
            logs = tuple(map(math.lgamma, (c, m, c - a, c - b, -m, a, b)))
        except ValueError:  # a pole
            return None
        log_w = m * math.log(w)
        ulps = (sum(map(abs, logs)) + abs(logs[0]) + abs(log_w) + 1.0
                + (abs(c - a) + abs(m)) * (1.0 / c + 1.0 / (c - b)
                                           + 1.0 / _pole_gap(c - a)))
        if ulps > CONNECTION_ULPS:
            return None
        # the smaller numerator second, where _settled's first test wants
        # it (a sum is symmetric in the two)
        low, high = (a, b) if a < b else (b, a)
        try:
            t1 = _gamma_sign(m) * _gamma_sign(c - a) * math.exp(
                logs[0] + logs[1] - logs[2] - logs[3])
            t2 = _gamma_sign(-m) * math.exp(
                logs[0] + logs[4] - logs[5] - logs[6] + log_w)
            s1, size1 = _part(high, low, 1.0 - m)._series(w)
            s2, size2 = _part(c - low, c - high, 1.0 + m)._series(w)
        except (OverflowError, NumericError):
            return None
        value = t1 * s1 + t2 * s2
        # false for an inf or nan value too
        if ((abs(t1) * size1 + abs(t2) * size2) * ulps
                <= CONNECTION_ULPS * abs(value) < math.inf):
            return value
        return None

    def _series(self, z: float) -> tuple[float, float]:
        """Gauss power series: return (F, the sum of the |t_n|) at z.

        Past the first `head` ratios, which may be negative, every ratio
        is positive, so the terms keep one sign: the sum is taken as -F
        where they are negative, and it ends at the second of two terms in
        a row below SERIES_REL_TOL of the |partial sum| (one may be an
        accidental zero) once _settled. The ratios come from the table
        while it lasts and extend it after. A sum beyond the floats is
        refused.
        """
        ratios = self.ratios
        left = iter(ratios)  # its length hint: ratios left
        term = total = 1.0
        sign, tol, size, small_run = 1.0, SERIES_REL_TOL, 0.0, 0
        if self.head:
            a, b, c, size, n = self.a, self.b, self.c, 1.0, 0
            # the head, then on while a term of the later terms' one sign
            # can still turn the sum's
            while n < self.head or (
                    term * total < 0.0 and n < SERIES_MAX_TERMS
                    and abs(term) > SERIES_REL_TOL * abs(total)):
                ratio = next(left, None)
                if ratio is None:
                    ratio = (a + n) * (b + n) / ((c + n) * (1.0 + n))
                    ratios.append(ratio)
                term *= ratio * z
                total += term
                size += abs(term)
                n += 1
            if term < 0.0:
                sign, term, total = -1.0, -term, -total
            # a small term is one below tol * total, of either sign
            tol = math.copysign(SERIES_REL_TOL, total)
            size -= total  # the later terms add total's growth to it
        for ratio in left:
            term *= ratio * z
            total += term
            if term <= tol * total:
                small_run += 1
                if small_run >= 2 and self._settled(
                        z, len(ratios) - 1 - left.__length_hint__(), total):
                    break
            else:
                small_run = 0
        else:
            a, b, c = self.a, self.b, self.c
            # a float n: int + float is not specialized; n < 2^53 sums
            # exactly
            for n in map(float, range(len(ratios), SERIES_MAX_TERMS)):
                ratio = (a + n) * (b + n) / ((c + n) * (1.0 + n))
                ratios.append(ratio)
                term *= ratio * z
                total += term
                if term <= tol * total:
                    small_run += 1
                    if small_run >= 2 and self._settled(z, n, total):
                        break
                else:
                    small_run = 0
            else:
                raise self._unconverged(z, term, sign * total, size + total)
        return _finite(sign * total), size + total

    def _settled(self, z: float, n: float, total: float) -> bool:
        """Whether a sum may end at ratios[n]: it is inf, or no later term
        grows (z ratios[m] < 1, m >= n), though a tiny b made it small."""
        return (total == math.inf
                or z * (self.a + n) < 1.0 + n and self.b <= self.c
                or self._shrink(z, n) < 1.0)

    def _shrink(self, z: float, n: float) -> float:
        """Bound on z * ratios[m] over m >= n past the head (_ratio_cap)."""
        a, b, c = self.a, self.b, self.c
        return z * min(_ratio_cap(a, 1.0, n) * _ratio_cap(b, c, n),
                       _ratio_cap(a, c, n) * _ratio_cap(b, 1.0, n))

    def _unconverged(self, z: float, term: float, total: float,
                     size: float) -> NumericError:
        """The error of a sum that spent its terms at z: the rest adds at
        most |term| r / (1 - r) while r = _shrink(z, SERIES_MAX_TERMS) < 1."""
        r = self._shrink(z, SERIES_MAX_TERMS)
        tail = term * r / (1.0 - r) if r < 1.0 else math.inf
        return _series_error("series", z, total, tail, size)


def _gamma_sign(x: float) -> float:
    """The sign of Gamma(x) off its poles."""
    return -1.0 if x < 0.0 and math.floor(x) % 2 else 1.0


def _pole_gap(x: float) -> float:
    """The distance of x from the nearest pole of Gamma, 0, -1, -2, ..."""
    return abs(x - min(0, round(x)))


def _part(a: float, b: float, c: float) -> Gauss2F1:
    """A fresh Gauss2F1 of (a, b; c) made past __init__, whose checks fail
    on F' where c - b is below the rounding of b + 1 and on the signed
    parameters of the connection sums; its head counts the ratios that may
    be negative, those of n <= max(-a, -b, -c)."""
    part = Gauss2F1.__new__(Gauss2F1)
    low = min(a, b, c)
    part.a, part.b, part.c, part.ratios = a, b, c, []
    part.head = math.floor(-low) + 1 if low < 0.0 else 0
    return part


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
    return (series._series(z)[0]
            if 0.0 <= z <= DEFAULT_CONFIG.z_series_cutoff
            else series(1.0 - z))
