"""Convexity predicates used as hypothesis gates: exact for power laws,
sampled on a grid when one is asked for.

power_gate decides whether K*u^rho is harmonically s-convex on [a, b],
which is every hypothesis a registry function c*u^r brings: it is the
s-convexity of K*w^-rho on [1/b, 1/a] (Iscan, Hacettepe J. Math. Stat. 43,
2014; Hudzik and Maligranda, Aequationes Math. 48, 1994). Only the case
0 < -rho < s < 1 needs a search, and that search is one-dimensional
(power_search). The same map decides s-convexity in the second sense,

  s-convex, second sense:   f(tx + (1-t)y)      <= t^s f(x) + (1-t)^s f(y),

so proposition_implications decides the paper's comparison proposition
exactly. check_convexity scans the harmonic notion at each (x, y, t) of a
tensor grid:

  harmonically s-convex:    f(xy/(tx + (1-t)y)) <= t^s f(y) + (1-t)^s f(x)

The AM-HM comparison xy/(tx+(1-t)y) <= ty + (1-t)x is harmonic convexity
of u -> u, which check_am_hm scans in a loop of its own. A report carries
the signed maximum of lhs - rhs over the grid; anything at or below
VIOLATION_TOL counts as "holds on the grid", absorbing endpoint rounding.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, NamedTuple, Optional

from .errors import DomainError, NumericError
from .numeric import MIN_NORMAL, Interval, get_function, validate_s

# inequalities are tight at t in {0, 1}; tolerate float noise up to here
VIOLATION_TOL = 1e-12

# t grid size of every scan
T_GRID_N = 17

# x grid size per axis of a hypothesis gate by default
GATE_GRID_N = 16

# most grid_n x grid_n x T_GRID_N triples a scan takes (grid_n 256: a gate
# of |f'|^2 takes 0.5 s on a 2-CPU Xeon host); more are refused unevaluated
MAX_SCAN_TRIPLES = 256 * 256 * T_GRID_N

# x grid size of the AM-HM scan
COMPARISON_GRID_N = 32

# t boxes power_search may examine before it gives up undecided
MAX_GATE_BOXES = 4000


class ConvexityReport(NamedTuple):
    """Outcome of one grid scan.

    witness is the (x, y, t) triple attaining max_violation; ties resolve
    to the lexicographically smallest triple because the scan ascends.
    """

    max_violation: float
    witness: tuple[float, float, float]
    samples: int

    @property
    def holds(self) -> bool:
        return self.max_violation <= VIOLATION_TOL


def harmonic_combination(x: float, y: float, t: float) -> float:
    """Return xy/(tx + (1-t)y), the harmonic analogue of tx + (1-t)y.

    The result lies between min(x, y) and max(x, y); t=0 gives x, t=1
    gives y. Where xy underflows or overflows, the equal form
    1/(t/y + (1-t)/x) is used instead, held inside [min, max].
    """
    if not (x > 0.0 and y > 0.0):
        raise DomainError(f"harmonic_combination requires x, y > 0, got ({x}, {y})")
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"harmonic_combination requires t in [0, 1], got {t}")
    if t == 0.0:
        return x
    if t == 1.0:
        return y
    xy = x * y
    if MIN_NORMAL <= xy < math.inf:
        return xy / (t * x + (1.0 - t) * y)
    h = 1.0 / (t / y + (1.0 - t) / x)
    return min(max(h, min(x, y)), max(x, y))


def power_gate(sign: int, rho: tuple[int, int], iv: Interval,
               s: float) -> bool:
    """Whether K*u^rho is harmonically s-convex on iv, for K of the given
    sign (-1, 0 or 1) and rho = num/den (den > 0) exactly. NumericError
    when power_search spends its budget: no sampled answer stands in.

    With alpha = -rho: K = 0 holds; K > 0 holds for rho >= 0, rho <= -1 or
    alpha >= s, fails for 0 < alpha < 1 = s, and else is power_search's
    case; K < 0 fails for s < 1, and at s = 1 holds iff -1 <= rho <= 0.
    rho is compared with 0, -1 and -s in integers, as it need not be a
    float: (r - 1)*q of floats r and q, say.
    """
    validate_s(s)
    num, den = rho
    if sign == 0:
        return True
    if sign < 0:
        return s == 1.0 and -den <= num <= 0
    s_num, s_den = s.as_integer_ratio()
    if num >= 0 or num <= -den or -num * s_den >= s_num * den:
        return True
    if s == 1.0:
        return False
    holds = power_search(-num / den, s, iv)[0]
    if holds is None:
        raise NumericError("gate undecided within budget")
    return holds


def power_search(alpha: float, s: float,
                 iv: Interval) -> tuple[Optional[bool], Optional[float]]:
    """Decide whether w^alpha, 0 < alpha < s < 1, is s-convex on [1/b, 1/a]:
    (True, None) if it is, (False, t) with a witness t, or (None, None)
    after MAX_GATE_BOXES boxes.

    With R = b/a and r the ratio of two points,
    phi(t, r) = (t + (1-t) r)^alpha - t^s - (1-t)^s r^alpha must be <= 0 on
    [0, 1] x [1, R]. d(phi)/dr has the sign of (t/r + 1-t)^(alpha-1) -
    (1-t)^(s-1), which rises in r, and phi(t, 1) <= 0, so the maximum over
    r is at r = 1 or r = R: it holds iff psi(t) = phi(t, R)/R^alpha =
    (1-t + t/R)^alpha - t^s R^-alpha - (1-t)^s <= 0 for every t. Each term
    of psi is at most 1 and monotone in t, which bounds psi on a box
    [t0, t1] from above by its endpoint values. psi < 0 for t <
    R^(-alpha/(1-s)) and for 1-t < (R^alpha/(1 + alpha(R-1)))^(1/(1-s)),
    as (t + (1-t)R)^alpha is at most R^alpha and at most
    1 + alpha(1-t)(R-1), t^s >= t and (1-t)^s >= 1-t. Between these edges
    boxes are split, worst bound first, until every bound is below -noise
    (holds) or a midpoint has psi > noise (fails); noise bounds the
    rounding of psi and of log R.
    """
    a, b = iv
    ratio = b / a
    log_r = math.log(ratio) if ratio < math.inf else math.log(b) - math.log(a)
    inv_r, r_alpha = math.exp(-log_r), math.exp(-alpha * log_r)
    noise = 2.0 ** -47 * (1.0 + abs(math.log(a)) + abs(math.log(b)))

    def bound(t0: float, t1: float) -> float:
        return (((1.0 - t0) + t0 * inv_r) ** alpha - t0 ** s * r_alpha
                - (1.0 - t1) ** s)

    # log(1 + alpha(R-1)), from above where R-1 overflows; both edges are
    # pulled in by a relative 1e-9, far more than they can round by
    log_lin = (math.log1p(alpha * math.expm1(log_r)) if log_r < 700.0
               else math.log(alpha) + log_r + inv_r / alpha)
    lo = math.exp(-alpha * log_r / (1.0 - s)) * (1.0 - 1e-9)
    hi = 1.0 - math.exp((alpha * log_r - log_lin) / (1.0 - s)) * (1.0 - 1e-9)
    if lo >= hi:
        return True, None
    boxes = [(-bound(lo, hi), lo, hi)]
    for _ in range(MAX_GATE_BOXES):
        neg_bound, t0, t1 = heapq.heappop(boxes)
        if neg_bound >= noise:
            return True, None
        t = 0.5 * (t0 + t1)
        if bound(t, t) > noise:
            return False, t
        heapq.heappush(boxes, (-bound(t0, t), t0, t))
        heapq.heappush(boxes, (-bound(t, t1), t, t1))
    return None, None


def uniform_grid(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced points from lo to hi, endpoints exact; [lo] if n < 2."""
    if n < 2:
        return [lo]
    step = (hi - lo) / (n - 1)
    pts = [lo + i * step for i in range(n - 1)]
    pts.append(hi)  # endpoints exact regardless of rounding in the step
    return pts


# the t grid k/16: dyadic, so 1 - t is exact and again on the grid
T_GRID = tuple(uniform_grid(0.0, 1.0, T_GRID_N))

# (t, 1 - t) for the t strictly inside (0, 1); at t in {0, 1} the combined
# point is a grid node
T_INNER = tuple((t, 1.0 - t) for t in T_GRID[1:-1])


def _guarded(name: str, fn: Callable[[float], float], x: float) -> float:
    """fn(x), or DomainError named `name` when it fails or is not finite;
    a DomainError fn raises itself passes through unchanged."""
    try:
        v = fn(x)
    except DomainError:
        raise
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise DomainError(f"{name}: evaluation failed at {x}") from exc
    if not math.isfinite(v):
        raise DomainError(f"{name}: non-finite value at {x}")
    return v


def check_convexity(name: str, fn: Callable[[float], float], iv: Interval,
                    s: float, grid_n: int = GATE_GRID_N) -> ConvexityReport:
    """Scan harmonic s-convexity of fn, a function named `name`, over x, y
    in grid(iv) and t in grid([0, 1]), s in (0, 1], in ascending order.

    fn is guarded once at each node, then at the combined point of each
    triple with 0 < t < 1 in scan order (at t = 0 and t = 1 it is a node),
    so an error names the first bad point of the scan. A grid of more than
    MAX_SCAN_TRIPLES triples is refused before any evaluation.
    """
    validate_s(s)
    if grid_n < 3:
        raise DomainError(f"grid_n must be at least 3, got {grid_n}")
    if grid_n * grid_n * T_GRID_N > MAX_SCAN_TRIPLES:
        raise DomainError(f"grid_n={grid_n} asks for {grid_n * grid_n * T_GRID_N}"
                          f" triples, above the cap of {MAX_SCAN_TRIPLES}")
    xs = uniform_grid(iv.a, iv.b, grid_n)
    nodes = [(x, _guarded(name, fn, x)) for x in xs]
    # (weight of f(x), weight of f(y)) per t
    weights = [((1.0 - t) ** s, t ** s) for t in T_GRID]
    best, witness = -math.inf, (xs[0], xs[0], 0.0)
    for x, fx in nodes:
        for y, fy in nodes:
            fcs = [fx, *[_guarded(name, fn, harmonic_combination(x, y, t))
                         for t, _ in T_INNER], fy]
            row = [fc - (wx * fx + wy * fy)
                   for (wx, wy), fc in zip(weights, fcs)]
            # max keeps the first of equal values, and index finds it
            v = max(row)
            if v > best:
                best, witness = v, (x, y, T_GRID[row.index(v)])
    return ConvexityReport(best, witness, grid_n * grid_n * T_GRID_N)


def check_am_hm(iv: Interval) -> ConvexityReport:
    """Scan xy/(tx + (1-t)y) <= ty + (1-t)x as check_convexity scans u -> u
    at s = 1 on a COMPARISON_GRID_N grid. Both sides are equal at t = 0
    and t = 1, so the scan starts from 0 at (x0, x0, 0) and reads only the
    t inside (0, 1). The comparison holds for all positive x, y and t in
    [0, 1]; the report should always satisfy max_violation <= VIOLATION_TOL.
    """
    xs = uniform_grid(iv.a, iv.b, COMPARISON_GRID_N)
    best, witness = 0.0, (xs[0], xs[0], 0.0)
    for x in xs:
        for y in xs:
            xy = x * y
            if MIN_NORMAL <= xy < math.inf:
                row = [xy / (t * x + u * y) - (u * x + t * y)
                       for t, u in T_INNER]
            else:
                row = [harmonic_combination(x, y, t) - (u * x + t * y)
                       for t, u in T_INNER]
            v = max(row)
            if v > best:
                best, witness = v, (x, y, T_INNER[row.index(v)][0])
    return ConvexityReport(best, witness, COMPARISON_GRID_N ** 2 * T_GRID_N)


def proposition_implications(fn_ids: tuple[str, ...], s_values: tuple[float, ...],
                             iv: Interval) -> list[dict]:
    """The two comparison implications, decided exactly for each registry
    function c*u^r on iv:

      (1) s-convex (second sense) and nondecreasing  =>  harmonically s-convex
      (2) harmonically s-convex and nonincreasing    =>  s-convex (second sense)

    Returns a row per (fn, s, direction) whose antecedent holds, with
    holds the consequent's answer. c*u^r is nondecreasing for c*r >= 0 and
    nonincreasing for c*r <= 0; the harmonic notion is power_gate of
    (c, r) on iv, and the second sense power_gate of (c, -r) on [1/b, 1/a].
    power_search reads an interval only through b/a and |log a| + |log b|,
    which [1/b, 1/a] shares with iv, so the second sense is asked on iv
    itself: no mirror is built, and an end whose reciprocal overflows is
    no obstacle. Functions whose antecedent fails contribute nothing (the
    implication is vacuous there). NumericError if a search spends its
    budget.
    """
    for s in s_values:
        validate_s(s)
    rows: list[dict] = []
    for fn_id in fn_ids:
        _, c, r = get_function(fn_id)
        sign = (c > 0.0) - (c < 0.0)
        num, den = r.as_integer_ratio()
        # the sign of c*r, read without forming the product
        slope = sign * ((r > 0.0) - (r < 0.0))
        # rho of power_gate for each notion
        harmonic = (num, den)
        second_sense = (-num, den)
        directions = []
        if slope >= 0:
            directions.append(("s_to_harmonic", second_sense, harmonic))
        if slope <= 0:
            directions.append(("harmonic_to_s", harmonic, second_sense))
        for s in s_values:
            for direction, antecedent, consequent in directions:
                if power_gate(sign, antecedent, iv, s):
                    holds = power_gate(sign, consequent, iv, s)
                    rows.append({"fn": fn_id, "s": s, "direction": direction,
                                 "holds": holds})
    return rows
