"""Sampling-based convexity predicates used as hypothesis gates.

Two notions are checked on tensor grids (x, y, t):

  s-convex, second sense:   f(tx + (1-t)y)      <= t^s f(x) + (1-t)^s f(y)
  harmonically s-convex:    f(xy/(tx + (1-t)y)) <= t^s f(y) + (1-t)^s f(x)

Harmonic convexity is the s = 1 case of the second notion. The AM-HM
comparison xy/(tx+(1-t)y) <= ty + (1-t)x, which links the harmonic and
arithmetic notions for monotone functions, is harmonic convexity of u -> u.
A report carries the signed maximum of lhs - rhs over the grid; anything at
or below VIOLATION_TOL counts as "holds on the grid", absorbing endpoint
rounding.
"""

from __future__ import annotations

import enum
import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError
from .numeric import FunctionSpec, Interval, get_function

# inequalities are tight at t in {0, 1}; tolerate float noise up to here
VIOLATION_TOL = 1e-12

# t grid size of every scan, and the uniform triples a seed adds to it
T_GRID_N = 17
N_RANDOM = 64


class ConvexityMode(enum.Enum):
    S_CONVEX_SECOND_SENSE = "s_convex_second_sense"
    HARMONICALLY_S_CONVEX = "harmonically_s_convex"


@dataclass(frozen=True)
class ConvexityReport:
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
    gives y.
    """
    if not (x > 0.0 and y > 0.0):
        raise DomainError(f"harmonic_combination requires x, y > 0, got ({x}, {y})")
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"harmonic_combination requires t in [0, 1], got {t}")
    if t == 0.0:
        return x
    if t == 1.0:
        return y
    return x * y / (t * x + (1.0 - t) * y)


def uniform_grid(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced points from lo to hi, endpoints exact; [lo] if n < 2."""
    if n < 2:
        return [lo]
    step = (hi - lo) / (n - 1)
    pts = [lo + i * step for i in range(n - 1)]
    pts.append(hi)  # endpoints exact regardless of rounding in the step
    return pts


def check_convexity(f: FunctionSpec, iv: Interval, mode: ConvexityMode,
                    s: float, grid_n: int = 16,
                    seed: Optional[int] = None) -> ConvexityReport:
    """Scan the defining inequality of `mode` over x, y in grid(iv) and
    t in grid([0, 1]).

    s must lie in (0, 1]. f is evaluated once at each grid node and once
    per triple at the combined point. A seed adds N_RANDOM uniform triples
    after the grid.
    """
    if grid_n < 3:
        raise DomainError(f"grid_n must be at least 3, got {grid_n}")
    if not 0.0 < s <= 1.0:
        raise DomainError(f"s must lie in (0, 1], got {s}")
    harmonic = mode is ConvexityMode.HARMONICALLY_S_CONVEX
    combine = harmonic_combination if harmonic else (
        lambda x, y, t: t * x + (1.0 - t) * y)

    def weigh(t: float) -> tuple[float, float, float]:
        # (t, weight of f(x), weight of f(y)); the harmonic form swaps them
        wt, wr = t ** s, (1.0 - t) ** s
        return (t, wr, wt) if harmonic else (t, wt, wr)

    xs = uniform_grid(iv.a, iv.b, grid_n)
    nodes = [(x, f(x)) for x in xs]
    weights = [weigh(t) for t in uniform_grid(0.0, 1.0, T_GRID_N)]
    # rows (x, f(x), y, f(y), weights per t): the grid ascending, then the
    # seeded triples in draw order
    rows = ((x, fx, y, fy, weights) for x, fx in nodes for y, fy in nodes)
    samples = grid_n * grid_n * T_GRID_N
    if seed is not None:
        rng = random.Random(seed)
        draws = [(rng.uniform(iv.a, iv.b), rng.uniform(iv.a, iv.b), rng.random())
                 for _ in range(N_RANDOM)]
        rows = itertools.chain(
            rows, ((x, f(x), y, f(y), (weigh(t),)) for x, y, t in draws))
        samples += N_RANDOM
    best = -math.inf
    witness = (xs[0], xs[0], 0.0)
    for x, fx, y, fy, ws in rows:
        for t, wx, wy in ws:
            v = f(combine(x, y, t)) - (wx * fx + wy * fy)
            if v > best:
                best = v
                witness = (x, y, t)
    return ConvexityReport(max_violation=best, witness=witness, samples=samples)


def check_am_hm(iv: Interval, grid_n: int = 32) -> ConvexityReport:
    """Scan xy/(tx + (1-t)y) <= ty + (1-t)x over the grid, as harmonic
    convexity of u -> u.

    This comparison holds for all positive x, y and t in [0, 1]; the report
    should always satisfy max_violation <= VIOLATION_TOL.
    """
    return check_convexity(get_function("id"), iv,
                           ConvexityMode.HARMONICALLY_S_CONVEX, 1.0, grid_n)


def grid_monotone(f: FunctionSpec, iv: Interval, grid_n: int = 32) -> str:
    """Classify f on the grid as 'nondecreasing', 'nonincreasing', 'constant'
    or 'neither', comparing consecutive grid values with tolerance
    VIOLATION_TOL.

    The comparison-inequality implications need a testable stand-in for the
    monotonicity hypotheses, and this is it.
    """
    xs = uniform_grid(iv.a, iv.b, grid_n)
    vals = [f(x) for x in xs]
    nondec = all(b >= a - VIOLATION_TOL for a, b in zip(vals, vals[1:]))
    noninc = all(b <= a + VIOLATION_TOL for a, b in zip(vals, vals[1:]))
    if nondec and noninc:
        return "constant"
    if nondec:
        return "nondecreasing"
    if noninc:
        return "nonincreasing"
    return "neither"


def proposition_implications(fn_ids: tuple[str, ...], s_values: tuple[float, ...],
                             iv: Interval, grid_n: int = 32) -> list[dict]:
    """Grid form of the two comparison implications:

      (1) s-convex (second sense) and nondecreasing  =>  harmonically s-convex
      (2) harmonically s-convex and nonincreasing    =>  s-convex (second sense)

    Returns a row per (fn, s, direction) whose antecedent held; each row
    carries the consequent's max_violation, which must stay inside
    VIOLATION_TOL for the implication to hold on the grid. Functions whose
    antecedent fails contribute nothing (the implication is vacuous there).
    """
    rows: list[dict] = []
    for fn_id in fn_ids:
        f = get_function(fn_id)
        mono = grid_monotone(f, iv, grid_n)
        for s in s_values:
            r_s = check_convexity(f, iv, ConvexityMode.S_CONVEX_SECOND_SENSE, s,
                                  grid_n)
            r_h = check_convexity(f, iv, ConvexityMode.HARMONICALLY_S_CONVEX, s,
                                  grid_n)
            if r_s.holds and mono in ("nondecreasing", "constant"):
                rows.append({"fn": fn_id, "s": s, "direction": "s_to_harmonic",
                             "consequent_violation": r_h.max_violation,
                             "holds": r_h.holds})
            if r_h.holds and mono in ("nonincreasing", "constant"):
                rows.append({"fn": fn_id, "s": s, "direction": "harmonic_to_s",
                             "consequent_violation": r_s.max_violation,
                             "holds": r_s.holds})
    return rows
