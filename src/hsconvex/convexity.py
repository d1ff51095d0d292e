"""Sampling-based convexity predicates used as hypothesis gates.

Three notions are checked on tensor grids (x, y, t):

  s-convex, second sense:   f(tx + (1-t)y)      <= t^s f(x) + (1-t)^s f(y)
  harmonically convex:      f(xy/(tx + (1-t)y)) <= t f(y) + (1-t) f(x)
  harmonically s-convex:    f(xy/(tx + (1-t)y)) <= t^s f(y) + (1-t)^s f(x)

plus the AM-HM comparison xy/(tx+(1-t)y) <= ty + (1-t)x that links the
harmonic and arithmetic notions for monotone functions. A report carries
the signed maximum of lhs - rhs over the grid; anything at or below
VIOLATION_TOL counts as "holds on the grid", absorbing endpoint rounding.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DomainError
from .numeric import FunctionSpec, Interval, get_function

# inequalities are tight at t in {0, 1}; tolerate float noise up to here
VIOLATION_TOL = 1e-12


class ConvexityMode(enum.Enum):
    S_CONVEX_SECOND_SENSE = "s_convex_second_sense"
    HARMONICALLY_CONVEX = "harmonically_convex"
    HARMONICALLY_S_CONVEX = "harmonically_s_convex"


@dataclass(frozen=True)
class ConvexityReport:
    """Outcome of one grid scan.

    mode is None for the AM-HM comparison, which is not a convexity notion.
    witness is the (x, y, t) triple attaining max_violation; ties resolve
    to the lexicographically smallest triple because the scan ascends.
    """

    mode: Optional[ConvexityMode]
    s: Optional[float]
    max_violation: float
    witness: tuple[float, float, float]
    samples: int
    seed: Optional[int] = None

    @property
    def holds(self) -> bool:
        return self.max_violation <= VIOLATION_TOL

    def to_dict(self) -> dict:
        return {
            "mode": self.mode.value if self.mode is not None else "am_hm",
            "s": self.s,
            "max_violation": self.max_violation,
            "witness": list(self.witness),
            "samples": self.samples,
            "seed": self.seed,
            "holds": self.holds,
        }


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


def _violation_fn(mode: ConvexityMode, f: FunctionSpec,
                  s: float) -> Callable[[float, float, float], float]:
    if mode is ConvexityMode.S_CONVEX_SECOND_SENSE:
        def viol(x: float, y: float, t: float) -> float:
            lhs = f(t * x + (1.0 - t) * y)
            return lhs - (t ** s * f(x) + (1.0 - t) ** s * f(y))
        return viol
    # the harmonic modes share one formula; plain harmonic convexity is
    # exactly the s = 1 case and must produce an identical scan
    def viol(x: float, y: float, t: float) -> float:
        lhs = f(harmonic_combination(x, y, t))
        return lhs - (t ** s * f(y) + (1.0 - t) ** s * f(x))
    return viol


def _scan(viol: Callable[[float, float, float], float],
          xs: list[float], ys: list[float], ts: list[float],
          rng: Optional[random.Random], n_random: int,
          lo: float, hi: float) -> tuple[float, tuple[float, float, float], int]:
    best = -math.inf
    witness = (xs[0], ys[0], ts[0])
    for x in xs:
        for y in ys:
            for t in ts:
                v = viol(x, y, t)
                if v > best:
                    best = v
                    witness = (x, y, t)
    samples = len(xs) * len(ys) * len(ts)
    if rng is not None:
        for _ in range(n_random):
            x = rng.uniform(lo, hi)
            y = rng.uniform(lo, hi)
            t = rng.random()
            v = viol(x, y, t)
            if v > best:
                best = v
                witness = (x, y, t)
        samples += n_random
    return best, witness, samples


def check_convexity(f: FunctionSpec, iv: Interval, mode: ConvexityMode,
                    s: float, grid_n: int = 16, t_grid_n: int = 17,
                    seed: Optional[int] = None,
                    n_random: int = 64) -> ConvexityReport:
    """Scan the defining inequality of `mode` over x, y in grid(iv) and
    t in grid([0, 1]).

    s must lie in (0, 1]; for HARMONICALLY_CONVEX the supplied s is ignored
    and 1 is used. A seed adds n_random uniform triples on top of the
    deterministic grid and is recorded in the report.
    """
    if grid_n < 3:
        raise DomainError(f"grid_n must be at least 3, got {grid_n}")
    if not 0.0 < s <= 1.0:
        raise DomainError(f"s must lie in (0, 1], got {s}")
    s_eff = 1.0 if mode is ConvexityMode.HARMONICALLY_CONVEX else s
    viol = _violation_fn(mode, f, s_eff)
    xs = uniform_grid(iv.a, iv.b, grid_n)
    ts = uniform_grid(0.0, 1.0, t_grid_n)
    rng = random.Random(seed) if seed is not None else None
    best, witness, samples = _scan(viol, xs, xs, ts, rng, n_random, iv.a, iv.b)
    return ConvexityReport(mode=mode, s=s_eff, max_violation=best,
                           witness=witness, samples=samples, seed=seed)


def check_am_hm(iv: Interval, grid_n: int = 32, t_grid_n: int = 17,
                seed: Optional[int] = None, n_random: int = 64) -> ConvexityReport:
    """Scan xy/(tx + (1-t)y) <= ty + (1-t)x over the grid.

    This comparison holds for all positive x, y and t in [0, 1]; the report
    should always satisfy max_violation <= VIOLATION_TOL.
    """
    if grid_n < 3:
        raise DomainError(f"grid_n must be at least 3, got {grid_n}")

    def viol(x: float, y: float, t: float) -> float:
        return harmonic_combination(x, y, t) - (t * y + (1.0 - t) * x)

    xs = uniform_grid(iv.a, iv.b, grid_n)
    ts = uniform_grid(0.0, 1.0, t_grid_n)
    rng = random.Random(seed) if seed is not None else None
    best, witness, samples = _scan(viol, xs, xs, ts, rng, n_random, iv.a, iv.b)
    return ConvexityReport(mode=None, s=None, max_violation=best,
                           witness=witness, samples=samples, seed=seed)


def grid_monotone(f: FunctionSpec, iv: Interval, grid_n: int = 32,
                  tol: float = VIOLATION_TOL) -> str:
    """Classify f on the grid as 'nondecreasing', 'nonincreasing', 'constant'
    or 'neither', comparing consecutive grid values with tolerance tol.

    The comparison-inequality implications need a testable stand-in for the
    monotonicity hypotheses, and this is it.
    """
    xs = uniform_grid(iv.a, iv.b, grid_n)
    vals = [f(x) for x in xs]
    nondec = all(b >= a - tol for a, b in zip(vals, vals[1:]))
    noninc = all(b <= a + tol for a, b in zip(vals, vals[1:]))
    if nondec and noninc:
        return "constant"
    if nondec:
        return "nondecreasing"
    if noninc:
        return "nonincreasing"
    return "neither"


def proposition_implications(fn_ids: tuple[str, ...], s_values: tuple[float, ...],
                             iv: Interval, grid_n: int = 32,
                             t_grid_n: int = 17) -> list[dict]:
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
                                  grid_n, t_grid_n)
            r_h = check_convexity(f, iv, ConvexityMode.HARMONICALLY_S_CONVEX, s,
                                  grid_n, t_grid_n)
            if r_s.holds and mono in ("nondecreasing", "constant"):
                rows.append({"fn": fn_id, "s": s, "direction": "s_to_harmonic",
                             "consequent_violation": r_h.max_violation,
                             "holds": r_h.holds})
            if r_h.holds and mono in ("nonincreasing", "constant"):
                rows.append({"fn": fn_id, "s": s, "direction": "harmonic_to_s",
                             "consequent_violation": r_s.max_violation,
                             "holds": r_s.holds})
    return rows
