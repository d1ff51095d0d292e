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
import math
import random
from itertools import islice
from typing import NamedTuple, Optional

from .errors import DomainError
from .numeric import (MIN_NORMAL, FunctionSpec, Interval, get_function,
                      validate_s)

# inequalities are tight at t in {0, 1}; tolerate float noise up to here
VIOLATION_TOL = 1e-12

# t grid size of every scan, and the uniform triples a seed adds to it
T_GRID_N = 17
N_RANDOM = 64

# x grid size per axis of a hypothesis gate by default
GATE_GRID_N = 16

# grid_n x grid_n x T_GRID_N triples a scan may take: grid_n up to 256
# (a 256 gate of |f'|^2 takes about 2 s on a 2-CPU Xeon host); larger
# grids are refused before any evaluation
MAX_SCAN_TRIPLES = 256 * 256 * T_GRID_N

# x grid size of the AM-HM scan, the monotonicity classification and the
# implication grids
COMPARISON_GRID_N = 32


class ConvexityMode(enum.Enum):
    S_CONVEX_SECOND_SENSE = "s_convex_second_sense"
    HARMONICALLY_S_CONVEX = "harmonically_s_convex"


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


def uniform_grid(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced points from lo to hi, endpoints exact; [lo] if n < 2."""
    if n < 2:
        return [lo]
    step = (hi - lo) / (n - 1)
    pts = [lo + i * step for i in range(n - 1)]
    pts.append(hi)  # endpoints exact regardless of rounding in the step
    return pts


# the t grid k/16: dyadic, so 1 - t is exact and again on the grid; T_HALF
# is its t <= 1/2 part
T_GRID = tuple(uniform_grid(0.0, 1.0, T_GRID_N))
T_HALF = T_GRID[:T_GRID_N // 2 + 1]

# (t, 1 - t) for the t strictly inside (0, 1), and for those of T_HALF; at
# t in {0, 1} the combined point is a grid node
T_INNER = tuple((t, 1.0 - t) for t in T_GRID[1:-1])
T_HALF_INNER = T_INNER[:len(T_HALF) - 1]


class ConvexityTable(NamedTuple):
    """The s-independent part of one scan: rows of f values that report(s)
    reduces for one s.

    v(x, y, t) equals v(y, x, 1-t) exactly in floats on the dyadic t grid,
    in both modes, so only the canonical half is tabulated: a row (x, f(x),
    y, f(y), ts, fcs) per pair of nodes i <= j, in scan order, then one per
    seeded triple. fcs holds f at the combined point of each t of ts:
    T_GRID when i < j, T_HALF when i == j, (t,) for a draw. At t = 0 and
    t = 1 that point is a node, whose value fcs holds: x then y in the
    harmonic mode, y then x in the arithmetic one. Each mirrored triple
    comes after its twin in the full scan, so the ascending scan of the
    half still meets the lexicographically smallest maximizer first.
    """

    harmonic: bool
    rows: list[tuple]
    samples: int

    def report(self, s: float) -> ConvexityReport:
        """The scan's maximum of lhs - rhs and its witness at exponent s."""
        validate_s(s)
        harmonic = self.harmonic

        def weigh(t: float) -> tuple[float, float]:
            # (weight of f(x), weight of f(y)); the harmonic form swaps them
            wt, wr = t ** s, (1.0 - t) ** s
            return (wr, wt) if harmonic else (wt, wr)

        weights = [weigh(t) for t in T_GRID]
        best = -math.inf
        witness = (self.rows[0][0], self.rows[0][0], 0.0)
        for x, fx, y, fy, ts, fcs in self.rows:
            # zip stops at the 9 values of a diagonal row; a draw weighs its t
            row = [fc - (wx * fx + wy * fy) for (wx, wy), fc in
                   zip(weights if len(ts) > 1 else [weigh(ts[0])], fcs)]
            # max keeps the first of equal values, and index finds it
            v = max(row)
            if v > best:
                best = v
                witness = (x, y, ts[row.index(v)])
        return ConvexityReport(max_violation=best, witness=witness,
                               samples=self.samples)


def _combined_points(x: float, y: float, harmonic: bool,
                     tus: tuple[tuple[float, float], ...]) -> list[float]:
    """The combined point of (x, y, t) for each (t, 1 - t) of tus, as
    harmonic_combination (x, y > 0, 0 < t < 1) or tx + (1-t)y computes it,
    with x*y formed once."""
    if not harmonic:
        return [t * x + u * y for t, u in tus]
    xy = x * y
    if MIN_NORMAL <= xy < math.inf:
        return [xy / (t * x + u * y) for t, u in tus]
    return [harmonic_combination(x, y, t) for t, _ in tus]


def tabulate(f: FunctionSpec, iv: Interval, mode: ConvexityMode,
             grid_n: int, seed: Optional[int]) -> ConvexityTable:
    """Evaluate f over the scan of `mode` on x, y in grid(iv) and t in
    grid([0, 1]): once at each grid node, once per canonical triple with
    0 < t < 1 at the combined point (at t = 0 and t = 1 that point is a
    node), and three times per seeded triple. A seed adds N_RANDOM uniform
    triples after the grid. f is called once, through FunctionSpec.values,
    on the nodes and then every other point in scan order, so an error
    names the first bad point of the scan. A grid of more than
    MAX_SCAN_TRIPLES triples is refused before any evaluation.
    """
    if grid_n < 3:
        raise DomainError(f"grid_n must be at least 3, got {grid_n}")
    if grid_n * grid_n * T_GRID_N > MAX_SCAN_TRIPLES:
        raise DomainError(f"grid_n={grid_n} asks for {grid_n * grid_n * T_GRID_N}"
                          f" triples, above the cap of {MAX_SCAN_TRIPLES}")
    harmonic = mode is ConvexityMode.HARMONICALLY_S_CONVEX
    xs = uniform_grid(iv.a, iv.b, grid_n)
    points: list[float] = []
    for i, x in enumerate(xs):
        points += _combined_points(x, x, harmonic, T_HALF_INNER)
        for y in xs[i + 1:]:
            points += _combined_points(x, y, harmonic, T_INNER)
    draws = []
    samples = grid_n * grid_n * T_GRID_N
    if seed is not None:
        combine = harmonic_combination if harmonic else (
            lambda x, y, t: t * x + (1.0 - t) * y)
        rng = random.Random(seed)
        for _ in range(N_RANDOM):
            x, y, t = rng.uniform(iv.a, iv.b), rng.uniform(iv.a, iv.b), rng.random()
            draws.append((x, y, t))
            points += (x, y, combine(x, y, t))
        samples += N_RANDOM
    fps = iter(f.values(xs + points))
    nodes = list(zip(xs, islice(fps, grid_n)))
    rows = []
    for i, (x, fx) in enumerate(nodes):
        rows.append((x, fx, x, fx, T_HALF,
                     [fx, *islice(fps, len(T_HALF_INNER))]))
        for y, fy in nodes[i + 1:]:
            f0, f1 = (fx, fy) if harmonic else (fy, fx)
            rows.append((x, fx, y, fy, T_GRID,
                         [f0, *islice(fps, len(T_INNER)), f1]))
    for x, y, t in draws:
        fx, fy, fc = islice(fps, 3)
        rows.append((x, fx, y, fy, (t,), [fc]))
    return ConvexityTable(harmonic=harmonic, rows=rows, samples=samples)


def check_convexity(f: FunctionSpec, iv: Interval, mode: ConvexityMode,
                    s: float, grid_n: int = GATE_GRID_N,
                    seed: Optional[int] = None) -> ConvexityReport:
    """Scan the defining inequality of `mode` over x, y in grid(iv) and
    t in grid([0, 1]): the table of tabulate reduced at s.

    s must lie in (0, 1]. samples counts the full grid, though f is
    evaluated on its canonical half only (see ConvexityTable).
    """
    validate_s(s)
    return tabulate(f, iv, mode, grid_n, seed).report(s)


def check_am_hm(iv: Interval) -> ConvexityReport:
    """Scan xy/(tx + (1-t)y) <= ty + (1-t)x over the grid, as harmonic
    convexity of u -> u.

    This comparison holds for all positive x, y and t in [0, 1]; the report
    should always satisfy max_violation <= VIOLATION_TOL.
    """
    return check_convexity(get_function("id"), iv,
                           ConvexityMode.HARMONICALLY_S_CONVEX, 1.0,
                           COMPARISON_GRID_N)


def grid_monotone(f: FunctionSpec, iv: Interval) -> str:
    """Classify f on the grid as 'nondecreasing', 'nonincreasing', 'constant'
    or 'neither', comparing consecutive grid values with tolerance
    VIOLATION_TOL.

    The comparison-inequality implications need a testable stand-in for the
    monotonicity hypotheses, and this is it.
    """
    xs = uniform_grid(iv.a, iv.b, COMPARISON_GRID_N)
    vals = f.values(xs)
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
                             iv: Interval) -> list[dict]:
    """Grid form of the two comparison implications:

      (1) s-convex (second sense) and nondecreasing  =>  harmonically s-convex
      (2) harmonically s-convex and nonincreasing    =>  s-convex (second sense)

    Returns a row per (fn, s, direction) whose antecedent held; each row
    carries the consequent's max_violation, which must stay inside
    VIOLATION_TOL for the implication to hold on the grid. Functions whose
    antecedent fails contribute nothing (the implication is vacuous there).

    Each mode is tabulated once per function and reduced for every s; a
    function whose monotonicity class rules out both directions is not
    scanned, and a consequent is scanned only where an antecedent holds.
    """
    for s in s_values:
        validate_s(s)
    s_mode = ConvexityMode.S_CONVEX_SECOND_SENSE
    h_mode = ConvexityMode.HARMONICALLY_S_CONVEX
    rows: list[dict] = []
    for fn_id in fn_ids:
        f = get_function(fn_id)
        mono = grid_monotone(f, iv)
        directions = []
        if mono in ("nondecreasing", "constant"):
            directions.append(("s_to_harmonic", s_mode, h_mode))
        if mono in ("nonincreasing", "constant"):
            directions.append(("harmonic_to_s", h_mode, s_mode))
        reports: dict = {}

        def over_s(mode: ConvexityMode) -> list[ConvexityReport]:
            # one table per (fn, mode), reduced for every s
            if mode not in reports:
                table = tabulate(f, iv, mode, COMPARISON_GRID_N, None)
                reports[mode] = [table.report(s) for s in s_values]
            return reports[mode]

        for i, s in enumerate(s_values):
            for direction, antecedent, consequent in directions:
                if over_s(antecedent)[i].holds:
                    r = over_s(consequent)[i]
                    rows.append({"fn": fn_id, "s": s, "direction": direction,
                                 "consequent_violation": r.max_violation,
                                 "holds": r.holds})
    return rows
