"""The empirical referee: residual checks, hypothesis gates, slack scans.

Nothing in here asserts an inequality without first checking its
hypothesis (check-then-assert). verify_theorem gates the harmonic chain on
harmonic s-convexity of f itself and gates every Ostrowski-type theorem on
harmonic s-convexity of u -> |f'(u)|^q; only when the gate passes does the
slack scan run and count. For a power law c*u^r the gate is again a power
law, decided exactly (convexity.power_gate), and a search that spends its
budget is an error, not a sampled answer; a gate grid, when one is asked
for, is scanned instead.

lambda_document (for `lambda --check` and the battery alike) and
mean_fidelity hold every lambda closed form and both closed means against
quadrature of their defining integrals, each by integrate(f, lo, hi) at its
one relative tolerance (lambda in bounds.lambda_integrand's u).
run_battery runs every check once, for the CLI's selftest and the
acceptance tests alike; its comparison-proposition row counts the
implications whose consequent fails, each decided exactly.
"""

from __future__ import annotations

import math
import time
from typing import Callable, NamedTuple, Optional

from .bounds import (classic_ostrowski_rhs, harmonic_midpoint,
                     hh_harmonic_bounds, lambda_integrand,
                     lambda_memo, lambda_value, ostrowski_rhs,
                     resolve_exponents, OSTROWSKI_THEOREMS)
from .convexity import (VIOLATION_TOL, check_am_hm, check_convexity,
                        power_gate, proposition_implications, uniform_grid)
from .errors import DomainError, NumericError
from .numeric import (MIN_NORMAL, FunctionSpec, Interval, arithmetic_mean,
                      derivative, exact, get_function, integrate, validate_s,
                      weighted_mean)
from .specfn import beta, hyp2f1

# combined closed-form and special-function error across an lhs/rhs pair
# stays well under this; slacks below -SLACK_TOL are genuine violations
SLACK_TOL = 1e-9

VERIFY_THEOREMS = ("T2_2",) + OSTROWSKI_THEOREMS

# x points of a verify_theorem scan by default, and of every matrix config
X_GRID_N = 9

# x points a verify_theorem scan may take: each costs one point of the rhs
# scan and one document row; larger grids are refused before any evaluation
MAX_X_GRID = 1000


# the columns of a bound row, in document order
ROW_FIELDS = ("theorem", "x", "a", "b", "s", "q", "p", "M",
              "lhs", "rhs", "slack", "hypothesis_ok")


def bound_row(theorem: str, x: float, iv: Interval, s: float,
              q: Optional[float], p: Optional[float], M: Optional[float],
              lhs: float, rhs: float, hypothesis_ok: bool) -> dict:
    """One inequality instance as the documents print it: the ROW_FIELDS,
    with slack = rhs - lhs, then fd_fallback. Every derivative magnitude is
    analytic, so fd_fallback is always false."""
    row = dict(zip(ROW_FIELDS, (theorem, x, iv.a, iv.b, s, q, p, M,
                                lhs, rhs, rhs - lhs, hypothesis_ok)))
    row["fd_fallback"] = False
    return row


def lemma_residual(f: FunctionSpec, x: float, iv: Interval) -> float:
    """Residual of the integral identity behind all the Ostrowski bounds:

        f(x) - (ab/(b-a)) int_a^b f(u)/u^2 du
          = (ab/(b-a)) [ (x-a)^2 int_0^1 t/(ta+(1-t)x)^2 f'(ax/(ta+(1-t)x)) dt
                       - (b-x)^2 int_0^1 t/(tb+(1-t)x)^2 f'(bx/(tb+(1-t)x)) dt ]

    The mean is closed, the right side is taken by quadrature, and |lhs -
    rhs| is returned; for a differentiable f it is pure numerical noise.
    """
    a, b = iv.a, iv.b
    if not a <= x <= b:
        raise DomainError(f"x={x} outside [{a}, {b}]")
    lhs = f(x) - weighted_mean(f, iv)

    def side_integral(theta: float) -> float:
        def integrand(t: float) -> float:
            denom = t * theta + (1.0 - t) * x
            return t / (denom * denom) * derivative(f, theta * x / denom)
        return integrate(integrand, 0.0, 1.0).value

    rhs = 0.0
    if x > a:
        rhs += (x - a) ** 2 * side_integral(a)
    if x < b:
        rhs -= (b - x) ** 2 * side_integral(b)
    rhs *= a * b / (b - a)
    return abs(lhs - rhs)


def _gate_function(theorem: str, f: FunctionSpec,
                   q: Optional[float]) -> tuple[str, Callable[[float], float]]:
    """The function whose harmonic s-convexity `theorem` assumes, as the
    name and callable check_convexity scans: f itself for T2_2, else
    u -> |f'(u)|^q by the rule of derivative (f' is (c*r)/(u*u) at r = -1
    and +0.0 at r = 0) but unguarded, as the scan guards each value and
    names the error after |f'|^q."""
    if theorem == "T2_2":
        return f.fn_id, f
    _, c, r = f
    name, cr, r1 = f"|{f.fn_id}'|^{exact(q)}", c * r, r - 1.0
    if r == 0.0:
        return name, lambda u: 0.0
    if r == -1.0:
        return name, lambda u: abs(cr / (u * u)) ** q
    return name, lambda u: abs(cr * u ** r1) ** q


def _gate_power(theorem: str, c: float, r: float,
                q: Optional[float]) -> tuple[int, tuple[int, int]]:
    """The gate of `theorem` for f = c*u^r as K*u^rho: the sign of K and
    rho as an exact fraction. (K, rho) is (c, r) for T2_2 and
    (|c*r|^q, (r - 1)*q) otherwise, whose K may overflow and whose rho
    need not be a float, so neither is computed in floats."""
    if theorem == "T2_2":
        return (c > 0.0) - (c < 0.0), r.as_integer_ratio()
    r_num, r_den = r.as_integer_ratio()
    q_num, q_den = q.as_integer_ratio()
    return int(c != 0.0 and r != 0.0), ((r_num - r_den) * q_num, r_den * q_den)


def hypothesis_gate(theorem: str, f: FunctionSpec, iv: Interval, s: float,
                    q: Optional[float], grid_n: Optional[int]) -> bool:
    """Whether the hypothesis of `theorem` holds: harmonic s-convexity of
    _gate_function(theorem, f, q). With grid_n None it is decided exactly
    by power_gate, which raises NumericError when its search spends the
    budget; with a grid_n it is scanned on that grid."""
    if grid_n is None:
        return power_gate(*_gate_power(theorem, f.c, f.r, q), iv, s)
    return check_convexity(*_gate_function(theorem, f, q), iv, s,
                           grid_n).holds


def verify_theorem(theorem: str, f: FunctionSpec, iv: Interval, s: float,
                   q: Optional[float], p: Optional[float],
                   x_grid: int = X_GRID_N,
                   gate_grid_n: Optional[int] = None) -> dict:
    """Gate a theorem's hypothesis, then scan its inequality over x.

    Returns the document `hsconvex verify` prints: theorem, grid, results
    (bound_row dicts), min_slack, hypothesis_ok and pass. T2_2 gates on
    harmonic s-convexity of f and yields two chain rows (left-vs-middle and
    middle-vs-right; the two inequalities hold or fail independently).
    T2_3..T2_7 gate on harmonic s-convexity of |f'|^q and yield one row per
    x-grid point, from one ostrowski_rhs scan. The exponents (q, p) are
    resolved once (resolve_exponents), and the gate is hypothesis_gate's,
    on the gate_grid_n grid if one is given. A failed gate short-circuits:
    results stay empty, min_slack is None and pass is false, without any
    slack claim. An x grid of more than MAX_X_GRID points is refused first.
    """
    validate_s(s)
    if theorem not in VERIFY_THEOREMS:
        raise DomainError(f"unknown theorem {theorem!r}; expected one of "
                          f"{', '.join(VERIFY_THEOREMS)}")
    if not 1 <= x_grid <= MAX_X_GRID:
        raise DomainError(f"x_grid must have 1 to {MAX_X_GRID} points, "
                          f"got {x_grid}")
    q, p = resolve_exponents(theorem, q, p)
    holds = hypothesis_gate(theorem, f, iv, s, q, gate_grid_n)
    a, b = iv.a, iv.b
    rows: list[dict] = []
    if holds and theorem == "T2_2":
        left, middle, right = hh_harmonic_bounds(f, iv, s)
        h_mid = harmonic_midpoint(iv)
        rows = [bound_row(name, h_mid, iv, s, None, None, None, lhs, rhs, True)
                for name, lhs, rhs in (("T2_2_left", left, middle),
                                       ("T2_2_right", middle, right))]
    elif holds:
        wm = weighted_mean(f, iv)
        xs = uniform_grid(a, b, x_grid)
        rhs = ostrowski_rhs(theorem, f, xs, iv, s, q, p)
        rows = [bound_row(theorem, x, iv, s, q, p, None, abs(f(x) - wm), r, True)
                for x, r in zip(xs, rhs)]
    min_slack = min((r["slack"] for r in rows), default=None)
    return {
        "theorem": theorem,
        "grid": {
            "x_count": 2 if theorem == "T2_2" else x_grid,
            "s_set": [s],
            "q_set": [] if q is None else [q],
            "fn": f.fn_id,
            "interval": [a, b],
        },
        "results": rows,
        "min_slack": min_slack,
        "hypothesis_ok": holds,
        "pass": min_slack is not None and min_slack >= -SLACK_TOL,
    }


# the lambda sweep: (theta, x) pairs with theta <= x, used directly for
# kinds 1, 2 and with roles swapped for kinds 3, 4, crossed with s and
# (vartheta, rho): 3 x 5 x 4 points per kind
LAMBDA_PAIRS = ((1.0, 1.1), (1.0, 1.5), (1.0, 1.9))
LAMBDA_S_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)
LAMBDA_VARTHETA_RHO = ((1.0, 0.0), (1.0, 1.0), (2.0, 2.0), (1.5, 1.5))
# (theta, x) pairs for lambda5, with the near-equal regime its 2F1 route
# takes (z = 1 - theta/x at +-1e-6 .. +-1e-2) and one point on each side
# of the cut |z| = 0.1
LAMBDA5_POINTS = ((1.0, 2.0), (2.0, 1.5), (1.0, 1.5), (1.5, 1.5)) + tuple(
    (1.5 * (1.0 - sign * mag), 1.5)
    for mag in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1) for sign in (1.0, -1.0))


def lambda_document(kind: int, theta: float, x: float, s: Optional[float],
                    vartheta: Optional[float], rho: Optional[float],
                    check: bool) -> dict:
    """The document `hsconvex lambda` prints: the arguments and the closed
    value, lambda_value (kind 5 takes no s, vartheta or rho). With check,
    also the oracle, by lambda_integrand, and rel_err; a value below the
    normal floats has too few digits for one and is refused."""
    if kind != 5 and None in (s, vartheta, rho):
        raise DomainError(f"kind {kind} needs --s, --vartheta and --rho")
    weight = (kind, theta, x, s, vartheta, rho)
    value = lambda_value(*weight)
    doc = {"kind": kind, "theta": theta, "x": x, "s": s,
           "vartheta": vartheta, "rho": rho, "value": value}
    if check:
        if abs(value) < MIN_NORMAL:
            raise NumericError(f"the value {value:.17g} underflows below the "
                               "normal floats, so it has no relative error "
                               "to check")
        doc["oracle"] = integrate(lambda_integrand(*weight), 0.0, 1.0).value
        doc["rel_err"] = abs(value - doc["oracle"]) / abs(value)
    return doc


def lambda_consistency_rows() -> list[dict]:
    """Closed form vs defining integral at every point of the lambda
    sweep: the lambda_document of each, checked."""
    # kinds 3, 4 live on the b-side: swap each pair so x <= theta
    points = [(kind, *(pair if kind < 3 else pair[::-1]), s, vt, rho)
              for kind in (1, 2, 3, 4) for pair in LAMBDA_PAIRS
              for s in LAMBDA_S_VALUES for vt, rho in LAMBDA_VARTHETA_RHO]
    points += [(5, theta, x, None, None, None) for theta, x in LAMBDA5_POINTS]
    return [lambda_document(*point, True) for point in points]


# the standard sweep configuration: every registry shape crossed with the
# exponents and intervals the slack scans care about
MATRIX_FUNCTIONS = ("const:2", "id", "pow:2", "pow:0.5", "inv", "neg")
MATRIX_INTERVALS = ((1.0, 2.0), (0.5, 3.0))
MATRIX_S_VALUES = (0.5, 1.0)
MATRIX_Q_VALUES = (1.0, 2.0)
MATRIX_PAIR = (2.0, 2.0)  # (q, p) of T2_6, T2_7

LEMMA_FUNCTIONS = ("const:2", "id", "pow:2", "pow:0.5", "inv")
LEMMA_INTERVALS = ((1.0, 2.0), (0.5, 3.0), (2.0, 2.5))


def mean_fidelity() -> list[float]:
    """Both closed means of every lemma case (LEMMA_FUNCTIONS on
    LEMMA_INTERVALS) against quadrature of the integral that defines each,
    as relative discrepancies."""
    return [abs(closed - oracle) / abs(closed)
            for f in map(get_function, LEMMA_FUNCTIONS)
            for a, b in LEMMA_INTERVALS for closed, oracle in (
                (weighted_mean(f, Interval(a, b)), a * b / (b - a) * integrate(
                    lambda u: f(u) / (u * u), a, b).value),
                (arithmetic_mean(f, a, b),
                 integrate(f, a, b).value / (b - a)))]


def _matrix_configs():
    """Yield (theorem, fn_id, iv, s, q, p) across the sweep matrix, with
    the exponents as resolve_exponents gives them.

    T2_3/T2_4/T2_5 run once per q (p None); T2_6/T2_7 run once per config
    with the fixed conjugate pair (q, p) = MATRIX_PAIR (such pairs have no
    free q to sweep).
    """
    for fn_id in MATRIX_FUNCTIONS:
        for a, b in MATRIX_INTERVALS:
            iv = Interval(a, b)
            for s in MATRIX_S_VALUES:
                for theorem in ("T2_3", "T2_4", "T2_5"):
                    for q in MATRIX_Q_VALUES:
                        yield theorem, fn_id, iv, s, q, None
                for theorem in ("T2_6", "T2_7"):
                    yield (theorem, fn_id, iv, s) + MATRIX_PAIR


def run_ostrowski_matrix() -> list[dict]:
    """The verify_theorem documents of the whole sweep matrix, in a fixed
    order, with its defaults: X_GRID_N x points, and a gate that
    power_gate decides, as every matrix function is a power law. Lambda
    weight columns are shared across the sweep (lambda_memo)."""
    with lambda_memo():
        return [verify_theorem(theorem, get_function(fn_id), iv, s, q, p)
                for theorem, fn_id, iv, s, q, p in _matrix_configs()]


def matrix_summary(reports: list[dict]) -> dict:
    """Aggregate a matrix run: worst gated slack and gate coverage.

    gated_pairs collects the distinct (theorem, fn) combinations whose
    hypothesis gate passed; a sweep where too few pairs pass is vacuous no
    matter how good the slacks look.
    """
    gated = [r for r in reports if r["hypothesis_ok"]]
    gated_pairs = sorted({(r["theorem"], r["grid"]["fn"]) for r in gated})
    min_slack = min((r["min_slack"] for r in gated), default=None)
    return {
        "reports": len(reports),
        "gated": len(gated),
        "gated_pairs": gated_pairs,
        "min_slack": min_slack,
    }


def min_corollary_gap(reports: list[dict]) -> float:
    """Worst value of corollary_rhs - theorem_rhs across the matrix, given
    its reports, those of run_ostrowski_matrix.

    For each configuration M is the maximum of |f'| over the x points of
    the matrix plus 0.1, so M dominates every derivative magnitude the
    theorem rhs uses, and substituting it can only enlarge the bound: the
    gap should be nonnegative up to rounding. No hypothesis gate applies.
    Every scan shares its weight columns (lambda_memo). A gated config's
    theorem rhs is read from its report; only the M scans and the theorem
    scans of the ungated configs are assembled here.
    """
    worst = math.inf
    with lambda_memo():
        for (theorem, fn_id, iv, s, q, p), doc in zip(_matrix_configs(),
                                                      reports, strict=True):
            f = get_function(fn_id)
            xs = uniform_grid(iv.a, iv.b, X_GRID_N)
            m_cap = max(abs(derivative(f, u)) for u in xs) + 0.1
            rhs = [row["rhs"] for row in doc["results"]] or ostrowski_rhs(
                theorem, f, xs, iv, s, q, p)
            m_rhs = ostrowski_rhs(theorem, f, xs, iv, s, q, p, M=m_cap)
            worst = min(worst, *(m - t for m, t in zip(m_rhs, rhs)))
    return worst


class Check(NamedTuple):
    """One battery row: a measured value against a limit.

    kind 'max_err' passes when value <= limit, 'min_slack' when value >=
    -limit, 'count_min' when value >= limit. cases counts the points or
    configurations behind the value; elapsed_s times its computation.
    """

    name: str
    kind: str
    value: float
    limit: float
    cases: int
    elapsed_s: float

    @property
    def passed(self) -> bool:
        if self.kind == "max_err":
            return self.value <= self.limit
        if self.kind == "min_slack":
            return self.value >= -self.limit
        return self.value >= self.limit


def lambda_checks(rows: list[dict]) -> list[tuple]:
    """The battery's fidelity rows of a sweep, as Check fields but elapsed_s."""
    kinds14 = [r["rel_err"] for r in rows if r["kind"] <= 4]
    kind5 = [r["rel_err"] for r in rows if r["kind"] == 5]
    return [("lambda_fidelity_kinds_1_4", "max_err", max(kinds14), 1e-8,
             len(kinds14)),
            ("lambda5_fidelity", "max_err", max(kind5), 1e-10, len(kind5))]


def run_battery() -> list[Check]:
    """Run every check of the package once: one Check per row, in a fixed
    order from closed-form fidelity to the special-function spot checks.
    The matrix and the corollary sweep run in one lambda_memo block, which
    ends with the run; the sweep reads the theorem rhs of the matrix
    reports."""
    checks: list[Check] = []
    t0 = time.perf_counter()

    def add(*rows: tuple) -> None:
        # rows computed since the previous call share that stretch of time
        nonlocal t0
        elapsed = time.perf_counter() - t0
        checks.extend(Check(*row, elapsed) for row in rows)
        t0 = time.perf_counter()

    # closed forms vs the quadrature oracle
    add(*lambda_checks(lambda_consistency_rows()))
    errs = mean_fidelity()
    add(("mean_fidelity", "max_err", max(errs), 1e-10, len(errs)))

    # the integral identity behind all the bounds
    residuals = [lemma_residual(f, x, Interval(a, b)) / (1.0 + abs(f(x)))
                 for f in map(get_function, LEMMA_FUNCTIONS)
                 for a, b in LEMMA_INTERVALS
                 for x in uniform_grid(a, b, 9)]
    add(("lemma_identity", "max_err", max(residuals), 1e-7, len(residuals)))

    # two-sided chain for x^s on subintervals of (0, 1]; a failed gate
    # reads as -inf
    chains = [verify_theorem("T2_2", get_function(f"pow:{s:g}"),
                             Interval(a, b), s, None, None)
              for s in (0.25, 0.5, 0.75, 1.0)
              for a, b in ((0.25, 1.0), (0.1, 0.9))]
    add(("hh_chain_slack", "min_slack",
         min(r["min_slack"] if r["hypothesis_ok"] else -math.inf
             for r in chains), 1e-12, len(chains)))

    # the matrix and the corollary sweep share their weight columns
    with lambda_memo():
        # gated slack sweep over the theorem matrix
        reports = run_ostrowski_matrix()
        summary = matrix_summary(reports)
        min_slack = summary["min_slack"]
        add(("ostrowski_matrix_slack", "min_slack",
             -math.inf if min_slack is None else min_slack, SLACK_TOL,
             summary["gated"]),
            ("ostrowski_gate_coverage", "count_min",
             float(len(summary["gated_pairs"])), 5.0, summary["reports"]))

        # replacing derivative magnitudes with a dominating M can only
        # enlarge; min_corollary_gap sweeps the same configurations and
        # reads the matrix's theorem rhs
        add(("corollary_monotonicity", "min_slack",
             min_corollary_gap(reports), 1e-12, summary["reports"]))

    # classic bound for f(x)=x, M=1 on [1, 2]
    f_id = get_function("id")
    iv = Interval(1.0, 2.0)
    mean = arithmetic_mean(f_id, 1.0, 2.0)
    xs = uniform_grid(1.0, 2.0, 33)
    add(("classic_slack", "min_slack",
         min(classic_ostrowski_rhs(x, iv, 1.0) - abs(f_id(x) - mean)
             for x in xs), 1e-14, len(xs)))

    # comparison inequality and the monotonicity implications
    am_hm = check_am_hm(Interval(0.5, 4.0))
    add(("am_hm_grid", "max_err", am_hm.max_violation, VIOLATION_TOL,
         am_hm.samples))
    s_values = (0.25, 0.5, 0.75, 1.0)
    prop = proposition_implications(MATRIX_FUNCTIONS, s_values,
                                    Interval(0.5, 4.0))
    add(("proposition_nonvacuous", "count_min", float(len(prop)), 1.0,
         len(MATRIX_FUNCTIONS) * len(s_values)),
        ("proposition_implications", "max_err",
         float(sum(not r["holds"] for r in prop)), VIOLATION_TOL,
         len(prop)))

    # special-function spot checks; the points above z = 0.9 take the ODE
    # continuation route of hyp2f1
    errs = []
    near_one = [0.95, 0.99, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9]
    for z in [i / 10.0 for i in range(1, 10)] + near_one:
        ref = -math.log1p(-z) / z
        errs.append(abs(hyp2f1(1.0, 1.0, 2.0, z) - ref) / abs(ref))
    add(("hyp2f1_log_identity", "max_err", max(errs), 1e-10, len(errs)))
    pts = (0.5, 1.0, 1.5, 2.5, 5.0, 7.0, 12.0, 20.0, 50.0)
    errs = [abs(beta(x, y) - beta(y, x)) / beta(x, y) for x in pts for y in pts]
    add(("beta_symmetry", "max_err", max(errs), 1e-13, len(errs)))
    return checks
