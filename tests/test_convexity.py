"""Convexity checker, AM-HM comparison, and the exact comparison
implications."""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsconvex import convexity
from hsconvex.convexity import (GATE_GRID_N, T_GRID, VIOLATION_TOL,
                                check_am_hm, check_convexity,
                                harmonic_combination, power_gate,
                                power_search, proposition_implications,
                                uniform_grid)
from hsconvex.errors import DomainError, NumericError
from hsconvex.numeric import Interval, derivative, get_function
from hsconvex.verify import (MATRIX_FUNCTIONS, MATRIX_INTERVALS,
                             MATRIX_Q_VALUES, MATRIX_S_VALUES,
                             hypothesis_gate)


def scan(fn_id, iv, s, *grid_n):
    """check_convexity of the registry function fn_id."""
    return check_convexity(fn_id, get_function(fn_id), iv, s, *grid_n)


def reference_scan(viol, iv, grid_n):
    """Evaluate viol at every triple of the scan, in its order: the grid
    ascending; keep the first maximum."""
    xs = uniform_grid(iv.a, iv.b, grid_n)
    triples = [(x, y, t) for x in xs for y in xs
               for t in uniform_grid(0.0, 1.0, 17)]
    best, witness = -math.inf, triples[0]
    for triple in triples:
        v = viol(*triple)
        if v > best:
            best, witness = v, triple
    return best, witness, len(triples)


def reference_rows(f, iv, grid_n):
    """The canonical half of the grid evaluated point by point: a row
    (x, f(x), y, f(y), fcs) per pair of nodes i <= j, fcs holding f at
    harmonic_combination(x, y, t) for each t of T_GRID, or of its first 9
    entries (t <= 1/2) when i == j. v(x, y, t) equals v(y, x, 1 - t)
    exactly on the dyadic t grid, and each mirrored triple comes after its
    twin in the ascending scan, so the half gives the full scan's first
    maximum."""
    xs = uniform_grid(iv.a, iv.b, grid_n)
    pairs = [(xs[i], xs[j], T_GRID[:9] if j == i else T_GRID)
             for i in range(grid_n) for j in range(i, grid_n)]
    return [(x, f(x), y, f(y), [f(harmonic_combination(x, y, t)) for t in ts])
            for x, y, ts in pairs]


def reference_report(rows, s):
    """The first maximum of lhs - rhs over reference_rows at exponent s,
    with its (x, y, t)."""
    best, witness = -math.inf, (rows[0][0], rows[0][0], 0.0)
    for x, fx, y, fy, fcs in rows:
        for t, fc in zip(T_GRID, fcs):
            v = fc - ((1.0 - t) ** s * fx + t ** s * fy)
            if v > best:
                best, witness = v, (x, y, t)
    return best, witness


def second_sense(fn_id, iv, s):
    """The exact s-convexity (second sense) of the registry c*u^r on iv:
    harmonic s-convexity of c*w^-r on [1/b, 1/a]."""
    c, r = get_function(fn_id)[1:]
    num, den = r.as_integer_ratio()
    return power_gate((c > 0.0) - (c < 0.0), (-num, den),
                      Interval(1.0 / iv.b, 1.0 / iv.a), s)


def float_v(fn_id, notion, x, y, t, s):
    """lhs - rhs of `notion` ('harmonic' or 'second_sense') at (x, y, t)
    in floats, as the sampled tables computed it."""
    f, u = get_function(fn_id), 1.0 - t
    if notion == "harmonic":
        return f(x * y / (t * x + u * y)) - (u ** s * f(x) + t ** s * f(y))
    return f(t * x + u * y) - (t ** s * f(x) + u ** s * f(y))


def exact_v(fn_id, notion, x, y, t, s):
    """float_v with the point and f at 50 digits, and the weighted sum at
    70, where its products and sum of 50-digit values are exact."""
    c, r = get_function(fn_id)[1:]
    with mpmath.workdps(50):
        x, y, t, s, c, r = map(mpmath.mpf, (x, y, t, s, c, r))
        if notion == "harmonic":
            point = x * y / (t * x + (1 - t) * y)
            wx, wy = (1 - t) ** s, t ** s
        else:
            point = t * x + (1 - t) * y
            wx, wy = t ** s, (1 - t) ** s
        fc, fx, fy = (c * u ** r for u in (point, x, y))
    with mpmath.workdps(70):
        return fc - (wx * fx + wy * fy)


class TestHarmonicCombination:
    def test_endpoints_exact(self):
        assert harmonic_combination(1.7, 2.9, 0.0) == 1.7
        assert harmonic_combination(1.7, 2.9, 1.0) == 2.9

    def test_midpoint(self):
        # t=0.5 gives the harmonic mean
        assert harmonic_combination(1.0, 2.0, 0.5) == pytest.approx(4.0 / 3.0,
                                                                    rel=1e-15)

    @given(st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.1, max_value=10.0),
           st.integers(min_value=0, max_value=16))
    @settings(max_examples=200, deadline=None)
    def test_between_and_symmetric(self, x, y, k):
        t = k / 16.0
        h = harmonic_combination(x, y, t)
        assert min(x, y) - 1e-12 <= h <= max(x, y) + 1e-12
        # swapping points and reflecting t is the same combination; on
        # dyadic t both orderings hit identical floats in the denominator
        assert harmonic_combination(y, x, 1.0 - t) == pytest.approx(h, rel=1e-12)

    def test_between_where_xy_underflows_or_overflows(self):
        extremes = (1e-300, 1e-200, 1e-180, 1e200, 1e300)
        for x in extremes:
            for y in extremes:
                for t in T_GRID:
                    h = harmonic_combination(x, y, t)
                    assert min(x, y) <= h <= max(x, y), (x, y, t)
        # x*y = 1e-380 underflows to 0; the scan used to evaluate inv there
        scan("inv", Interval(1e-200, 1e-180), 1.0)

    def test_normal_products_keep_the_product_form(self):
        rng = random.Random(8)
        for _ in range(200):
            x, y = rng.uniform(0.01, 100.0), rng.uniform(0.01, 100.0)
            for t in T_GRID[1:-1]:
                assert harmonic_combination(x, y, t) == \
                    x * y / (t * x + (1.0 - t) * y)


class TestCheckConvexity:
    def test_sqrt_is_s_convex_half(self):
        # in both notions: the scan of the harmonic one, and the exact
        # answer of the second sense
        iv = Interval(0.5, 4.0)
        rep = scan("pow:0.5", iv, 0.5)
        assert rep.holds
        assert rep.max_violation <= VIOLATION_TOL
        assert second_sense("pow:0.5", iv, 0.5) is True

    def test_constant_equality_at_corners(self):
        # a constant under s=1 gives equality, so max violation is ~0 and
        # the witness sits at a t endpoint
        rep = scan("const:2", Interval(1.0, 2.0), 1.0)
        assert rep.holds
        assert rep.max_violation == 0.0
        assert rep.witness[2] in (0.0, 1.0)

    def test_neg_violates_harmonic_convexity(self):
        rep = scan("neg", Interval(1.0, 2.0), 1.0)
        assert not rep.holds
        # worst violation on the grid: (y - hc) at x=1, y=2, t=0.5 is 1/6
        assert rep.max_violation >= 1.0 / 6.0 - 1e-12
        x, y, t = rep.witness
        assert 1.0 <= x <= 2.0 and 1.0 <= y <= 2.0 and 0.0 <= t <= 1.0

    def test_inv_is_harmonically_convex(self):
        # 1/x is harmonically affine: violation exactly 0 up to rounding
        rep = scan("inv", Interval(0.5, 4.0), 1.0)
        assert rep.holds

    # const:2 ties everywhere at s = 1, so the witness rests on the
    # tie-break alone; inv is harmonically affine. grid_n None is the
    # default gate grid, the others odd and even sizes down to the least
    @pytest.mark.parametrize("fn_id,s,grid_n", [("pow:2", 0.5, None),
                                                ("neg", 1.0, 7),
                                                ("pow:0.5", 0.75, 3),
                                                ("const:2", 1.0, None),
                                                ("const:2", 0.5, 5),
                                                ("inv", 1.0, None),
                                                ("inv", 0.25, 11)])
    def test_matches_defining_inequalities(self, fn_id, s, grid_n):
        f = get_function(fn_id)
        iv = Interval(0.5, 3.0)

        def harmonic(x, y, t):
            return (f(harmonic_combination(x, y, t))
                    - (t ** s * f(y) + (1.0 - t) ** s * f(x)))

        if grid_n is None:
            rep = scan(fn_id, iv, s)
        else:
            rep = scan(fn_id, iv, s, grid_n)
        assert ((rep.max_violation, rep.witness, rep.samples)
                == reference_scan(harmonic, iv, grid_n or GATE_GRID_N))

    def test_evaluates_each_node_once(self):
        points = []
        rep = check_convexity("counted", lambda u: points.append(u) or u * u,
                              Interval(1.0, 2.0), 0.5, 8)
        # one value per node, then one per triple at the combined point:
        # 64 pairs over the 15 t in (0, 1); at t = 0 and t = 1 that point
        # is a node. samples counts the full grid
        assert len(points) == 8 + 64 * 15 == 968
        assert rep.samples == 8 * 8 * 17

    def test_scan_cap_refuses_before_evaluating(self):
        class Started(Exception):
            pass

        points = []

        def first_eval(u):
            points.append(u)
            raise Started

        iv = Interval(1.0, 2.0)
        # grid_n = 256 is admitted: the scan starts evaluating ...
        with pytest.raises(Started):
            check_convexity("counted", first_eval, iv, 1.0, 256)
        assert len(points) == 1
        # ... a grid past the cap is refused before f is evaluated once
        for grid_n in (257, 100000):
            with pytest.raises(DomainError):
                check_convexity("counted", first_eval, iv, 1.0, grid_n)
        assert len(points) == 1

    def test_rejects_bad_parameters(self):
        iv = Interval(1.0, 2.0)
        with pytest.raises(DomainError):
            scan("id", iv, 0.0)
        with pytest.raises(DomainError):
            scan("id", iv, 1.5)
        with pytest.raises(DomainError):
            scan("id", iv, 1.0, 2)


class TestBulkTable:
    """check_convexity against the canonical half of the grid evaluated
    point by point, and the points it evaluates."""

    @pytest.mark.parametrize("iv", [Interval(1.0, 2.0), Interval(0.5, 3.0),
                                    Interval(1e-200, 1e-180),
                                    Interval(1e200, 1e201)])
    @pytest.mark.parametrize("fn_id", ["pow:0.5", "inv", "neg", "gate"])
    def test_bit_identical_to_the_point_by_point_scan(self, fn_id, iv):
        if fn_id == "gate":
            # |f'|^3 for f = pow:1.5, the function of a theorem's gate
            pow15 = get_function("pow:1.5")

            def base(u):
                return abs(derivative(pow15, u)) ** 3.0
        else:
            base = get_function(fn_id)
        points = []

        def f(u):
            points.append(u)
            return base(u)

        rows = reference_rows(f, iv, 16)
        # the scan evaluates the nodes, then the combined point of every
        # triple with 0 < t < 1, each once and in scan order
        points.clear()
        for s in (0.25, 0.5, 1.0):
            rep = check_convexity(fn_id, f, iv, s, 16)
            assert (rep.max_violation, rep.witness) == reference_report(rows, s)
        xs = uniform_grid(iv.a, iv.b, 16)
        assert points == 3 * (xs + [harmonic_combination(x, y, t) for x in xs
                                    for y in xs for t in T_GRID[1:-1]])


class TestAmHm:
    def test_grid_clean(self):
        rep = check_am_hm(Interval(0.5, 4.0))
        assert rep.holds
        assert rep.max_violation <= VIOLATION_TOL

    def test_matches_comparison(self):
        # x*y underflows on the second interval and overflows on the
        # third, where the scan forms each point by harmonic_combination
        for iv in (Interval(0.5, 4.0), Interval(1e-200, 1e-180),
                   Interval(1e200, 1e201)):
            rep = check_am_hm(iv)
            ref = reference_scan(
                lambda x, y, t: (harmonic_combination(x, y, t)
                                 - (t * y + (1.0 - t) * x)),
                iv, 32)
            assert (rep.max_violation, rep.witness, rep.samples) == ref, iv
        # the selftest's am_hm_grid value on [0.5, 4], bit for bit
        assert check_am_hm(Interval(0.5, 4.0)).max_violation == \
            8.881784197001252e-16

    def test_sample_count(self):
        rep = check_am_hm(Interval(1.0, 2.0))
        assert rep.samples == 32 * 32 * 17


class TestPropositionImplications:
    def test_all_hold(self):
        rows = proposition_implications(
            ("const:2", "id", "pow:2", "pow:0.5", "inv", "neg"),
            (0.5, 1.0), Interval(0.5, 4.0))
        assert rows, "implication grid must not be vacuous"
        assert all(r["holds"] for r in rows)
        assert all(list(r) == ["fn", "s", "direction", "holds"] for r in rows)

    def test_directions_present(self):
        rows = proposition_implications(("pow:2", "inv"), (1.0,),
                                        Interval(0.5, 4.0))
        directions = {r["direction"] for r in rows}
        # pow:2 is convex nondecreasing (forward implication); inv is
        # harmonically affine and nonincreasing (reverse implication)
        assert "s_to_harmonic" in directions
        assert "harmonic_to_s" in directions

    def test_battery_rows(self):
        # the 23 nonvacuous rows the sampled 32 x 32 x 17 tables gave: a
        # constant runs both ways, id, pow:2 and pow:0.5 (not 1-convex)
        # forward, inv backward, and neg (not s-convex for s < 1, not
        # harmonically s-convex) never
        rows = proposition_implications(MATRIX_FUNCTIONS,
                                        (0.25, 0.5, 0.75, 1.0),
                                        Interval(0.5, 4.0))
        fwd, back = "s_to_harmonic", "harmonic_to_s"
        expected = ([("const:2", s, d) for s in (0.25, 0.5, 0.75, 1.0)
                     for d in (fwd, back)]
                    + [(fn, s, fwd) for fn in ("id", "pow:2")
                       for s in (0.25, 0.5, 0.75, 1.0)]
                    + [("pow:0.5", s, fwd) for s in (0.25, 0.5, 0.75)]
                    + [("inv", s, back) for s in (0.25, 0.5, 0.75, 1.0)])
        assert [(r["fn"], r["s"], r["direction"]) for r in rows] == expected
        assert all(r["holds"] for r in rows)

    def test_spent_search_raises(self, monkeypatch):
        # u^0.05 on [1, 256] is 0.25-convex in the second sense, which
        # the search shows only by splitting boxes; with none to spend it
        # cannot say
        iv = Interval(1.0, 256.0)
        assert proposition_implications(("pow:0.05",), (0.25,), iv)
        monkeypatch.setattr(convexity, "MAX_GATE_BOXES", 0)
        with pytest.raises(NumericError, match="gate undecided within budget"):
            proposition_implications(("pow:0.05",), (0.25,), iv)

    def test_subnormal_left_end(self):
        # 1/a overflows at a = 1e-310, so no mirror [1/b, 1/a] exists; the
        # second sense is asked on the interval itself, whose b/a and log
        # terms are the mirror's, and a search gives the same decisions as
        # on [1, 1e10], which has the same b/a
        fwd, back = "s_to_harmonic", "harmonic_to_s"
        rows = proposition_implications(("id", "inv"), (0.5,),
                                        Interval(1e-310, 1.0))
        assert [(r["fn"], r["direction"], r["holds"]) for r in rows] == [
            ("id", fwd, True), ("inv", back, True)]
        fn_ids, s_values = ("pow:0.05", "pow:0.5", "inv"), (0.25, 0.75)
        rows = proposition_implications(fn_ids, s_values,
                                        Interval(1e-310, 1e-300))
        assert rows == proposition_implications(fn_ids, s_values,
                                                Interval(1.0, 1e10))
        assert len(rows) == 3

    @pytest.mark.parametrize("fn_id,notion,x,t,printed", [
        ("id", "harmonic", 3.5483870967741935, 0.1875, 8.881784197001252e-16),
        ("pow:2", "harmonic", 3.5483870967741935, 0.1875,
         3.552713678800501e-15),
        ("inv", "second_sense", 0.6129032258064516, 0.3125,
         2.220446049250313e-16)])
    def test_printed_violations_were_rounding(self, fn_id, notion, x, t,
                                              printed):
        # the witnesses of the sampled consequents at s = 1, all on the
        # diagonal x = y: the float combined point misses x by an ulp,
        # while the exact v there is 0
        assert float_v(fn_id, notion, x, x, t, 1.0) == printed
        assert exact_v(fn_id, notion, x, x, t, 1.0) <= 0


def phi(t, r, alpha, s):
    """(t + (1-t) r)^alpha - t^s - (1-t)^s r^alpha in mpmath at the working
    precision: w^alpha breaks s-convexity at the points w1 and r w1 with
    weight t where it is positive."""
    t, r = mpmath.mpf(t), mpmath.mpf(r)
    return (t + (1 - t) * r) ** alpha - t ** s - (1 - t) ** s * r ** alpha


def search_cases(n):
    """n derandomized (alpha, s, iv) with 0 < alpha < s < 1 and iv = [a, b],
    a = 2^k for k in [-30, 30] and b/a in (1, 2^20]."""
    rng = random.Random(25)
    cases = []
    for _ in range(n):
        s = rng.uniform(0.05, 0.99)
        a = 2.0 ** rng.uniform(-30.0, 30.0)
        cases.append((rng.uniform(0.0, s) or s / 2, s,
                      Interval(a, a * 2.0 ** rng.uniform(1e-6, 20.0))))
    return cases


def gate_table(theorem, f, iv, q, s_values):
    """The sampled gate of `theorem` for f on its default grid at each s
    of s_values, held against the point-by-point reference, with the
    largest magnitude among its values."""
    if theorem != "T2_2":
        spec = f

        def f(u):
            return abs(derivative(spec, u)) ** q
    rows = reference_rows(f, iv, GATE_GRID_N)
    reports = [check_convexity("gate", f, iv, s) for s in s_values]
    assert [(r.max_violation, r.witness) for r in reports] == [
        reference_report(rows, s) for s in s_values]
    scale = max(abs(v) for x, fx, y, fy, fcs in rows for v in (fx, fy, *fcs))
    return reports, scale


class TestPowerGate:
    """The rule of power_gate, one case at a time: K*u^rho with K of a
    sign and rho = num/den."""

    IV = Interval(0.5, 3.0)

    def test_zero_k_holds(self):
        for rho in ((3, 1), (0, 1), (-1, 2), (-5, 1)):
            for s in (0.25, 0.5, 1.0):
                assert power_gate(0, rho, self.IV, s) is True

    def test_positive_k_outside_minus_one_to_zero_holds(self):
        # K u^rho is then convex and nonnegative in w = 1/u
        for rho in ((0, 1), (1, 3), (7, 2), (-1, 1), (-3, 2), (-10 ** 30, 1)):
            for s in (0.25, 0.5, 1.0):
                assert power_gate(1, rho, self.IV, s) is True

    def test_positive_k_alpha_at_least_s_holds(self):
        # w^alpha, alpha >= s, is s-convex by subadditivity; alpha == s too
        for rho, s in (((-1, 2), 0.5), ((-1, 2), 0.25), ((-9, 10), 0.9),
                       ((-3, 4), 0.75), ((-999, 1000), 0.25)):
            assert power_gate(1, rho, self.IV, s) is True

    def test_positive_k_concave_at_s_one_fails(self):
        for rho in ((-1, 2), (-999, 1000), (-1, 10 ** 20)):
            assert power_gate(1, rho, self.IV, 1.0) is False

    def test_positive_k_below_s_searches(self):
        # the gate 0.95 u^-0.05 at s = 0.25: it fails on [1, 2^20], where
        # the search finds t = 0.995, and holds on [1, 2] and [1, 2^16]
        alpha = 0.05
        assert power_gate(1, (-1, 20), Interval(1.0, 2.0 ** 20), 0.25) is False
        holds, t = power_search(alpha, 0.25, Interval(1.0, 2.0 ** 20))
        assert holds is False and 0.99 < t < 0.999
        for b in (2.0, 2.0 ** 16):
            assert power_gate(1, (-1, 20), Interval(1.0, b), 0.25) is True

    def test_negative_k(self):
        # -f with f > 0 fails on the diagonal x = y for s < 1, whatever rho
        for rho in ((0, 1), (-1, 2), (-1, 1), (2, 1), (-3, 1)):
            assert power_gate(-1, rho, self.IV, 0.5) is False
        # at s = 1, -w^alpha is convex iff 0 <= alpha <= 1
        for rho, holds in (((0, 1), True), ((-1, 2), True), ((-1, 1), True),
                           ((1, 2), False), ((-3, 2), False)):
            assert power_gate(-1, rho, self.IV, 1.0) is holds

    def test_refuses_bad_s(self):
        for s in (0.0, 1.5, math.nan):
            with pytest.raises(DomainError):
                power_gate(1, (1, 1), self.IV, s)

    def test_phi_peaks_over_r_at_an_end(self):
        # phi(t, .) is quasi-convex and phi(t, 1) <= 0, so over a 2-D grid
        # the maximum in r never exceeds max(0, phi(t, R))
        cases = search_cases(12) + [(0.05, 0.25, Interval(1.0, 2.0 ** 20))]
        peaks = 0
        with mpmath.workdps(30):
            for alpha, s, iv in cases:
                ratio = mpmath.mpf(iv.b) / mpmath.mpf(iv.a)
                rs = [ratio ** (k / 16) for k in range(17)]
                for t in [k / 24 for k in range(1, 24)] + [0.995]:
                    end = max(0, phi(t, ratio, alpha, s))
                    peaks += end > 0
                    assert max(phi(t, r, alpha, s) for r in rs) <= end + 1e-25
        assert peaks > 0

    def test_every_failure_carries_a_witness(self):
        outcomes = []
        with mpmath.workdps(50):
            for alpha, s, iv in search_cases(300):
                holds, t = power_search(alpha, s, iv)
                outcomes.append(holds)
                ratio = mpmath.mpf(iv.b) / mpmath.mpf(iv.a)
                if holds is False:
                    assert phi(t, ratio, alpha, s) > 0, (alpha, s, iv, t)
                else:
                    assert t is None
        assert outcomes.count(False) >= 50 and outcomes.count(True) >= 50

    def test_holds_against_a_dense_scan(self):
        # where the search says holds, phi(t, R) <= 0 on a dense t grid,
        # log-spaced toward both ends where the edges are cleared
        ts = ([k / 200 for k in range(1, 200)]
              + [10.0 ** (-k / 4) for k in range(10, 80)])
        ts += [1.0 - t for t in ts]
        checked = 0
        with mpmath.workdps(30):
            for alpha, s, iv in search_cases(24):
                if power_search(alpha, s, iv)[0]:
                    checked += 1
                    ratio = mpmath.mpf(iv.b) / mpmath.mpf(iv.a)
                    assert max(phi(t, ratio, alpha, s) for t in ts) <= 0
        assert checked >= 10

    def test_agrees_with_every_matrix_gate(self):
        gates = 0
        for fn_id in MATRIX_FUNCTIONS:
            f = get_function(fn_id)
            for iv in map(Interval._make, MATRIX_INTERVALS):
                for q in MATRIX_Q_VALUES:
                    reports, _ = gate_table("T2_3", f, iv, q, MATRIX_S_VALUES)
                    for s, rep in zip(MATRIX_S_VALUES, reports):
                        gates += 1
                        assert (hypothesis_gate("T2_3", f, iv, s, q, None)
                                is rep.holds), (fn_id, iv, q, s)
        assert gates == 48

    def test_fails_wherever_the_table_clearly_fails(self):
        # one-sided over the verify_stream domain: a table violation above
        # 1e-9 of its largest value is no rounding, and the exact gate
        # must fail there too; the converse needs no test, as sampling
        # cannot prove convexity
        rng = random.Random(26)
        clear = 0
        for _ in range(300):
            theorem = rng.choice(("T2_2", "T2_3", "T2_6"))
            fn_id = rng.choice(("const:%.6g" % rng.uniform(-3.0, 3.0), "id",
                                "pow:%.6g" % rng.uniform(0.25, 3.0), "inv",
                                "neg"))
            f = get_function(fn_id)
            a = 2.0 ** rng.uniform(-2.0, 2.0)
            iv = Interval(a, a * rng.uniform(1.1, 4.0))
            s = rng.choice((0.25, 0.5, 0.75, 1.0))
            q = {"T2_2": None, "T2_3": rng.uniform(1.0, 4.0),
                 "T2_6": rng.uniform(1.25, 4.0)}[theorem]
            (rep,), scale = gate_table(theorem, f, iv, q, (s,))
            if rep.max_violation > 1e-9 * scale:
                clear += 1
                assert not hypothesis_gate(theorem, f, iv, s, q, None), (
                    theorem, fn_id, iv, s, q)
        assert clear >= 20


class TestSecondSense:
    """The exact s-convexity in the second sense of c*u^r, as
    proposition_implications decides it."""

    CASES = [(fn_id, iv, s)
             for fn_id in ("const:2", "const:-1.5", "id", "neg", "pow:0.05",
                           "pow:0.3", "pow:0.5", "pow:1.5", "pow:3", "inv")
             for iv in (Interval(0.5, 3.0), Interval(1e-3, 1e3))
             for s in (0.25, 0.5, 1.0)]

    def test_decision_against_a_dense_scan(self):
        # v = f(tx + (1-t)y) - t^s f(x) - (1-t)^s f(y) at 30 digits over a
        # dense grid: <= 0 up to the working precision wherever the decision
        # holds, and > 0 somewhere wherever it fails. The t grid is
        # symmetric, so pairs x <= y cover every (x, y); where the decision
        # comes from power_search, its witness t joins the grid
        ts = ([k / 40 for k in range(41)]
              + [10.0 ** -k for k in range(2, 9)]
              + [1.0 - 10.0 ** -k for k in range(2, 9)])
        outcomes = []
        with mpmath.workdps(30):
            for fn_id, iv, s in self.CASES:
                holds = second_sense(fn_id, iv, s)
                outcomes.append(holds)
                c, r = map(mpmath.mpf, get_function(fn_id)[1:])
                a, b = mpmath.mpf(iv.a), mpmath.mpf(iv.b)
                xs = [a * (b / a) ** (k / 6) for k in range(7)]
                grid = list(ts)
                if 0.0 < r < s < 1.0:
                    witness = power_search(float(r), s,
                                           Interval(1.0 / iv.b, 1.0 / iv.a))[1]
                    grid += [witness] if witness is not None else []
                weights = [(t, t ** s, (1 - t) ** s)
                           for t in map(mpmath.mpf, grid)]
                f = [c * x ** r for x in xs]
                scale = max(abs(v) for v in f)
                worst = max(
                    c * (t * xs[i] + (1 - t) * xs[j]) ** r
                    - wt * f[i] - wu * f[j]
                    for i in range(7) for j in range(i, 7)
                    for t, wt, wu in weights)
                if holds:
                    assert worst <= 1e-25 * scale, (fn_id, iv, s, worst)
                else:
                    assert worst > 0, (fn_id, iv, s)
        assert outcomes.count(True) >= 20 and outcomes.count(False) >= 10

    @pytest.mark.parametrize("fn_id,notion,x,t,printed", [
        ("pow:2", "second_sense", 933.3334, 0.3125, 1.1641532182693481e-10),
        ("pow:2", "harmonic", 933.3334, 0.3125, 1.1641532182693481e-10),
        ("pow:1.5", "harmonic", 333.334, 0.1875, 2.7284841053187847e-12),
        ("pow:3", "second_sense", 200.0008, 0.4375, 9.313225746154785e-10),
        ("pow:3", "harmonic", 466.6672, 0.0625, 4.470348358154297e-08)])
    def test_table_false_negatives(self, fn_id, notion, x, t, printed):
        # on [1e-3, 1e3] at s = 1 the 16-point table of each notion failed
        # these convex power laws on a diagonal row, where the combined
        # point does not round back to x; both exact notions hold, and the
        # exact v at the table's witness is 0
        iv = Interval(1e-3, 1e3)
        assert second_sense(fn_id, iv, 1.0) is True
        c, r = get_function(fn_id)[1:]
        assert power_gate(1, r.as_integer_ratio(), iv, 1.0) is True
        assert float_v(fn_id, notion, x, x, t, 1.0) == printed
        assert exact_v(fn_id, notion, x, x, t, 1.0) <= 0
        if notion == "harmonic":
            rep = scan(fn_id, iv, 1.0)
            assert (rep.max_violation, rep.witness) == (printed, (x, x, t))

    def test_table_false_positive(self):
        # u^0.05 is not 0.25-convex on [1e-3, 1e3], where the table of the
        # second sense reported 0.0: at x = a, y = b the search's witness
        # t = 0.99530 gives v = +0.00347 at 50 digits
        iv = Interval(1e-3, 1e3)
        assert second_sense("pow:0.05", iv, 0.25) is False
        holds, t = power_search(0.05, 0.25, Interval(1.0 / iv.b, 1.0 / iv.a))
        assert holds is False and abs(t - 0.99530) < 1e-5
        v = exact_v("pow:0.05", "second_sense", iv.a, iv.b, t, 0.25)
        assert abs(v - mpmath.mpf("0.0034714")) < 1e-7
