"""Convexity checker, AM-HM comparison, and implication-grid tests."""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsconvex.convexity import (GATE_GRID_N, T_GRID, VIOLATION_TOL,
                                ConvexityMode, check_am_hm, check_convexity,
                                grid_monotone, harmonic_combination,
                                power_gate, power_search,
                                proposition_implications, tabulate,
                                uniform_grid)
from hsconvex.errors import DomainError
from hsconvex.numeric import FunctionSpec, Interval, get_function
from hsconvex.verify import (MATRIX_FUNCTIONS, MATRIX_INTERVALS,
                             MATRIX_Q_VALUES, MATRIX_S_VALUES,
                             hypothesis_gate)


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
        check_convexity(get_function("inv"), Interval(1e-200, 1e-180),
                        ConvexityMode.HARMONICALLY_S_CONVEX, 1.0)

    def test_normal_products_keep_the_product_form(self):
        rng = random.Random(8)
        for _ in range(200):
            x, y = rng.uniform(0.01, 100.0), rng.uniform(0.01, 100.0)
            for t in T_GRID[1:-1]:
                assert harmonic_combination(x, y, t) == \
                    x * y / (t * x + (1.0 - t) * y)


class TestCheckConvexity:
    def test_sqrt_is_s_convex_half(self):
        rep = check_convexity(get_function("pow:0.5"), Interval(0.5, 4.0),
                              ConvexityMode.S_CONVEX_SECOND_SENSE, 0.5)
        assert rep.holds
        assert rep.max_violation <= VIOLATION_TOL

    def test_constant_equality_at_corners(self):
        # a constant under s=1 gives equality, so max violation is ~0 and
        # the witness sits at a t endpoint
        rep = check_convexity(get_function("const:2"), Interval(1.0, 2.0),
                              ConvexityMode.HARMONICALLY_S_CONVEX, 1.0)
        assert rep.holds
        assert rep.max_violation == 0.0
        assert rep.witness[2] in (0.0, 1.0)

    def test_neg_violates_harmonic_convexity(self):
        rep = check_convexity(get_function("neg"), Interval(1.0, 2.0),
                              ConvexityMode.HARMONICALLY_S_CONVEX, 1.0)
        assert not rep.holds
        # worst violation on the grid: (y - hc) at x=1, y=2, t=0.5 is 1/6
        assert rep.max_violation >= 1.0 / 6.0 - 1e-12
        x, y, t = rep.witness
        assert 1.0 <= x <= 2.0 and 1.0 <= y <= 2.0 and 0.0 <= t <= 1.0

    def test_inv_is_harmonically_convex(self):
        # 1/x is harmonically affine: violation exactly 0 up to rounding
        rep = check_convexity(get_function("inv"), Interval(0.5, 4.0),
                              ConvexityMode.HARMONICALLY_S_CONVEX, 1.0)
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

        def second_sense(x, y, t):
            return (f(t * x + (1.0 - t) * y)
                    - (t ** s * f(x) + (1.0 - t) ** s * f(y)))

        for mode, viol in ((ConvexityMode.HARMONICALLY_S_CONVEX, harmonic),
                           (ConvexityMode.S_CONVEX_SECOND_SENSE, second_sense)):
            if grid_n is None:
                rep = check_convexity(f, iv, mode, s)
            else:
                rep = check_convexity(f, iv, mode, s, grid_n=grid_n)
            assert ((rep.max_violation, rep.witness, rep.samples)
                    == reference_scan(viol, iv, grid_n or GATE_GRID_N))

    def test_evaluates_each_node_once(self, monkeypatch):
        points = []
        f = FunctionSpec(fn_id="counted",
                         eval_fn=lambda u: points.append(u) or u * u,
                         deriv_fn=None, power=None)
        calls = []
        call = FunctionSpec.__call__
        monkeypatch.setattr(FunctionSpec, "__call__",
                            lambda spec, x: calls.append(x) or call(spec, x))
        iv = Interval(1.0, 2.0)
        rep = check_convexity(f, iv, ConvexityMode.HARMONICALLY_S_CONVEX, 0.5,
                              grid_n=8)
        # one value per node, then one per triple of the canonical half at
        # the combined point: 28 pairs x < y over the 15 t in (0, 1), 8
        # pairs x == y over the 8 t in (0, 1/2]; at t = 0 and t = 1 that
        # point is a node. samples still counts the full grid
        assert len(points) == 8 + 28 * 15 + 8 * 8 == 492
        assert rep.samples == 8 * 8 * 17
        # the arithmetic scan takes as many; every point goes through
        # FunctionSpec.values, none through a per-point call
        points.clear()
        check_convexity(f, iv, ConvexityMode.S_CONVEX_SECOND_SENSE, 0.5,
                        grid_n=8)
        assert len(points) == 492
        grid_monotone(f, iv)
        assert len(points) == 492 + 32
        assert calls == []

    @pytest.mark.parametrize("mode", list(ConvexityMode))
    def test_one_table_serves_every_s(self, mode):
        f = get_function("pow:0.5")
        iv = Interval(0.5, 3.0)
        table = tabulate(f, iv, mode, 8)
        for s in (0.25, 0.5, 0.75, 1.0):
            assert table.report(s) == check_convexity(f, iv, mode, s,
                                                      grid_n=8)
        with pytest.raises(DomainError):
            table.report(1.5)

    def test_scan_cap_refuses_before_evaluating(self):
        class Started(Exception):
            pass

        points = []

        def first_eval(u):
            points.append(u)
            raise Started

        f = FunctionSpec(fn_id="counted", eval_fn=first_eval, deriv_fn=None,
                         power=None)
        iv = Interval(1.0, 2.0)
        mode = ConvexityMode.HARMONICALLY_S_CONVEX
        # grid_n = 256 is admitted: the scan starts evaluating ...
        with pytest.raises(Started):
            check_convexity(f, iv, mode, 1.0, grid_n=256)
        assert len(points) == 1
        # ... a grid past the cap is refused before f is evaluated once
        for grid_n in (257, 100000):
            with pytest.raises(DomainError):
                check_convexity(f, iv, mode, 1.0, grid_n=grid_n)
        assert len(points) == 1

    def test_rejects_bad_parameters(self):
        f = get_function("id")
        iv = Interval(1.0, 2.0)
        with pytest.raises(DomainError):
            check_convexity(f, iv, ConvexityMode.HARMONICALLY_S_CONVEX, 0.0)
        with pytest.raises(DomainError):
            check_convexity(f, iv, ConvexityMode.HARMONICALLY_S_CONVEX, 1.5)
        with pytest.raises(DomainError):
            check_convexity(f, iv, ConvexityMode.HARMONICALLY_S_CONVEX, 1.0,
                            grid_n=2)


class TestBulkTable:
    """tabulate and report against the scan evaluated point by point."""

    @staticmethod
    def reference(f, iv, mode, grid_n, s):
        harmonic = mode is ConvexityMode.HARMONICALLY_S_CONVEX
        combine = harmonic_combination if harmonic else (
            lambda x, y, t: t * x + (1.0 - t) * y)

        def weigh(t):
            wt, wr = t ** s, (1.0 - t) ** s
            return (wr, wt) if harmonic else (wt, wr)

        xs = uniform_grid(iv.a, iv.b, grid_n)
        # the canonical half in scan order: pairs i <= j, t <= 1/2 on i == j
        pairs = [(xs[i], xs[j], T_GRID[:9] if j == i else T_GRID)
                 for i in range(grid_n) for j in range(i, grid_n)]
        rows = [(x, f(x), y, f(y), [f(combine(x, y, t)) for t in ts])
                for x, y, ts in pairs]
        best, witness = -math.inf, (xs[0], xs[0], 0.0)
        for (x, fx, y, fy, fcs), (_, _, ts) in zip(rows, pairs):
            for t, fc in zip(ts, fcs):
                wx, wy = weigh(t)
                v = fc - (wx * fx + wy * fy)
                if v > best:
                    best, witness = v, (x, y, t)
        return rows, best, witness

    @pytest.mark.parametrize("iv", [Interval(1.0, 2.0), Interval(0.5, 3.0),
                                    Interval(1e-200, 1e-180),
                                    Interval(1e200, 1e201)])
    @pytest.mark.parametrize("fn_id", ["pow:0.5", "inv", "neg", "gate"])
    def test_bit_identical_to_the_point_by_point_scan(self, fn_id, iv):
        if fn_id == "gate":
            # |f'|^3 for f = pow:1.5, built like the gate of a theorem
            deriv_fn = get_function("pow:1.5").deriv_fn
            f = FunctionSpec(fn_id="|pow:1.5'|^3",
                             eval_fn=lambda u: abs(deriv_fn(u)) ** 3.0,
                             deriv_fn=None, power=None)
        else:
            f = get_function(fn_id)
        for mode in ConvexityMode:
            table = tabulate(f, iv, mode, 16)
            for s in (0.25, 0.5, 1.0):
                rows, best, witness = self.reference(f, iv, mode, 16, s)
                assert table.rows == rows
                rep = table.report(s)
                assert rep.max_violation == best
                assert rep.witness == witness


class TestAmHm:
    def test_grid_clean(self):
        rep = check_am_hm(Interval(0.5, 4.0))
        assert rep.holds
        assert rep.max_violation <= VIOLATION_TOL

    def test_matches_comparison(self):
        iv = Interval(0.5, 4.0)
        rep = check_am_hm(iv)
        ref = reference_scan(
            lambda x, y, t: harmonic_combination(x, y, t) - (t * y + (1.0 - t) * x),
            iv, 32)
        assert (rep.max_violation, rep.witness, rep.samples) == ref

    def test_sample_count(self):
        rep = check_am_hm(Interval(1.0, 2.0))
        assert rep.samples == 32 * 32 * 17


class TestGridMonotone:
    def test_classifications(self):
        iv = Interval(1.0, 2.0)
        assert grid_monotone(get_function("id"), iv) == "nondecreasing"
        assert grid_monotone(get_function("inv"), iv) == "nonincreasing"
        assert grid_monotone(get_function("const:3"), iv) == "constant"
        wavy = FunctionSpec(fn_id="wavy", eval_fn=lambda u: math.sin(6.0 * u),
                            deriv_fn=None, power=None)
        assert grid_monotone(wavy, iv) == "neither"


class TestPropositionImplications:
    def test_all_hold(self):
        rows = proposition_implications(
            ("const:2", "id", "pow:2", "pow:0.5", "inv", "neg"),
            (0.5, 1.0), Interval(0.5, 4.0))
        assert rows, "implication grid must not be vacuous"
        assert all(r["holds"] for r in rows)
        assert all(r["consequent_violation"] <= VIOLATION_TOL for r in rows)

    def test_directions_present(self):
        rows = proposition_implications(("pow:2", "inv"), (1.0,),
                                        Interval(0.5, 4.0))
        directions = {r["direction"] for r in rows}
        # pow:2 is convex nondecreasing (forward implication); inv is
        # harmonically affine and nonincreasing (reverse implication)
        assert "s_to_harmonic" in directions
        assert "harmonic_to_s" in directions


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


def gate_table(theorem, f, iv, q):
    """The sampled gate of `theorem` for f on its default grid, with the
    largest magnitude among its values."""
    if theorem != "T2_2":
        deriv_fn = f.deriv_fn
        f = FunctionSpec(fn_id="gate",
                         eval_fn=lambda u: abs(deriv_fn(u)) ** q,
                         deriv_fn=None, power=None)
    table = tabulate(f, iv, ConvexityMode.HARMONICALLY_S_CONVEX, GATE_GRID_N)
    scale = max(abs(v) for x, fx, y, fy, fcs in table.rows
                for v in (fx, fy, *fcs))
    return table, scale


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
                    table, _ = gate_table("T2_3", f, iv, q)
                    for s in MATRIX_S_VALUES:
                        gates += 1
                        assert (hypothesis_gate("T2_3", f, iv, s, q, None)
                                is table.report(s).holds), (fn_id, iv, q, s)
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
            table, scale = gate_table(theorem, f, iv, q)
            if table.report(s).max_violation > 1e-9 * scale:
                clear += 1
                assert not hypothesis_gate(theorem, f, iv, s, q, None), (
                    theorem, fn_id, iv, s, q)
        assert clear >= 20
