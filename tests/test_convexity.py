"""Convexity checker, AM-HM comparison, and implication-grid tests."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsconvex.convexity import (VIOLATION_TOL, ConvexityMode, check_am_hm,
                                check_convexity, grid_monotone,
                                harmonic_combination,
                                proposition_implications, uniform_grid)
from hsconvex.errors import DomainError
from hsconvex.numeric import FunctionSpec, Interval, get_function


def reference_scan(viol, iv, grid_n, seed=None):
    """Evaluate viol at every triple of the scan, in its order: the grid
    ascending, then 64 seeded uniform triples; keep the first maximum."""
    xs = uniform_grid(iv.a, iv.b, grid_n)
    triples = [(x, y, t) for x in xs for y in xs
               for t in uniform_grid(0.0, 1.0, 17)]
    if seed is not None:
        rng = random.Random(seed)
        triples += [(rng.uniform(iv.a, iv.b), rng.uniform(iv.a, iv.b),
                     rng.random()) for _ in range(64)]
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

    def test_seeded_random_augmentation_deterministic(self):
        f = get_function("neg")
        iv = Interval(1.0, 2.0)
        r1 = check_convexity(f, iv, ConvexityMode.HARMONICALLY_S_CONVEX, 1.0,
                             seed=7)
        r2 = check_convexity(f, iv, ConvexityMode.HARMONICALLY_S_CONVEX, 1.0,
                             seed=7)
        assert r1.max_violation == r2.max_violation
        assert r1.witness == r2.witness
        assert r1.samples == r2.samples
        # random points on top of the grid
        r0 = check_convexity(f, iv, ConvexityMode.HARMONICALLY_S_CONVEX, 1.0)
        assert r1.samples > r0.samples

    @pytest.mark.parametrize("fn_id,s,seed", [("pow:2", 0.5, None),
                                              ("neg", 1.0, 7),
                                              ("pow:0.5", 0.75, 3)])
    def test_matches_defining_inequalities(self, fn_id, s, seed):
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
            rep = check_convexity(f, iv, mode, s, grid_n=8, seed=seed)
            assert ((rep.max_violation, rep.witness, rep.samples)
                    == reference_scan(viol, iv, 8, seed))

    def test_evaluates_each_node_once(self):
        points = []
        f = FunctionSpec("counted", lambda u: points.append(u) or u * u)
        check_convexity(f, Interval(1.0, 2.0),
                        ConvexityMode.HARMONICALLY_S_CONVEX, 0.5, grid_n=8)
        # one value per node, then one per triple at the combined point
        assert len(points) == 8 + 17 * 8 * 8

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


class TestAmHm:
    def test_grid_clean(self):
        rep = check_am_hm(Interval(0.5, 4.0), grid_n=32)
        assert rep.holds
        assert rep.max_violation <= VIOLATION_TOL

    def test_matches_comparison(self):
        iv = Interval(0.5, 4.0)
        rep = check_am_hm(iv, grid_n=8)
        ref = reference_scan(
            lambda x, y, t: harmonic_combination(x, y, t) - (t * y + (1.0 - t) * x),
            iv, 8)
        assert (rep.max_violation, rep.witness, rep.samples) == ref

    def test_sample_count(self):
        rep = check_am_hm(Interval(1.0, 2.0), grid_n=8)
        assert rep.samples == 8 * 8 * 17


class TestGridMonotone:
    def test_classifications(self):
        iv = Interval(1.0, 2.0)
        assert grid_monotone(get_function("id"), iv) == "nondecreasing"
        assert grid_monotone(get_function("inv"), iv) == "nonincreasing"
        assert grid_monotone(get_function("const:3"), iv) == "constant"
        wavy = FunctionSpec("wavy", lambda u: math.sin(6.0 * u))
        assert grid_monotone(wavy, iv) == "neither"


class TestPropositionImplications:
    def test_all_hold(self):
        rows = proposition_implications(
            ("const:2", "id", "pow:2", "pow:0.5", "inv", "neg"),
            (0.5, 1.0), Interval(0.5, 4.0), grid_n=16)
        assert rows, "implication grid must not be vacuous"
        assert all(r["holds"] for r in rows)
        assert all(r["consequent_violation"] <= VIOLATION_TOL for r in rows)

    def test_directions_present(self):
        rows = proposition_implications(("pow:2", "inv"), (1.0,),
                                        Interval(0.5, 4.0), grid_n=16)
        directions = {r["direction"] for r in rows}
        # pow:2 is convex nondecreasing (forward implication); inv is
        # harmonically affine and nonincreasing (reverse implication)
        assert "s_to_harmonic" in directions
        assert "harmonic_to_s" in directions
