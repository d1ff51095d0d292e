"""Acceptance suite: eight go/no-go criteria for the whole package.

Each test prints exactly one PASS/FAIL line (written to the real stdout so
it stays visible under pytest's capture) and then asserts. Criteria 1-8
read the rows of one run of the verification battery (the session-scoped
`battery` fixture); criterion 8 also runs the CLI selftest end to end.
Tolerances, counts and runtime ceilings are stated inline next to each
check.
"""

import sys
import time

import pytest
from conftest import record_acceptance_line

from hsconvex.cli import main


@pytest.fixture
def row(battery):
    return {c.name: c for c in battery}.__getitem__


def _announce(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status} - {detail}"
    record_acceptance_line(line)
    print(line, file=sys.__stdout__)
    sys.__stdout__.flush()


def test_c1_lambda_closed_form_fidelity(row):
    # kinds 1-4 on the standard >= 240-point grid vs quadrature: rel <= 1e-8;
    # lambda5 grid (with points on both sides of its 2F1 cut) rel <= 1e-10;
    # runtime < 10 s
    k14, k5 = row("lambda_fidelity_kinds_1_4"), row("lambda5_fidelity")
    ok = (k14.cases >= 240 and k14.value <= 1e-8 and k5.value <= 1e-10
          and k14.elapsed_s < 10.0)
    _announce(1, ok, f"lambda fidelity: {k14.cases} kind-1..4 points "
                     f"max rel {k14.value:.3g} (<=1e-8), lambda5 max rel "
                     f"{k5.value:.3g} (<=1e-10), {k14.elapsed_s:.2f}s (<10s)")
    assert k14.cases >= 240
    assert k14.value <= 1e-8
    assert k5.value <= 1e-10
    assert k14.elapsed_s < 10.0


def test_c2_lemma_identity(row):
    # residual <= 1e-7*(1+|f(x)|) across 5 functions x 3 intervals x 9 x-points
    # (135 cases); runtime < 10 s
    c = row("lemma_identity")
    ok = c.cases == 135 and c.value <= 1e-7 and c.elapsed_s < 10.0
    _announce(2, ok, f"lemma identity: {c.cases} cases, max scaled residual "
                     f"{c.value:.3g} (<=1e-7), {c.elapsed_s:.2f}s (<10s)")
    assert c.cases == 135
    assert c.value <= 1e-7
    assert c.elapsed_s < 10.0


def test_c3_hermite_hadamard_chain(row):
    # x^s on [0.25,1] and [0.1,0.9] for s in {0.25,0.5,0.75,1}: every gate
    # passes and both chain slacks >= -1e-12 (a failed gate reads as -inf);
    # and both closed means (the chain's middle, and the arithmetic one)
    # of the 5 lemma functions on the 3 lemma intervals match quadrature
    # to 1e-10 relative
    chain, mean = row("hh_chain_slack"), row("mean_fidelity")
    ok = chain.value >= -1e-12 and mean.cases == 30 and mean.value <= 1e-10
    _announce(3, ok, f"harmonic chain: min slack {chain.value:.3g} (>=-1e-12) "
                     f"over {chain.cases} configs, closed means max rel "
                     f"{mean.value:.3g} (<=1e-10) over {mean.cases}")
    assert chain.value >= -1e-12
    assert mean.cases == 30
    assert mean.value <= 1e-10


def test_c4_ostrowski_matrix(row):
    # full sweep {registry fn} x {s in 0.5,1} x {q in 1,2; (p,q)=(2,2) for the
    # Holder pair theorems} x {[1,2],[0.5,3]} x 9 x-points: every gated
    # configuration has slack >= -1e-9 (no gated failure) and at least 5
    # distinct (theorem, fn) pairs pass the gate; runtime < 60 s
    slack, coverage = row("ostrowski_matrix_slack"), row("ostrowski_gate_coverage")
    ok = (slack.value >= -1e-9 and coverage.value >= 5
          and slack.elapsed_s < 60.0)
    _announce(4, ok, f"ostrowski matrix: {coverage.cases} configs, "
                     f"{slack.cases} gated, {coverage.value:.0f} distinct "
                     f"gated pairs (>=5), min slack {slack.value:.3g} "
                     f"(>=-1e-9), {slack.elapsed_s:.2f}s (<60s)")
    assert slack.value >= -1e-9
    assert coverage.value >= 5
    assert slack.elapsed_s < 60.0


def test_c5_corollary_monotonicity(row):
    # with M = max grid |f'| + 0.1, every corollary rhs dominates the
    # corresponding theorem rhs: gap >= -1e-12
    gap = row("corollary_monotonicity").value
    ok = gap >= -1e-12
    _announce(5, ok, f"corollary monotonicity: min gap {gap:.3g} (>=-1e-12)")
    assert gap >= -1e-12


def test_c6_classic_ostrowski(row):
    # f(x)=x, M=1 on [1,2]: |f(x) - mean| <= rhs at 33 grid points with
    # slack >= -1e-14
    c = row("classic_slack")
    ok = c.cases == 33 and c.value >= -1e-14
    _announce(6, ok, f"classic bound: min slack over {c.cases} points "
                     f"{c.value:.3g} (>=-1e-14)")
    assert c.cases == 33
    assert c.value >= -1e-14


def test_c7_implication_and_am_hm_grids(row):
    # the AM-HM comparison on a 32x32x17 grid, no violation beyond the grid
    # tolerance, and the two convexity implications decided exactly: no
    # consequent fails
    am_hm, n_impl = row("am_hm_grid"), row("proposition_nonvacuous")
    impl = row("proposition_implications")
    ok = am_hm.value <= 1e-12 and n_impl.value >= 1 and impl.value == 0.0
    _announce(7, ok, f"implication grids: am-hm max violation "
                     f"{am_hm.value:.3g} (<=1e-12), {n_impl.value:.0f} "
                     f"nonvacuous implications, {impl.value:.0f} failing "
                     f"consequents (0)")
    assert am_hm.cases == 32 * 32 * 17
    assert am_hm.value <= 1e-12
    assert n_impl.value >= 1
    assert impl.value == 0.0


def test_c8_special_functions_and_selftest(row, capsys):
    # 2F1(1,1;2;z) vs -ln(1-z)/z rel <= 1e-10 for z in {0.1..0.9}; beta
    # symmetric to 1e-13; the CLI selftest finishes < 60 s with exit 0
    worst_f, worst_b = row("hyp2f1_log_identity").value, row("beta_symmetry").value
    t0 = time.perf_counter()
    code = main(["selftest"])
    elapsed = time.perf_counter() - t0
    capsys.readouterr()  # swallow the selftest table
    ok = worst_f <= 1e-10 and worst_b <= 1e-13 and code == 0 and elapsed < 60.0
    _announce(8, ok, f"special functions + selftest: 2F1 log-identity max rel "
                     f"{worst_f:.3g} (<=1e-10), beta asymmetry {worst_b:.3g} "
                     f"(<=1e-13), selftest exit {code} in {elapsed:.2f}s (<60s)")
    assert worst_f <= 1e-10
    assert worst_b <= 1e-13
    assert code == 0
    assert elapsed < 60.0
