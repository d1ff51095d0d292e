"""Shared pytest plumbing.

The acceptance tests each produce one PASS/FAIL line; fd-level capture would
hide those for passing tests, so they are collected here and replayed in the
terminal summary where they are always visible.

The verification battery runs once per session: the acceptance criteria and
the selftest rendering tests all read the rows of the `battery` fixture.
"""

import math
import random

import mpmath
import pytest

from hsconvex import bounds
from hsconvex.bounds import lambda_value, lambda_z, ostrowski_rhs
from hsconvex.specfn import Gauss2F1, beta
from hsconvex.verify import lambda_document, run_battery

ACCEPTANCE_LINES: list[str] = []


def record_acceptance_line(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def battery():
    return run_battery()


def canary_lambda_value(kind: int, theta: float, x: float, s: float,
                        vartheta: float, rho: float) -> float:
    """lambda_value with the kind-2 front factor beta(rho+1, 1) in place of
    beta(rho+1, s+1): plausible-looking, equal at s = 0, and wrong for
    s > 0. The oracle comparison must catch it."""
    if kind != 2:
        return lambda_value(kind, theta, x, s, vartheta, rho)
    w = lambda_z(kind, theta, x, s, vartheta, rho)
    two_vt = 2.0 * vartheta
    front = beta(rho + 1.0, 1.0) / x ** two_vt
    return front * Gauss2F1(two_vt, rho + 1.0, rho + s + 2.0)(w)


def lambda5_oracle(theta: float, x: float) -> float:
    """lambda5's defining integral as the oracle takes it: the kind 1
    (theta <= x) or kind 3 weight at (s, vartheta, rho) = (0, 1, 1)."""
    return lambda_document(5, theta, x, None, None, None, True)["oracle"]


def rhs_at(theorem: str, f, x: float, *args, **kwargs) -> float:
    """The rhs of ostrowski_rhs at the one point x."""
    rhs, = ostrowski_rhs(theorem, f, [x], *args, **kwargs)
    return rhs


class RecordedGauss2F1(Gauss2F1):
    """A Gauss2F1 that keeps the w = 1 - z of each evaluation in `asked`."""

    def __init__(self, a: float, b: float, c: float):
        super().__init__(a, b, c)
        self.asked: list[float] = []

    def __call__(self, w: float) -> float:
        self.asked.append(w)
        return super().__call__(w)


def record_tables(monkeypatch) -> list[RecordedGauss2F1]:
    """Make lambda_value build RecordedGauss2F1 tables, and return the list
    of those it builds, in order."""
    tables = []

    def build(a: float, b: float, c: float) -> RecordedGauss2F1:
        tables.append(RecordedGauss2F1(a, b, c))
        return tables[-1]
    monkeypatch.setattr(bounds, "Gauss2F1", build)
    return tables


# distances of m = c - a - b from an integer: the logarithmic cases of the
# connection formulas, which the 2F1 continuation handles as any other m
M_OFFSETS = (0.0, 1e-14, -1e-10, 1e-6, -1e-3)


def lambda_shapes(seed: int, n: int) -> list[tuple]:
    """n tuples (kind, s, vartheta, rho, b, b2, c) of lambda kinds 1..4 with
    vartheta <= 6, rho <= 6 and s in [0, 1]; the weight is
    B(b, b2) 2F1(2 vartheta, b; c; z) / base^(2 vartheta). Every other
    tuple puts m = c - 2 vartheta - b an offset of M_OFFSETS from an
    integer."""
    rng = random.Random(seed)
    shapes = []
    while len(shapes) < n:
        kind, rho, s = rng.randint(1, 4), rng.uniform(0.0, 6.0), rng.random()
        b, b2 = {1: (rho + s + 1.0, 1.0), 2: (rho + 1.0, s + 1.0),
                 3: (1.0, rho + s + 1.0), 4: (s + 1.0, rho + 1.0)}[kind]
        c = rho + s + 2.0
        vartheta = rng.uniform(0.01, 6.0)
        if len(shapes) % 2:
            m = rng.randint(math.ceil(c - b - 12.0), math.floor(c - b))
            vartheta = (c - b - m - rng.choice(M_OFFSETS)) / 2.0
        if 0.0 < vartheta <= 6.0:
            shapes.append((kind, s, vartheta, rho, b, b2, c))
    return shapes


def mp_lambda(kind: int, theta: float, x: float, s, vartheta, rho):
    """The lambda weight of kind 1..5 at these floats, in mpmath: Beta and
    2F1 at 40 digits for kinds 1..4 (z formed in mpmath, not rounded), and
    lambda5's elementary form at 100 digits, which its cancellation near
    theta = x needs."""
    with mpmath.workdps(100 if kind == 5 else 40):
        t, u = mpmath.mpf(theta), mpmath.mpf(x)
        if kind == 5:
            d = u - t
            if d == 0:
                return 1 / (2 * u * u)
            return (d / t - mpmath.log(u / t)) / (d * d)
        b, b2 = {1: (rho + s + 1.0, 1.0), 2: (rho + 1.0, s + 1.0),
                 3: (1.0, rho + s + 1.0), 4: (s + 1.0, rho + 1.0)}[kind]
        base, z = (u, 1 - t / u) if kind in (1, 2) else (t, 1 - u / t)
        return (mpmath.beta(b, b2) / base ** (2 * vartheta)
                * mpmath.hyp2f1(2 * vartheta, b, rho + s + 2.0, z))
