"""Shared pytest plumbing.

The acceptance tests each produce one PASS/FAIL line; fd-level capture would
hide those for passing tests, so they are collected here and replayed in the
terminal summary where they are always visible.

The verification battery runs once per session: the acceptance criteria and
the selftest rendering tests all read the rows of the `battery` fixture.
"""

import math
import random

import pytest

from hsconvex.bounds import LambdaArgs, lambda_value
from hsconvex.specfn import beta, hyp2f1
from hsconvex.verify import run_battery

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


def canary_lambda_value(args: LambdaArgs) -> float:
    """lambda_value with the kind-2 front factor beta(rho+1, 1) in place of
    beta(rho+1, s+1): plausible-looking, equal at s = 0, and wrong for
    s > 0. The oracle comparison must catch it."""
    if args.kind != 2:
        return lambda_value(args)
    two_vt = 2.0 * args.vartheta
    front = beta(args.rho + 1.0, 1.0) / args.x ** two_vt
    return front * hyp2f1(two_vt, args.rho + 1.0, args.rho + args.s + 2.0,
                          args.z)


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
