"""Shared pytest plumbing.

The acceptance tests each produce one PASS/FAIL line; fd-level capture would
hide those for passing tests, so they are collected here and replayed in the
terminal summary where they are always visible.

The verification battery runs once per session: the acceptance criteria and
the selftest rendering tests all read the rows of the `battery` fixture.
"""

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
