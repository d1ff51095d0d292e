"""Command-line surface.

Five commands: `lambda` and `hh` and `ostrowski` compute values, `verify`
runs a gated slack scan for one theorem, and `selftest` runs the entire
verification battery. Exit codes are fixed: 0 success, 1 verification
failure, 2 usage or domain error; nothing else.

All floating-point output uses 17 significant digits so downstream tools
can diff and round-trip values exactly; identical invocations produce
byte-identical documents.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

from .bounds import (CSV_FIELDS, BoundResult, LambdaArgs,
                     classic_ostrowski_rhs, hh_harmonic_bounds,
                     hh_s_convex_bounds, lambda5, lambda5_integrand,
                     lambda_integrand, lambda_value, ostrowski_lhs,
                     ostrowski_rhs, resolve_exponents)
from .convexity import VIOLATION_TOL, uniform_grid
from .errors import DomainError, NumericError
from .numeric import DEFAULT_TOL, Interval, derivative, get_function, integrate
from .verify import hypothesis_gate, run_battery, verify_theorem


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _to_json(obj) -> str:
    """Minimal deterministic JSON emitter with 17-significant-digit floats.

    The stdlib encoder does not allow overriding float formatting, and the
    output contract here fixes it, so the few shapes we emit are handled
    directly. Dict keys keep insertion order.
    """
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_to_json(v)}"
                               for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, float):
        return _fmt(v)
    return str(v)


def _csv_doc(header: Sequence[str], rows: list[dict]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(k)) for k in header))
    return "\n".join(lines)


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


# ---------------------------------------------------------------- commands

def cmd_lambda(ns: argparse.Namespace) -> int:
    if ns.kind == 5:
        value = lambda5(ns.theta, ns.x)
        integrand, oracle_tol = lambda5_integrand(ns.theta, ns.x), 1e-13
        payload = {"kind": 5, "theta": ns.theta, "x": ns.x,
                   "s": None, "vartheta": None, "rho": None, "value": value}
    else:
        if ns.s is None or ns.vartheta is None or ns.rho is None:
            raise DomainError(f"kind {ns.kind} needs --s, --vartheta and --rho")
        args = LambdaArgs(ns.kind, ns.theta, ns.x, ns.s, ns.vartheta, ns.rho)
        value = lambda_value(args)
        integrand, oracle_tol = lambda_integrand(args), 1e-12
        payload = {"kind": ns.kind, "theta": ns.theta, "x": ns.x,
                   "s": ns.s, "vartheta": ns.vartheta, "rho": ns.rho,
                   "value": value}
    if ns.check:
        oracle = integrate(integrand, 0.0, 1.0, oracle_tol).value
        payload["oracle"] = oracle
        payload["rel_err"] = abs(value - oracle) / abs(value)
    if ns.format == "csv":
        header = ("kind", "theta", "x", "s", "vartheta", "rho",
                  "value", "oracle", "rel_err")
        _emit(_csv_doc(header, [payload]), ns.out)
    else:
        _emit(_to_json(payload), ns.out)
    return 0


def cmd_hh(ns: argparse.Namespace) -> int:
    f = get_function(ns.fn)
    if ns.variant == "harmonic":
        left, middle, right = hh_harmonic_bounds(f, Interval(ns.a, ns.b),
                                                 ns.s, ns.tol)
    else:
        left, middle, right = hh_s_convex_bounds(f, ns.a, ns.b, ns.s, ns.tol)
    payload = {
        "variant": ns.variant, "fn": f.fn_id, "a": ns.a, "b": ns.b, "s": ns.s,
        "left": left, "middle": middle, "right": right,
        "slack_left": middle - left, "slack_right": right - middle,
    }
    if ns.format == "csv":
        header = ("variant", "fn", "a", "b", "s", "left", "middle", "right",
                  "slack_left", "slack_right")
        _emit(_csv_doc(header, [payload]), ns.out)
    else:
        _emit(_to_json(payload), ns.out)
    return 0


def cmd_ostrowski(ns: argparse.Namespace) -> int:
    f = get_function(ns.fn)
    iv = Interval(ns.a, ns.b)
    if ns.theorem == "classic":
        if ns.M is None:
            raise DomainError("classic needs --M (a bound on |f'|)")
        mean = integrate(f, iv.a, iv.b, ns.tol).value / (iv.b - iv.a)
        lhs = abs(f(ns.x) - mean)
        rhs = classic_ostrowski_rhs(ns.x, iv, ns.M)
        # the hypothesis here is |f'| <= M on [a, b]; check it on a grid
        worst = max(abs(derivative(f, u)) for u in uniform_grid(iv.a, iv.b, 33))
        hyp_ok = worst <= ns.M + VIOLATION_TOL
        result = BoundResult("classic", ns.x, iv.a, iv.b, ns.s, None, None,
                             ns.M, lhs=lhs, rhs=rhs, slack=rhs - lhs,
                             hypothesis_ok=hyp_ok,
                             fd_fallback=f.deriv_fn is None)
    else:
        q_val, pair = resolve_exponents(ns.theorem, (ns.q, ns.p))
        p_val = pair.p if pair else None
        gate = hypothesis_gate(ns.theorem, f, iv, ns.s, q_val, ns.grid_gate,
                               ns.seed)
        lhs = ostrowski_lhs(f, ns.x, iv, ns.tol)
        rhs = ostrowski_rhs(ns.theorem, f, ns.x, iv, ns.s, pair or q_val,
                            M=ns.M)
        result = BoundResult(ns.theorem, ns.x, iv.a, iv.b, ns.s, q_val, p_val,
                             ns.M, lhs=lhs, rhs=rhs, slack=rhs - lhs,
                             hypothesis_ok=gate.holds,
                             fd_fallback=f.deriv_fn is None and ns.M is None)
    if ns.format == "csv":
        _emit(_csv_doc(CSV_FIELDS, [result.to_dict()]), ns.out)
    else:
        _emit(_to_json(result.to_dict()), ns.out)
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    f = get_function(ns.fn)
    iv = Interval(ns.a, ns.b)
    q_val, pair = resolve_exponents(ns.theorem, (ns.q, ns.p))
    report = verify_theorem(ns.theorem, f, iv, ns.s, pair or q_val,
                            x_grid=ns.grid, gate_grid_n=ns.grid_gate,
                            seed=ns.seed, tol=ns.tol)
    if ns.format == "csv":
        _emit(_csv_doc(CSV_FIELDS, [r.to_dict() for r in report.results]), ns.out)
    else:
        _emit(_to_json(report.to_dict()), ns.out)
    return 0 if report.passed else 1


# ---------------------------------------------------------------- selftest

def cmd_selftest(ns: argparse.Namespace) -> int:
    """Render the rows of verify.run_battery. A --tol override replaces
    the limit of every err/slack row (count rows keep theirs)."""
    checks = []
    for c in run_battery():
        if ns.tol is not None and c.kind != "count_min":
            c = dataclasses.replace(c, limit=ns.tol)
        checks.append({"check": c.name, "kind": c.kind, "value": c.value,
                       "limit": c.limit, "pass": c.passed})
    n_pass = sum(1 for c in checks if c["pass"])
    all_pass = n_pass == len(checks)
    if ns.format == "json":
        _emit(_to_json({"checks": checks, "pass": all_pass}), ns.out)
    elif ns.format == "csv":
        header = ("check", "kind", "value", "limit", "pass")
        _emit(_csv_doc(header, checks), ns.out)
    else:
        width = max(len(c["check"]) for c in checks)
        lines = []
        for c in checks:
            status = "PASS" if c["pass"] else "FAIL"
            lines.append(f"{status}  {c['check']:<{width}}  "
                         f"value={_fmt(c['value'])}  limit={_fmt(c['limit'])}")
        lines.append(f"selftest: {n_pass}/{len(checks)} checks passed")
        _emit("\n".join(lines), ns.out)
    return 0 if all_pass else 1


# ---------------------------------------------------------------- parser

def _add_output_flags(p: argparse.ArgumentParser, formats=("json", "csv")) -> None:
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the document to PATH instead of stdout")
    p.add_argument("--format", choices=formats, default=formats[0],
                   help="output format (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsconvex",
        description="Compute and verify integral-mean bounds for harmonically "
                    "s-convex functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambda", help="evaluate a lambda coefficient weight")
    p.add_argument("--kind", type=int, required=True, choices=(1, 2, 3, 4, 5))
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--vartheta", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--check", action="store_true",
                   help="also integrate the defining integrand and report "
                        "the relative discrepancy")
    _add_output_flags(p)
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("hh", help="evaluate a Hermite-Hadamard chain")
    p.add_argument("--fn", required=True, help="registry id, e.g. pow:0.5")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--variant", choices=("harmonic", "arithmetic"),
                   default="harmonic",
                   help="harmonic chain (weighted mean, default) or the "
                        "arithmetic-mean chain for s-convex functions")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_output_flags(p)
    p.set_defaults(func=cmd_hh)

    p = sub.add_parser("ostrowski", help="evaluate one bound instance at x")
    p.add_argument("--theorem", required=True,
                   choices=("classic", "T2_3", "T2_4", "T2_5", "T2_6", "T2_7"))
    p.add_argument("--fn", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--M", type=float, default=None,
                   help="derivative bound; replaces every |f'| magnitude")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--grid-gate", type=int, default=16,
                   help="grid size per axis for the hypothesis gate")
    p.add_argument("--seed", type=int, default=None,
                   help="adds seeded random samples to the hypothesis gate")
    _add_output_flags(p)
    p.set_defaults(func=cmd_ostrowski)

    p = sub.add_parser("verify", help="gate a theorem's hypothesis and scan "
                                      "its slack over an x grid")
    p.add_argument("--theorem", required=True,
                   choices=("T2_2", "T2_3", "T2_4", "T2_5", "T2_6", "T2_7"))
    p.add_argument("--fn", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--grid", type=int, default=9, help="number of x points")
    p.add_argument("--grid-gate", type=int, default=16)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("selftest", help="run the full verification battery")
    p.add_argument("--tol", type=float, default=None,
                   help="replace every error/slack limit with this value")
    _add_output_flags(p, formats=("table", "json", "csv"))
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits itself on usage errors (status 2) and --help (0);
        # fold that into the return-code contract instead of raising
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return ns.func(ns)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
