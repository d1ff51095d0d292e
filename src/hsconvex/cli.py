"""Command-line surface.

Five commands: `lambda` and `hh` and `ostrowski` compute values, `verify`
runs a gated slack scan for one theorem, and `selftest` runs the entire
verification battery. Exit codes are fixed: 0 success, 1 verification
failure, 2 usage or domain error; nothing else.

All floating-point output uses 17 significant digits so downstream tools
can diff and round-trip values exactly; identical invocations produce
byte-identical documents.

COMMANDS holds each command's help line and the function that adds its
flags. A request builds the parser of the command it names and nothing
else. build_parser() assembles all five as subparsers for `hsconvex
--help` and for the usage errors only it can word: no command, an unknown
command, a flag the command does not have. Help and usage errors read the
same either way. No parser is kept between calls.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Optional, Sequence

from .bounds import (classic_ostrowski_rhs, hh_harmonic_bounds,
                     hh_s_convex_bounds, lambda5, lambda5_integrand,
                     lambda_integrand, lambda_value, ostrowski_lhs,
                     OSTROWSKI_THEOREMS, ostrowski_rhs, resolve_exponents)
from .convexity import GATE_GRID_N, VIOLATION_TOL, uniform_grid
from .errors import DomainError, NumericError
from .numeric import DEFAULT_TOL, Interval, derivative, get_function, integrate
from .verify import (ROW_FIELDS, VERIFY_THEOREMS, X_GRID_N, bound_row,
                     hypothesis_gate, run_battery, verify_theorem)


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _to_json(obj) -> str:
    """Minimal deterministic JSON emitter with 17-significant-digit floats.

    The stdlib encoder does not allow overriding float formatting, and the
    output contract here fixes it, so the few shapes we emit are handled
    directly. Dict keys keep insertion order. A non-finite float, which
    JSON cannot hold, is written as null (the value of a selftest row
    whose gate failed is -inf).
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
        return _fmt(obj) if math.isfinite(obj) else "null"
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


def _require_finite(obj) -> None:
    """Raise NumericError on a non-finite float anywhere in a document of
    dicts, lists and scalars: the arithmetic behind it overflowed."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise NumericError(f"non-finite value {obj} in the document")
    elif isinstance(obj, dict):
        for v in obj.values():
            _require_finite(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _require_finite(v)


def _emit_document(ns: argparse.Namespace, header: Sequence[str],
                   rows: list[dict], doc: dict) -> None:
    """Write a value command's document: rows under header as csv, or doc,
    which holds every row, as JSON. Nothing is written when a value is
    not finite (_require_finite)."""
    _require_finite(doc)
    if ns.format == "csv":
        _emit(_csv_doc(header, rows), ns.out)
    else:
        _emit(_to_json(doc), ns.out)


# ---------------------------------------------------------------- commands

def cmd_lambda(ns: argparse.Namespace) -> int:
    if ns.kind == 5:
        if not (ns.s is None and ns.vartheta is None and ns.rho is None):
            raise DomainError("kind 5 takes no --s, --vartheta or --rho")
        value = lambda5(ns.theta, ns.x)
        integrand, oracle_tol = lambda5_integrand(ns.theta, ns.x), 1e-13
    else:
        if ns.s is None or ns.vartheta is None or ns.rho is None:
            raise DomainError(f"kind {ns.kind} needs --s, --vartheta and --rho")
        args = (ns.kind, ns.theta, ns.x, ns.s, ns.vartheta, ns.rho)
        value = lambda_value(*args)
        integrand, oracle_tol = lambda_integrand(*args), 1e-12
    payload = {"kind": ns.kind, "theta": ns.theta, "x": ns.x, "s": ns.s,
               "vartheta": ns.vartheta, "rho": ns.rho, "value": value}
    if ns.check:
        if value == 0.0:
            raise NumericError("the value underflows to 0.0, so it has no "
                               "relative error to check")
        oracle = integrate(integrand, 0.0, 1.0, oracle_tol).value
        payload["oracle"] = oracle
        payload["rel_err"] = abs(value - oracle) / abs(value)
    header = ("kind", "theta", "x", "s", "vartheta", "rho",
              "value", "oracle", "rel_err")
    _emit_document(ns, header, [payload], payload)
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
    header = ("variant", "fn", "a", "b", "s", "left", "middle", "right",
              "slack_left", "slack_right")
    _emit_document(ns, header, [payload], payload)
    return 0


def cmd_ostrowski(ns: argparse.Namespace) -> int:
    f = get_function(ns.fn)
    iv = Interval(ns.a, ns.b)
    q, p = resolve_exponents(ns.theorem, ns.q, ns.p)
    if ns.theorem == "classic":
        if ns.M is None:
            raise DomainError("classic needs --M (a bound on |f'|)")
        mean = integrate(f, iv.a, iv.b, ns.tol).value / (iv.b - iv.a)
        lhs = abs(f(ns.x) - mean)
        rhs = classic_ostrowski_rhs(ns.x, iv, ns.M)
        # the hypothesis here is |f'| <= M on [a, b]; check it on a grid
        worst = max(abs(derivative(f, u)) for u in uniform_grid(iv.a, iv.b, 33))
        hyp_ok = worst <= ns.M + VIOLATION_TOL
    else:
        hyp_ok = hypothesis_gate(ns.theorem, f, iv, ns.s, q,
                                 ns.grid_gate, ns.seed).holds
        lhs = ostrowski_lhs(f, ns.x, iv, ns.tol)
        rhs = ostrowski_rhs(ns.theorem, f, ns.x, iv, ns.s, q, p, M=ns.M)
    row = bound_row(ns.theorem, ns.x, iv, ns.s, q, p, ns.M, lhs, rhs, hyp_ok)
    _emit_document(ns, ROW_FIELDS, [row], row)
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    f = get_function(ns.fn)
    iv = Interval(ns.a, ns.b)
    doc = verify_theorem(ns.theorem, f, iv, ns.s, ns.q, ns.p,
                         x_grid=ns.grid, gate_grid_n=ns.grid_gate,
                         seed=ns.seed, tol=ns.tol)
    _emit_document(ns, ROW_FIELDS, doc["results"], doc)
    return 0 if doc["pass"] else 1


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


def _lambda_flags(p: argparse.ArgumentParser) -> None:
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


def _hh_flags(p: argparse.ArgumentParser) -> None:
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


def _ostrowski_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theorem", required=True,
                   choices=("classic",) + OSTROWSKI_THEOREMS)
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
    p.add_argument("--grid-gate", type=int, default=GATE_GRID_N,
                   help="grid size per axis for the hypothesis gate")
    p.add_argument("--seed", type=int, default=None,
                   help="adds seeded random samples to the hypothesis gate")
    _add_output_flags(p)
    p.set_defaults(func=cmd_ostrowski)


def _verify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theorem", required=True,
                   choices=VERIFY_THEOREMS)
    p.add_argument("--fn", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--grid", type=int, default=X_GRID_N,
                   help="number of x points")
    p.add_argument("--grid-gate", type=int, default=GATE_GRID_N)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify)


def _selftest_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=None,
                   help="replace every error/slack limit with this value")
    _add_output_flags(p, formats=("table", "json", "csv"))
    p.set_defaults(func=cmd_selftest)


# name -> (help, fill): fill adds one command's flags to its parser
COMMANDS = {
    "lambda": ("evaluate a lambda coefficient weight", _lambda_flags),
    "hh": ("evaluate a Hermite-Hadamard chain", _hh_flags),
    "ostrowski": ("evaluate one bound instance at x", _ostrowski_flags),
    "verify": ("gate a theorem's hypothesis and scan its slack over an x "
               "grid", _verify_flags),
    "selftest": ("run the full verification battery", _selftest_flags),
}


def build_parser() -> argparse.ArgumentParser:
    """The whole CLI: every command of COMMANDS as a subparser. It parses
    `hsconvex --help`, argv that names no known command, and argv with a
    flag its command does not have (see _parse)."""
    parser = argparse.ArgumentParser(
        prog="hsconvex",
        description="Compute and verify integral-mean bounds for harmonically "
                    "s-convex functions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fill) in COMMANDS.items():
        fill(sub.add_parser(name, help=help_text))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv with a parser of the command it names alone, built as
    build_parser() builds its subparser, so --help and errors read the
    same. Anything else, and flags that command does not know, go to the
    whole parser, which reports them as `hsconvex` always has."""
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"hsconvex {argv[0]}")
        COMMANDS[argv[0]][1](parser)
        ns, extra = parser.parse_known_args(argv[1:])
        if not extra:
            return ns
    return build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        ns = _parse(sys.argv[1:] if argv is None else list(argv))
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
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
