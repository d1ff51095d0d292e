"""Command-line surface.

Five commands: `lambda` and `hh` and `ostrowski` compute values, `verify`
runs a gated slack scan for one theorem, and `selftest` runs the entire
verification battery. Exit codes are fixed: 0 success, 1 verification
failure, 2 usage or domain error; nothing else.

All floating-point output uses 17 significant digits so downstream tools
can diff and round-trip values exactly; identical invocations produce
byte-identical documents. A json document is written in one walk (_json,
with a list of records through one % template, _records), a csv one cell
by cell (_scalar); a non-finite float is refused with NumericError, the
first that a row-by-row walk meets, so exit 2 leaves stdout empty.

COMMANDS holds each command's help line, its function and its flags, each
flag as the option and keywords of one `add_argument` call. A request in
the canonical form `<command> --flag value ...` (every flag spelled in
full and given once, no value starting with '-') is read from that table
by _read, and builds no parser. Anything else goes to build_parser(),
which assembles all five as argparse subparsers from the same table and
is the only code that words help and usage errors. No parser, namespace
or value is kept between calls; _OPTIONS, _read's table, is a constant.
"""

from __future__ import annotations

import argparse
import math
import sys
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .bounds import (classic_ostrowski_rhs, hh_harmonic_bounds,
                     hh_s_convex_bounds, ostrowski_lhs, OSTROWSKI_THEOREMS,
                     ostrowski_rhs, resolve_exponents)
from .convexity import VIOLATION_TOL
from .errors import DomainError, NumericError
# integrate is not called here, but perfbench's tracer test reads the name
# from this module
from .numeric import (Interval, arithmetic_mean, derivative, get_function,
                      integrate)
from .verify import (ROW_FIELDS, VERIFY_THEOREMS, X_GRID_N, bound_row,
                     hypothesis_gate, lambda_document, run_battery,
                     verify_theorem)


def _scalar(v) -> str:
    """The text of a float, int, bool or csv string, the one rule of json
    and csv: a float in 17 significant digits (%.17g), a non-finite one
    refused, as the arithmetic behind it overflowed and neither format
    holds it."""
    if v.__class__ is float:
        if math.isfinite(v):
            return "%.17g" % v
        raise NumericError(f"non-finite value {v} in the document")
    if v is True:
        return "true"
    if v is False:
        return "false"
    return str(v)


def _records(rows: list) -> Optional[str]:
    """rows as JSON through one template if all are dicts with one key
    order, else None: a value that is one object in every row is written
    once, finite float columns fill %.17g slots, others %s slots of _json
    text. A refused value gives None, for the row-major walk to meet."""
    keys = list(rows[0]) if rows and rows[0].__class__ is dict else []
    if not all(row.__class__ is dict and list(row) == keys for row in rows):
        return None
    parts, columns = [], []
    try:
        for key, column in zip(keys, zip(*map(dict.values, rows))):
            head, first = encode_basestring_ascii(key) + ": ", column[0]
            if all(v is first for v in column):
                parts.append((head + _json(first)).replace("%", "%%"))
            elif (all(v.__class__ is float for v in column)
                  and math.isfinite(sum(column))):  # so no inf or nan
                parts.append(head.replace("%", "%%") + "%.17g")
                columns.append(column)
            else:
                parts.append(head.replace("%", "%%") + "%s")
                columns.append([_json(v) for v in column])
    except NumericError:
        return None
    template = "{" + ", ".join(parts) + "}"
    return "[" + ", ".join([template % values for values in
                            list(zip(*columns)) or [()] * len(rows)]) + "]"


def _json(obj) -> str:
    """obj, nested dicts and lists of scalars, as JSON with dict keys in
    insertion order: the stdlib encoder does not let floats be formatted,
    and the output contract fixes that format. None is null, a string is
    escaped as json.dumps does, any other scalar is written by _scalar,
    and a list of records is written through one template (_records)."""
    cls = obj.__class__
    if cls is float:
        return _scalar(obj)
    if cls is dict:
        return "{" + ", ".join([f"{encode_basestring_ascii(k)}: {_json(v)}"
                                for k, v in obj.items()]) + "}"
    if cls is list or cls is tuple:
        return _records(obj) or "[" + ", ".join([_json(v) for v in obj]) + "]"
    if obj is None:
        return "null"
    if cls is str:
        return encode_basestring_ascii(obj)
    return _scalar(obj)


def _document(ns: argparse.Namespace, header: Sequence[str],
              rows: list[dict], doc: dict) -> str:
    """The document in --format: rows under header as csv, a missing or
    None cell empty, or doc, which holds every row, as JSON. Either way
    every float is checked as it is written: outside rows, doc holds only
    validated inputs and the minimum of the row slacks."""
    if ns.format == "csv":
        return "\n".join([",".join(header)] + [
            ",".join("" if v is None else _scalar(v)
                     for v in map(row.get, header)) for row in rows])
    return _json(doc)


def _write(ns: argparse.Namespace, text: str) -> None:
    """Put text and a newline in the --out file, or on stdout."""
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


# ---------------------------------------------------------------- commands

def cmd_lambda(ns: argparse.Namespace) -> int:
    doc = lambda_document(ns.kind, ns.theta, ns.x, ns.s, ns.vartheta, ns.rho,
                          ns.check)
    header = ("kind", "theta", "x", "s", "vartheta", "rho",
              "value", "oracle", "rel_err")
    _write(ns, _document(ns, header, [doc], doc))
    return 0


def cmd_hh(ns: argparse.Namespace) -> int:
    f = get_function(ns.fn)
    left, middle, right = (
        hh_harmonic_bounds(f, Interval(ns.a, ns.b), ns.s)
        if ns.variant == "harmonic"
        else hh_s_convex_bounds(f, ns.a, ns.b, ns.s))
    payload = {
        "variant": ns.variant, "fn": f.fn_id, "a": ns.a, "b": ns.b, "s": ns.s,
        "left": left, "middle": middle, "right": right,
        "slack_left": middle - left, "slack_right": right - middle,
    }
    header = ("variant", "fn", "a", "b", "s", "left", "middle", "right",
              "slack_left", "slack_right")
    _write(ns, _document(ns, header, [payload], payload))
    return 0


def cmd_ostrowski(ns: argparse.Namespace) -> int:
    f = get_function(ns.fn)
    iv = Interval(ns.a, ns.b)
    q, p = resolve_exponents(ns.theorem, ns.q, ns.p)
    if ns.theorem == "classic":
        if ns.M is None:
            raise DomainError("classic needs --M (a bound on |f'|)")
        lhs = abs(f(ns.x) - arithmetic_mean(f, iv.a, iv.b))
        rhs = classic_ostrowski_rhs(ns.x, iv, ns.M)
        # the hypothesis here is |f'| <= M on [a, b]; |c*r*u^(r-1)| is
        # monotone, so its maximum sits at an endpoint
        worst = max(abs(derivative(f, iv.a)), abs(derivative(f, iv.b)))
        hyp_ok = worst <= ns.M + VIOLATION_TOL
    else:
        hyp_ok = hypothesis_gate(ns.theorem, f, iv, ns.s, q, ns.grid_gate)
        lhs = ostrowski_lhs(f, ns.x, iv)
        rhs, = ostrowski_rhs(ns.theorem, f, [ns.x], iv, ns.s, q, p, M=ns.M)
    row = bound_row(ns.theorem, ns.x, iv, ns.s, q, p, ns.M, lhs, rhs, hyp_ok)
    _write(ns, _document(ns, ROW_FIELDS, [row], row))
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    f = get_function(ns.fn)
    iv = Interval(ns.a, ns.b)
    doc = verify_theorem(ns.theorem, f, iv, ns.s, ns.q, ns.p,
                         x_grid=ns.grid, gate_grid_n=ns.grid_gate)
    _write(ns, _document(ns, ROW_FIELDS, doc["results"], doc))
    return 0 if doc["pass"] else 1


# ---------------------------------------------------------------- selftest

def cmd_selftest(ns: argparse.Namespace) -> int:
    """Render the rows of verify.run_battery. A --tol override replaces
    the limit of every err/slack row (count rows keep theirs); it must be
    finite and positive, and is refused before the battery runs. In json
    and csv a non-finite value, the -inf of a row whose gate failed, is
    None."""
    if ns.tol is not None and not 0.0 < ns.tol < math.inf:
        raise DomainError(f"--tol must be finite and positive, got {ns.tol}")
    checks = [c if ns.tol is None or c.kind == "count_min"
              else c._replace(limit=ns.tol) for c in run_battery()]
    n_pass = sum(c.passed for c in checks)
    all_pass = n_pass == len(checks)
    if ns.format == "table":
        width = max(len(c.name) for c in checks)
        text = "\n".join([f"{'PASS' if c.passed else 'FAIL'}  "
                          f"{c.name:<{width}}  value={c.value:.17g}  "
                          f"limit={c.limit:.17g}" for c in checks]
                         + [f"selftest: {n_pass}/{len(checks)} checks passed"])
    else:
        rows = [{"check": c.name, "kind": c.kind,
                 "value": c.value if math.isfinite(c.value) else None,
                 "limit": c.limit, "pass": c.passed} for c in checks]
        text = _document(ns, ("check", "kind", "value", "limit", "pass"),
                         rows, {"checks": rows, "pass": all_pass})
    _write(ns, text)
    return 0 if all_pass else 1


# ---------------------------------------------------------------- parser

# (option, add_argument keywords) of the output flags the commands share
_OUT = ("--out", dict(metavar="PATH", default=None,
                      help="write the document to PATH instead of stdout"))
_FORMAT_HELP = "output format (default %(default)s)"
_JSON_CSV = ("--format", dict(choices=("json", "csv"), default="json",
                              help=_FORMAT_HELP))

# name -> (help, command function, flags); each flag is the (option,
# keywords) of one add_argument call
COMMANDS = {
    "lambda": ("evaluate a lambda coefficient weight", cmd_lambda, (
        ("--kind", dict(type=int, required=True, choices=(1, 2, 3, 4, 5))),
        ("--theta", dict(type=float, required=True)),
        ("--x", dict(type=float, required=True)),
        ("--s", dict(type=float, default=None)),
        ("--vartheta", dict(type=float, default=None)),
        ("--rho", dict(type=float, default=None)),
        ("--check", dict(action="store_true",
                         help="also integrate the defining integrand to a "
                              "relative 1e-12 and report the discrepancy")),
        _OUT, _JSON_CSV)),
    "hh": ("evaluate a Hermite-Hadamard chain", cmd_hh, (
        ("--fn", dict(required=True, help="registry id, e.g. pow:0.5")),
        ("--a", dict(type=float, required=True)),
        ("--b", dict(type=float, required=True)),
        ("--s", dict(type=float, default=1.0)),
        ("--variant", dict(choices=("harmonic", "arithmetic"),
                           default="harmonic",
                           help="harmonic chain (weighted mean, default) or "
                                "the arithmetic-mean chain for s-convex "
                                "functions")),
        _OUT, _JSON_CSV)),
    "ostrowski": ("evaluate one bound instance at x", cmd_ostrowski, (
        ("--theorem", dict(required=True,
                           choices=("classic",) + OSTROWSKI_THEOREMS)),
        ("--fn", dict(required=True)),
        ("--a", dict(type=float, required=True)),
        ("--b", dict(type=float, required=True)),
        ("--x", dict(type=float, required=True)),
        ("--s", dict(type=float, default=1.0)),
        ("--q", dict(type=float, default=None)),
        ("--p", dict(type=float, default=None)),
        ("--M", dict(type=float, default=None,
                     help="derivative bound; replaces every |f'| magnitude")),
        ("--grid-gate", dict(type=int, default=None,
                             help="grid size per axis for the hypothesis "
                                  "gate")),
        _OUT, _JSON_CSV)),
    "verify": ("gate a theorem's hypothesis and scan its slack over an x "
               "grid", cmd_verify, (
        ("--theorem", dict(required=True, choices=VERIFY_THEOREMS)),
        ("--fn", dict(required=True)),
        ("--a", dict(type=float, required=True)),
        ("--b", dict(type=float, required=True)),
        ("--s", dict(type=float, default=1.0)),
        ("--q", dict(type=float, default=None)),
        ("--p", dict(type=float, default=None)),
        ("--grid", dict(type=int, default=X_GRID_N, help="number of x points")),
        ("--grid-gate", dict(type=int, default=None)),
        _OUT, _JSON_CSV)),
    "selftest": ("run the full verification battery", cmd_selftest, (
        ("--tol", dict(type=float, default=None,
                       help="replace every error/slack limit with this "
                            "value")),
        _OUT,
        ("--format", dict(choices=("table", "json", "csv"), default="table",
                          help=_FORMAT_HELP)))),
}
# command -> {option: add_argument keywords}, _read's view of COMMANDS
_OPTIONS = {name: dict(flags) for name, (_, _, flags) in COMMANDS.items()}


def build_parser() -> argparse.ArgumentParser:
    """The whole CLI: every command of COMMANDS as a subparser, with its
    function as `func`. It parses every argv _read declines (see _parse)."""
    parser = argparse.ArgumentParser(
        prog="hsconvex",
        description="Compute and verify integral-mean bounds for harmonically "
                    "s-convex functions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, flags) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for option, keywords in flags:
            command.add_argument(option, **keywords)
        command.set_defaults(func=func)
    return parser


def _read(argv: list[str]) -> Optional[argparse.Namespace]:
    """The namespace of `<command> --flag value ...` read straight from
    COMMANDS, or None for anything else: an abbreviated, repeated or
    unknown flag, a value that starts with '-', does not convert or is not
    a choice, or a required flag left out. argparse gives the same
    namespace for every argv read here; it parses the rest (_parse)."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, flags = COMMANDS[argv[0]]
    known, given = _OPTIONS[argv[0]], {}
    tokens = iter(argv[1:])
    for option in tokens:
        keywords = known.get(option)
        if keywords is None or option in given:
            return None
        if keywords.get("action") == "store_true":
            given[option] = True
            continue
        text = next(tokens, None)
        if text is None or text.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(text)
        except ValueError:
            return None
        choices = keywords.get("choices")
        if choices is not None and value not in choices:
            return None
        given[option] = value
    ns = argparse.Namespace(func=func)
    for option, keywords in flags:
        if option in given:
            value = given[option]
        elif keywords.get("required"):
            return None
        elif keywords.get("action") == "store_true":
            value = False
        else:
            value = keywords.get("default")
        setattr(ns, option[2:].replace("-", "_"), value)
    return ns


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace of argv: from _read when it can, else from the whole
    parser, which words every help text and usage error."""
    return _read(argv) or build_parser().parse_args(argv)


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
