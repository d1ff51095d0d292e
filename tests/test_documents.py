"""Byte pins of the documents the CLI writes.

Three kinds of pin: the SHA-256 of each selftest document, rendered from
the session battery through main, one SHA-256 over a fixed corpus of
ordinary-range requests to the four value commands, and one over requests
whose hypothesis gate is scanned on a --grid-gate grid; each corpus in json
and csv, hashing the argv, exit code, stdout and stderr of each request. A
change to the writer, the parser, the gate scan or any value in range moves
one of them.

The hashes depend on the libm of the machine that computed them (x86-64
Linux, glibc): pow, log and lgamma may round differently under another
libm, and there these pins can fail while the program is right.
"""

import hashlib
import random

import pytest

from hsconvex import cli
from hsconvex.cli import main

SELFTEST_SHA256 = {
    ("--format", "json"):
        "2825abcea7fded410c584cb21d6d5a18fd18d8fdd297872ca2e750dc66e2509d",
    ("--format", "csv"):
        "def3c4eca068bdf9c5afc0acbd470615fd5bca4a18dea20c3513d94747885f19",
    ():
        "f780bedf9a217226095cb5a638a8df90aef54ebd41ea5ce0ad6e6ed6fa6f21d3",
    ("--tol", "1e-30"):
        "90549b07c04377a38347b3f0b003893a61c357d2c28b0c3913b66af9a392ce2b",
}


@pytest.mark.parametrize("argv", list(SELFTEST_SHA256))
def test_selftest_document(battery, monkeypatch, capsys, argv):
    monkeypatch.setattr(cli, "run_battery", lambda: battery)
    main(["selftest", *argv])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SELFTEST_SHA256[argv]


def num(v: float) -> str:
    return format(v, ".6g")


SHAPES = ("const", "id", "pow", "inv", "neg")


def function_id(rng: random.Random) -> str:
    return shaped_id(rng, rng.choice(SHAPES))


def shaped_id(rng: random.Random, shape: str) -> str:
    """A registry id of the given shape, its constant or exponent drawn."""
    if shape == "const":
        return "const:" + num(rng.uniform(-3.0, 3.0))
    if shape == "pow":
        return "pow:" + num(rng.uniform(0.25, 3.0))
    return shape


def interval(rng: random.Random) -> tuple[float, float]:
    a = 2.0 ** rng.uniform(-2.0, 2.0)
    return a, a * rng.uniform(1.1, 4.0)


def lambda_request(rng: random.Random) -> list[str]:
    kind = rng.randint(1, 5)
    x = 2.0 ** rng.uniform(-2.0, 2.0)
    ratio = rng.uniform(0.5, 1.0)
    theta = x * ratio if kind in (1, 2) else x / ratio
    argv = ["lambda", "--kind", str(kind), "--theta", num(theta),
            "--x", num(x)]
    if kind != 5:
        argv += ["--s", num(rng.uniform(0.0, 1.0)),
                 "--vartheta", num(rng.uniform(0.5, 3.0)),
                 "--rho", num(rng.uniform(0.0, 3.0))]
    return argv + (["--check"] if rng.random() < 0.5 else [])


def hh_request(rng: random.Random) -> list[str]:
    a, b = interval(rng)
    return ["hh", "--fn", function_id(rng), "--a", num(a), "--b", num(b),
            "--s", num(rng.uniform(0.05, 1.0)),
            "--variant", rng.choice(("harmonic", "arithmetic"))]


def exponents(rng: random.Random, theorem: str) -> list[str]:
    if theorem in ("T2_6", "T2_7"):
        return [rng.choice(("--q", "--p")), num(rng.uniform(1.25, 4.0))]
    if theorem in ("T2_2", "classic"):
        return []
    return ["--q", num(rng.uniform(1.0, 4.0))]


def ostrowski_request(rng: random.Random) -> list[str]:
    theorem = rng.choice(("classic", "T2_3", "T2_4", "T2_5", "T2_6", "T2_7"))
    a, b = interval(rng)
    argv = ["ostrowski", "--theorem", theorem, "--fn", function_id(rng),
            "--a", num(a), "--b", num(b), "--x", num(rng.uniform(a, b)),
            "--s", num(rng.choice((0.25, 0.5, 0.75, 1.0)))]
    argv += exponents(rng, theorem)
    if theorem == "classic" or rng.random() < 0.25:
        argv += ["--M", num(rng.uniform(0.5, 5.0))]
    return argv


def verify_request(rng: random.Random) -> list[str]:
    theorem = rng.choice(("T2_2", "T2_3", "T2_4", "T2_5", "T2_6", "T2_7"))
    a, b = interval(rng)
    argv = ["verify", "--theorem", theorem, "--fn", function_id(rng),
            "--a", num(a), "--b", num(b),
            "--s", num(rng.choice((0.25, 0.5, 0.75, 1.0)))]
    return argv + exponents(rng, theorem) + ["--grid", str(rng.randint(1, 9))]


# requests that end in a failed gate (exit 1) or a domain error (exit 2)
EDGE_REQUESTS = [
    ["verify", "--theorem", "T2_3", "--fn", "pow:0.5", "--a", "1", "--b", "2",
     "--s", "1", "--q", "1"],
    ["verify", "--theorem", "T2_2", "--fn", "neg", "--a", "1", "--b", "2"],
    ["verify", "--theorem", "T2_3", "--fn", "id", "--a", "1", "--b", "2"],
    ["lambda", "--kind", "1", "--theta", "2", "--x", "1", "--s", "1",
     "--vartheta", "1", "--rho", "1"],
    ["hh", "--fn", "exp", "--a", "1", "--b", "2"],
    ["ostrowski", "--theorem", "T2_4", "--fn", "id", "--a", "1", "--b", "2",
     "--x", "3", "--q", "2"],
    ["ostrowski", "--theorem", "classic", "--fn", "id", "--a", "1", "--b",
     "2", "--x", "1.5"],
]

CORPUS_SHA256 = ("93eeee20d5bd7286034cde85082debd3"
                 "c27e9a6ed97cc4e19d5286beace8ce46")


def corpus() -> list[list[str]]:
    """48 requests of each value command per format, drawn from one seeded
    generator, then EDGE_REQUESTS in both formats."""
    rng = random.Random(2013)
    makers = (lambda_request, hh_request, ostrowski_request, verify_request)
    return [make(rng) + ["--format", fmt] for fmt in ("json", "csv")
            for _ in range(48) for make in makers] + [
        argv + ["--format", fmt] for argv in EDGE_REQUESTS
        for fmt in ("json", "csv")]


def test_corpus_digest(capsys):
    digest, codes = hashlib.sha256(), set()
    for argv in corpus():
        code = main(argv)
        captured = capsys.readouterr()
        codes.add(code)
        digest.update(repr((argv, code, captured.out, captured.err)).encode())
    assert codes == {0, 1, 2}
    assert digest.hexdigest() == CORPUS_SHA256


GATE_THEOREMS = ("T2_3", "T2_4", "T2_5", "T2_6", "T2_7")

# sampled gates that fail: |f'|^q = (0.5 u^-0.5)^q is not harmonically
# 1-convex, and -u is not 0.5-convex
GATE_FAIL_REQUESTS = [
    ["verify", "--theorem", "T2_3", "--fn", "pow:0.5", "--a", "1", "--b", "2",
     "--s", "1", "--q", "1", "--grid-gate", "16"],
    ["verify", "--theorem", "T2_2", "--fn", "neg", "--a", "0.5", "--b", "3",
     "--s", "0.5", "--grid-gate", "5"],
    ["ostrowski", "--theorem", "T2_4", "--fn", "pow:0.5", "--a", "1", "--b",
     "4", "--x", "2", "--s", "1", "--q", "1.5", "--grid-gate", "3"],
]

# gate tables that overflow: u ** 2 past u = 1.3e154, and |3u^2|^2 at the
# first node of [1e154, 1e155]
GATE_EDGE_REQUESTS = [
    ["verify", "--theorem", "T2_2", "--fn", "pow:2", "--a", "1e150", "--b",
     "1e160", "--s", "1", "--grid-gate", "16"],
    ["verify", "--theorem", "T2_3", "--fn", "pow:3", "--a", "1e154", "--b",
     "1e155", "--s", "1", "--q", "2", "--grid-gate", "16"],
    ["ostrowski", "--theorem", "T2_3", "--fn", "pow:3", "--a", "1e154",
     "--b", "1e155", "--x", "5e154", "--q", "1.0000001", "--grid-gate", "3"],
]

GRID_GATE_SHA256 = ("4f479c78b8f087b071c1832c02ed56fe"
                    "2a2993c0a6c14c3b58ba639e763f5d03")


def grid_gate_request(rng: random.Random, command: str, shape: str) -> list[str]:
    theorems = GATE_THEOREMS + (("T2_2",) if command == "verify" else ())
    theorem = rng.choice(theorems)
    a, b = interval(rng)
    argv = [command, "--theorem", theorem, "--fn", shaped_id(rng, shape),
            "--a", num(a), "--b", num(b)]
    if command == "ostrowski":
        argv += ["--x", num(rng.uniform(a, b))]
    argv += ["--s", num(rng.choice((0.25, 0.5, 0.75, 1.0)))]
    return argv + exponents(rng, theorem) + [
        "--grid-gate", str(rng.randint(3, 16))]


def grid_gate_corpus() -> list[list[str]]:
    """Two verify requests and one ostrowski request of each registry
    shape, each with a sampled gate of 3 to 16 nodes per axis, then
    GATE_FAIL_REQUESTS and GATE_EDGE_REQUESTS; all in both formats."""
    rng = random.Random(5201)
    requests = [grid_gate_request(rng, command, shape) for shape in SHAPES
                for command in ("verify", "verify", "ostrowski")]
    return [argv + ["--format", fmt] for argv in
            requests + GATE_FAIL_REQUESTS + GATE_EDGE_REQUESTS
            for fmt in ("json", "csv")]


def test_grid_gate_digest(capsys):
    digest, codes, gates = hashlib.sha256(), set(), set()
    for argv in grid_gate_corpus():
        code = main(argv)
        captured = capsys.readouterr()
        codes.add(code)
        if argv[-1] == "json" and code != 2:
            gates.add('"hypothesis_ok": true' in captured.out)
        digest.update(repr((argv, code, captured.out, captured.err)).encode())
    assert codes == {0, 1, 2}
    assert gates == {True, False}
    assert digest.hexdigest() == GRID_GATE_SHA256
