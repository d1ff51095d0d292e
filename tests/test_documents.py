"""Byte pins of the documents the CLI writes.

Two kinds of pin: the SHA-256 of each selftest document, rendered from the
session battery through main, and one SHA-256 over a fixed corpus of
ordinary-range requests to the four value commands, in json and csv: the
argv, exit code, stdout and stderr of each. A change to the writer, the
parser or any value in range moves one of them.

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
        "05785ed8335e6bf57551a0f609c7c1344b9fe9fd46934e3d2815558657dfbff1",
    ("--format", "csv"):
        "86f6cfaf0d359435c08644fcf620e2e51660681409d6ea87863b46365f4d95c9",
    ():
        "55025faed8349aee6b13b9bda85245fdebb1623163c2dab529d00767512ace96",
    ("--tol", "1e-30"):
        "88ffbdb220c8148499782f5ea178e58982e8a0102e2f41b93fd7f80669f6597f",
}


@pytest.mark.parametrize("argv", list(SELFTEST_SHA256))
def test_selftest_document(battery, monkeypatch, capsys, argv):
    monkeypatch.setattr(cli, "run_battery", lambda: battery)
    main(["selftest", *argv])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SELFTEST_SHA256[argv]


def num(v: float) -> str:
    return format(v, ".6g")


def function_id(rng: random.Random) -> str:
    shape = rng.choice(("const", "id", "pow", "inv", "neg"))
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

CORPUS_SHA256 = ("9a18e0a88ed0092850261e8b8481d00b"
                 "aba9d8ea69f8812036d6154326b31e68")


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
