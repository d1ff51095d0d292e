"""The README's library example and CLI examples run as written."""

import math
import re
import shlex
from pathlib import Path

from hsconvex.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def cli_examples(text: str) -> list[tuple[list[str], int]]:
    """The argv of each `$ hsconvex ...` line of the sh blocks, with the
    exit code it should give: 1 where its comment says `exit 1`, else 0."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```$", text, re.M | re.S):
        for line in block.splitlines():
            if line.startswith("$ hsconvex "):
                command, _, comment = line[len("$ hsconvex "):].partition("#")
                examples.append((shlex.split(command),
                                 1 if "exit 1" in comment else 0))
    return examples


def test_library_example_runs():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["report"]["pass"]
    assert abs(namespace["weight"] - (3.0 - 4.0 * math.log(2.0))) <= 1e-12


def test_finds_every_python_block():
    text = "```python\na = 1\n```\n```sh\nb\n```\n```python\nc = 2\n```\n"
    assert python_blocks(text) == ["a = 1\n", "c = 2\n"]


def test_cli_examples_run(capsys):
    examples = cli_examples(README.read_text(encoding="utf-8"))
    assert sorted(code for _, code in examples) == [0] * 8 + [1]
    for argv, code in examples:
        assert main(argv) == code, argv
        assert capsys.readouterr().err == "", argv


def test_finds_every_cli_example():
    text = ("```sh\n$ pip install -e .\n$ hsconvex hh --fn 'pow:2'  # a\n"
            "{\"left\": 1}\n```\n```python\n$ hsconvex no\n```\n"
            "```sh\n$ hsconvex selftest --tol 1e-30   # limits: exit 1\n```\n")
    assert cli_examples(text) == [(["hh", "--fn", "pow:2"], 0),
                                  (["selftest", "--tol", "1e-30"], 1)]
