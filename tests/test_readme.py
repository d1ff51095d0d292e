"""The README's library example runs as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


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
