"""No module reaches into another module's private names."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def private_imports(path: Path, package_level: bool) -> list[str]:
    """`from <mod> import _<name>` lines of path: relative imports when
    package_level, else imports from the hsconvex package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if package_level:
            relevant = node.level > 0
        else:
            relevant = (node.module or "").split(".")[0] == "hsconvex"
        found += [f"{path.name}:{node.lineno}: {alias.name}"
                  for alias in node.names
                  if relevant and alias.name.startswith("_")]
    return found


def test_no_private_imports_in_package():
    files = sorted((ROOT / "src" / "hsconvex").glob("*.py"))
    assert files
    assert [hit for f in files for hit in private_imports(f, True)] == []


def test_no_private_imports_in_tests():
    files = sorted((ROOT / "tests").glob("*.py"))
    assert [hit for f in files for hit in private_imports(f, False)] == []
