"""Static checks of the package source: no module reaches into another
module's private names, and no option is added by accident."""

import ast
from pathlib import Path

import hsconvex

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


def test_package_exports_resolve_once():
    # a name left in __all__ after its definition is gone fails here
    names = hsconvex.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(hsconvex, n)] == []


def is_dataclass(node: ast.ClassDef) -> bool:
    return any((isinstance(d, ast.Name) and d.id == "dataclass")
               or (isinstance(d, ast.Call) and getattr(d.func, "id", "") == "dataclass")
               for d in node.decorator_list)


def is_named_tuple(node: ast.ClassDef) -> bool:
    return any((isinstance(b, ast.Name) and b.id == "NamedTuple")
               or (isinstance(b, ast.Attribute) and b.attr == "NamedTuple")
               for b in node.bases)


def settable_values(path: Path) -> int:
    """Defaulted parameters plus defaulted fields of the dataclasses and
    typing.NamedTuple classes of path."""
    count = 0
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and (is_dataclass(node)
                                                 or is_named_tuple(node)):
            count += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                         for stmt in node.body)
    return count


def test_settable_values_pinned():
    # each default is a value a caller may set; a new one must be added on
    # purpose, by raising this count in the same change
    files = sorted((ROOT / "src" / "hsconvex").glob("*.py"))
    assert sum(settable_values(f) for f in files) == 17


def test_settable_values_count_named_tuple_defaults(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import typing\nfrom typing import NamedTuple\n"
                     "class A(NamedTuple):\n    a: int\n    b: int = 1\n"
                     "class B(typing.NamedTuple):\n    c: int = 2\n"
                     "class C:\n    d: int = 3\n", encoding="utf-8")
    assert settable_values(probe) == 2


def imported_modules(path: Path) -> set[str]:
    """Modules that path imports, relative ones with their leading dots."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add("." * node.level + (node.module or ""))
    return found


def test_special_functions_share_no_code_with_the_oracle():
    # the quadrature oracle holds the closed forms against their integrals,
    # which shows something only while specfn uses none of numeric
    specfn = ROOT / "src" / "hsconvex" / "specfn.py"
    assert imported_modules(specfn) == {"__future__", "math", "typing", ".errors"}


def process_caches(path: Path) -> list[str]:
    """Uses of functools.cache or functools.lru_cache in path: a cache that
    lives as long as the process would carry one run's values into the next."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"{path.name}:{node.lineno}: {alias.name}"
                      for alias in node.names
                      if alias.name in ("cache", "lru_cache")]
        elif (isinstance(node, ast.Attribute)
              and node.attr in ("cache", "lru_cache")
              and isinstance(node.value, ast.Name)
              and node.value.id == "functools"):
            found.append(f"{path.name}:{node.lineno}: functools.{node.attr}")
    return found


def test_no_process_wide_caches():
    files = sorted((ROOT / "src" / "hsconvex").glob("*.py"))
    assert [hit for f in files for hit in process_caches(f)] == []


def test_cache_detector_finds_both_spellings(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import functools\nfrom functools import lru_cache\n"
                     "@functools.cache\ndef f(): pass\n", encoding="utf-8")
    assert process_caches(probe) == ["probe.py:2: lru_cache",
                                     "probe.py:3: functools.cache"]
