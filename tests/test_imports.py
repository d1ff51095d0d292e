"""Static checks of the package source: no module reaches into another
module's private names, no option is added by accident, and the CLI loads
no heavy module."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_public_api_pinned():
    # a public name is added or removed on purpose, by editing this list
    # in the same change
    assert sorted(hsconvex.__all__) == [
        "ConvexityReport", "DomainError", "FunctionSpec",
        "Interval", "NumericError", "QuadResult", "beta", "bound_row",
        "check_am_hm", "check_convexity", "classic_ostrowski_rhs",
        "derivative", "get_function", "harmonic_combination",
        "hh_harmonic_bounds", "hh_s_convex_bounds", "hyp2f1", "integrate",
        "lambda_consistency_rows", "lambda_value",
        "lemma_residual", "matrix_summary", "min_corollary_gap",
        "ostrowski_lhs", "ostrowski_rhs", "proposition_implications",
        "run_ostrowski_matrix", "verify_theorem", "weighted_mean"]


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


def named_tuple_fields(path: Path, name: str) -> tuple[str, ...]:
    """The annotated fields of the NamedTuple class `name` of path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ClassDef) and node.name == name:
            assert is_named_tuple(node)
            return tuple(stmt.target.id for stmt in node.body
                         if isinstance(stmt, ast.AnnAssign))
    raise AssertionError(f"no class {name} in {path.name}")


def spec_builders(path: Path) -> list[str]:
    """`<file>:<function>` for each call in path that builds a FunctionSpec,
    by its name or through one of its class methods."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Attribute) and func.attr in (
                        "_make", "__new__"):
                    func = func.value
                if ((isinstance(func, ast.Name) and func.id == "FunctionSpec")
                        or (isinstance(func, ast.Attribute)
                            and func.attr == "FunctionSpec")):
                    found.append(f"{path.name}:{where}")
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_one_function_type():
    # a function is the power law (fn_id, c, r), and only the registry
    # builds one, so f and f' follow the one rule of FunctionSpec and
    # derivative
    numeric = ROOT / "src" / "hsconvex" / "numeric.py"
    assert named_tuple_fields(numeric, "FunctionSpec") == ("fn_id", "c", "r")
    assert hsconvex.FunctionSpec._fields == ("fn_id", "c", "r")
    files = sorted((ROOT / "src" / "hsconvex").glob("*.py"))
    builders = [hit for f in files for hit in spec_builders(f)]
    assert set(builders) == {"numeric.py:get_function"}


def test_spec_builder_detector_finds_every_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from hsconvex import numeric\n"
                     "from hsconvex.numeric import FunctionSpec\n"
                     "A = FunctionSpec('a', 1.0, 1.0)\n"
                     "def f():\n    return numeric.FunctionSpec('b', 1.0, 2.0)\n"
                     "def g():\n    return FunctionSpec._make(('c', 1.0, 3.0))\n",
                     encoding="utf-8")
    assert spec_builders(probe) == ["probe.py:<module>", "probe.py:f",
                                    "probe.py:g"]


def test_settable_values_pinned():
    # each default is a value a caller may set; a new one must be added on
    # purpose, by raising this count in the same change
    files = sorted((ROOT / "src" / "hsconvex").glob("*.py"))
    assert sum(settable_values(f) for f in files) == 7


def test_settable_values_count_named_tuple_defaults(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import typing\nfrom typing import NamedTuple\n"
                     "class A(NamedTuple):\n    a: int\n    b: int = 1\n"
                     "class B(typing.NamedTuple):\n    c: int = 2\n"
                     "class C:\n    d: int = 3\n", encoding="utf-8")
    assert settable_values(probe) == 2


def integrate_callers(path: Path) -> set[str]:
    """`<file>:<name>` for each top-level function or class of path that
    calls integrate, by its name or as an attribute, itself or in a
    function nested in it; a call outside them is `<file>:<module>`. A call
    that passes anything but the three plain arguments (f, lo, hi) adds
    `<file>:<name>: <the call>` instead."""
    found = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and "integrate" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                site = f"{path.name}:{getattr(top, 'name', '<module>')}"
                plain = len(node.args) == 3 and not node.keywords and not any(
                    isinstance(arg, ast.Starred) for arg in node.args)
                found.add(site if plain else f"{site}: {ast.unparse(node)}")
    return found


# the quadrature oracle and the checks that hold a closed form against it
ORACLE_SITES = {"verify.py:lambda_document", "verify.py:lemma_residual",
                "verify.py:mean_fidelity"}


def test_quadrature_only_at_the_oracle_sites():
    # every value the package prints comes from a closed form: no value
    # path falls back to quadrature; and every site asks the oracle for
    # its one relative tolerance, passing none of its own
    files = sorted((ROOT / "src" / "hsconvex").glob("*.py"))
    assert set().union(*map(integrate_callers, files)) == ORACLE_SITES


def test_integrate_detector_finds_every_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from hsconvex import numeric\n"
                     "from hsconvex.numeric import integrate\n"
                     "A = integrate(abs, 0.0, 1.0)\n"
                     "def f():\n    def g():\n"
                     "        return numeric.integrate(abs, 0.0, 1.0)\n"
                     "    return g\n"
                     "class C:\n    def m(self):\n"
                     "        return integrate(abs, 0.0, 1.0)\n"
                     "def h():\n    return integrated(1)\n"
                     "def t():\n    return integrate(abs, 0.0, 1.0, 1e-13)\n"
                     "def k():\n    return integrate(abs, 0.0, 1.0, tol=1)\n"
                     "def r():\n    return integrate(*(abs, 0.0, 1.0))\n",
                     encoding="utf-8")
    assert integrate_callers(probe) == {
        "probe.py:<module>", "probe.py:f", "probe.py:C",
        "probe.py:t: integrate(abs, 0.0, 1.0, 1e-13)",
        "probe.py:k: integrate(abs, 0.0, 1.0, tol=1)",
        "probe.py:r: integrate(*(abs, 0.0, 1.0))"}


def memo_readers(path: Path) -> set[str]:
    """`<file>:<name>` for each top-level function or class of path that
    reads the lambda memo: calls `_LAMBDA_MEMO.get()` other than to compare
    the result, as `lambda_memo` does to find an enclosing block."""
    found = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        compared = {id(side) for node in ast.walk(top)
                    if isinstance(node, ast.Compare)
                    for side in (node.left, *node.comparators)}
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and id(node) not in compared
                    and getattr(node.func, "attr", None) == "get"
                    and getattr(getattr(node.func, "value", None), "id",
                                None) == "_LAMBDA_MEMO"):
                found.add(f"{path.name}:{getattr(top, 'name', '<module>')}")
    return found


def test_lambda_memo_has_one_reader():
    # the memo holds weight columns only: the one function that reads it
    # is the one that computes a column
    files = sorted((ROOT / "src" / "hsconvex").glob("*.py"))
    assert set().union(*map(memo_readers, files)) == {"bounds.py:lambda_column"}


def test_memo_reader_detector_skips_the_block_test(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f():\n    return _LAMBDA_MEMO.get()\n"
                     "def g():\n    if _LAMBDA_MEMO.get() is not None:\n"
                     "        return 1\n"
                     "class C:\n    def m(self):\n"
                     "        return _LAMBDA_MEMO.get() or {}\n"
                     "def h():\n    return memo.get()\n", encoding="utf-8")
    assert memo_readers(probe) == {"probe.py:f", "probe.py:C"}


def imported_modules(path: Path) -> set[str]:
    """Modules that path imports, relative ones with their leading dots."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add("." * node.level + (node.module or ""))
    return found


def test_test_extra_installs_what_the_tests_import():
    # `pip install .[test]` must leave the suite able to collect: each
    # module that tests/ and perfbench/ import is the standard library's,
    # the package's, one of those directories' own, or in the test extra
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    extra = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
             for req in project["optional-dependencies"]["test"]}
    files = sorted((ROOT / "tests").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py"))
    own = {f.stem for f in files} | {"hsconvex"}
    imported = {name.split(".")[0] for f in files
                for name in imported_modules(f) if not name.startswith(".")}
    assert sorted(imported - own - sys.stdlib_module_names - extra) == []


def test_special_functions_share_no_code_with_the_oracle():
    # the quadrature oracle holds the closed forms against their integrals,
    # which shows something only while specfn uses none of numeric
    specfn = ROOT / "src" / "hsconvex" / "specfn.py"
    assert imported_modules(specfn) == {"__future__", "math", "typing", ".errors"}


def test_no_module_draws_random_numbers():
    # every document depends on argv alone: no module imports random
    files = sorted((ROOT / "src" / "hsconvex").glob("*.py"))
    assert [f.name for f in files if "random" in imported_modules(f)] == []


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


# modules a CLI process has no use for: dataclasses imports the other three,
# and together they took about a third of the time of `import hsconvex.cli`
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis")


def test_cli_imports_no_heavy_module():
    code = ("import sys, hsconvex.cli; "
            f"print(sorted(set({HEAVY_MODULES!r}) & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         cwd=ROOT / "src").stdout
    assert out.strip() == "[]"
