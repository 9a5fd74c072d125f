"""The runtime stays standard-library only, and the demos run."""
import ast
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "vertexcalc")
DEMOS = os.path.join(ROOT, "demos")


def _absolute_imports(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    sources = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert sources
    allowed = set(sys.stdlib_module_names) | {"vertexcalc"}
    for name in sources:
        outside = set(_absolute_imports(os.path.join(PACKAGE, name))) - allowed
        assert not outside, (name, sorted(outside))


def test_pyproject_declares_no_runtime_dependencies():
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        text = fh.read()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)


def test_deltacalc_shares_no_arithmetic_with_route_two():
    # route 1 of the Jacobi check (deltacalc's window oracle) must not borrow
    # the series arithmetic that route 2 (rationalforms.three_term_series)
    # runs on
    path = os.path.join(PACKAGE, "deltacalc.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported.add(base)
            imported |= {f"{base}.{a.name}" for a in node.names}
    names = {part for name in imported for part in name.split(".") if part}
    assert imported and not names & {"series", "rationalforms"}, sorted(imported)


def test_series_builds_on_errors_and_scalars_alone():
    # the layers run scalars -> series -> rationalforms: the series kernels
    # take nothing from the package but its errors and exact scalars
    path = os.path.join(PACKAGE, "series.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.startswith("vertexcalc")}
        elif isinstance(node, ast.ImportFrom) and node.level:
            imported |= ({node.module} if node.module
                         else {a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("vertexcalc"):
            imported.add(node.module)
    names = {name.removeprefix("vertexcalc.") for name in imported}
    assert names == {"errors", "scalars"}, sorted(imported)


def _package_trees():
    """{file name: parsed module} of every source file of the package."""
    out = {}
    for name in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")):
        with open(os.path.join(PACKAGE, name)) as fh:
            out[name] = ast.parse(fh.read(), filename=name)
    return out


def _referenced_names(tree):
    """Every name a module reads, as a bare name or as an attribute."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_package_imports_no_name_it_never_uses():
    # __init__ imports to re-export: that is its public API
    unused = []
    for name, tree in _package_trees().items():
        if name == "__init__.py":
            continue
        used = _referenced_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used and alias.name != "annotations":
                        unused.append((name, bound))
    assert not unused, unused


def test_package_defines_no_private_name_it_never_references():
    trees = _package_trees()
    used = set().union(*map(_referenced_names, trees.values()))
    unreferenced = [
        (name, node.name) for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in used]
    assert not unreferenced, unreferenced


CACHES = {"cache", "lru_cache"}


def _process_wide_caches(path):
    """(function name or None, line) of every functools.cache / lru_cache use:
    the name of the function it decorates, None for any other use."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    modules, names = {"functools"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in CACHES}
    decorated = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                for sub in ast.walk(dec):
                    decorated[id(sub)] = node.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id in names) or (
                isinstance(node, ast.Attribute) and node.attr in CACHES
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            yield decorated.get(id(node)), node.lineno


def test_no_process_wide_caches_but_binom_and_the_parser():
    # a cache that outlives one command would be hit by in-process benchmark
    # repeats but never by a CLI run, which is one process per command
    found = set()
    for name in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")):
        for func, line in _process_wide_caches(os.path.join(PACKAGE, name)):
            found.add((name, func) if func else (name, line))
    assert found == {("scalars.py", "binom"), ("cli.py", "build_parser")}


@pytest.mark.parametrize(
    "demo", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
