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


@pytest.mark.parametrize(
    "demo", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
