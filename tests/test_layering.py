"""The package's import layering: errors, core → mesh → scheme → analysis →
scenarios → cli.  A module imports only modules of earlier layers, and only
at module level, so no lazy import inside a function hides a cycle; the
package's ``__init__`` imports nothing, so importing a layer loads no later
one."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

LAYERS = ("errors", "core", "mesh", "scheme", "analysis", "scenarios", "cli")
# Found without importing the package, which a cycle would break.
PACKAGE = Path(importlib.util.find_spec("acidfront").origin).parent


def package_imports(tree):
    """(node, imported package module) for each import of an acidfront module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "acidfront":
                    yield node, alias.name.partition(".")[2]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "acidfront":
                continue
            module = node.module if node.level else node.module.partition(".")[2]
            if module:
                yield node, module.split(".")[0]
            else:
                for alias in node.names:
                    yield node, alias.name


def nested_imports(tree):
    """Import nodes that sit inside a function body."""
    for scope in ast.walk(tree):
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(scope):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield node


def violations(name: str, source: str) -> list[str]:
    tree = ast.parse(source)
    nested = set(nested_imports(tree))
    # the package's __init__ sits below every layer: it may import none
    rank = 0 if name == "__init__" else LAYERS.index(name)
    found = []
    for node, module in package_imports(tree):
        if node in nested:
            found.append(f"line {node.lineno}: imports {module or 'acidfront'} inside a function")
        elif module not in LAYERS or LAYERS.index(module) >= rank:
            found.append(f"line {node.lineno}: imports {module or 'acidfront'}, not an earlier layer")
    return found


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("name", ("__init__",) + LAYERS)
def test_imports_follow_the_layers(name):
    assert violations(name, (PACKAGE / f"{name}.py").read_text()) == []


@pytest.mark.parametrize("name", LAYERS)
def test_a_layer_imports_alone(name):
    code = (
        f"import sys, acidfront.{name}\n"
        "print(*(m for m in sys.modules if m.partition('.')[0] == 'acidfront'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    allowed = {"acidfront"} | {f"acidfront.{layer}" for layer in LAYERS[: LAYERS.index(name) + 1]}
    assert set(proc.stdout.split()) <= allowed


@pytest.mark.parametrize("name, source", [
    ("mesh", "from .scheme import run\n"),
    ("scheme", "from acidfront.analysis import tail_speed\n"),
    ("core", "from . import mesh\n"),
    ("analysis", "import acidfront.scenarios\n"),
    ("scheme", "from .scheme import run\n"),
    ("scenarios", "def f():\n    from .cli import main\n"),
    ("cli", "def f():\n    from .errors import ConfigurationError\n"),
    ("__init__", "async def f():\n    import acidfront.core\n"),
    ("__init__", "from .errors import ConfigurationError\n"),
])
def test_violations_are_caught(name, source):
    assert len(violations(name, source)) == 1
