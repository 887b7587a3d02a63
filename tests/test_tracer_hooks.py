"""The package names the benchmark's tracer rebinds still exist.

``perfbench/tracing.py`` wraps the functions in its ``TARGETS`` and must find
each binding in ``REQUIRED_REBINDINGS``; a rename in the package would only
show when the benchmark runs.  Both tables are read with ``ast``, so nothing
under ``perfbench/`` is imported and its environment settings stay unset.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _table(name: str) -> tuple:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING}")


TARGETS = _table("TARGETS")
REQUIRED_REBINDINGS = _table("REQUIRED_REBINDINGS")


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"acidfront.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module, path", TARGETS, ids=[f"{m}.{p}" for m, p in TARGETS])
def test_target_resolves(module, path):
    assert callable(_resolve(module, path))


@pytest.mark.parametrize("site", REQUIRED_REBINDINGS)
def test_rebinding_site_holds_the_traced_function(site):
    _, module, attr = site.split(".")
    homes = [m for m, path in TARGETS if path == attr]
    assert len(homes) == 1, f"{attr} should be one traced function, found in {homes}"
    binding = getattr(importlib.import_module(f"acidfront.{module}"), attr, None)
    assert binding is _resolve(homes[0], attr)
