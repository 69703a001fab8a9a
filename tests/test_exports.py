"""Every name a package lists in `__all__` resolves, so a name removed from
the library leaves its package's exports too."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _exports():
    """(module, name) for each name in a literal `__all__` under src/."""
    out = []
    for path in sorted((SRC / "chiralring").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                out += [(".".join(parts), name)
                        for name in ast.literal_eval(node.value)]
    return out


def test_exports_found():
    assert {module for module, _ in _exports()} >= {
        "chiralring.cdsw", "chiralring.rootsystem"}


@pytest.mark.parametrize("module,name", _exports())
def test_export_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
