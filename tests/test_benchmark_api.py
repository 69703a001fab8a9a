"""The benchmark in perfbench/ imports names from the package (run.API)
and wraps others in its traced run (tracer.TARGETS).  Both tables are read
from their files without running them, and every name must still resolve,
so a rename in src/ fails here and not only in the benchmark's own tests."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _literal(filename, name):
    """The literal value assigned to a module-level name in a file."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("%s not assigned in %s" % (name, filename))


def _names():
    api = [(module, attr) for module, attrs in _literal("run.py", "API").items()
           for attr in attrs]
    targets = [(module, attr)
               for module, attr, _ in _literal("tracer.py", "TARGETS")]
    return api + targets


@pytest.mark.parametrize("module,attr", _names())
def test_benchmark_name_resolves(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
