"""The benchmark in perfbench/ imports names from the package (run.API)
and wraps others in its traced run (tracer.TARGETS).  Both tables are read
from their files without running them, and every name must still resolve,
so a rename in src/ fails here and not only in the benchmark's own tests."""

import ast
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

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


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _api():
    """The package's names as the benchmark imports them (run.API)."""
    return SimpleNamespace(**{
        attr: getattr(importlib.import_module(module), attr)
        for module, attrs in _literal("run.py", "API").items()
        for attr in attrs})


@pytest.mark.parametrize("seed", [0, 11])
def test_benchmark_modular_ops_get_expected_answers(seed):
    """Every operation of every small workload, called as the benchmark
    calls it: op.call(api, ws, mode) with the names of run.API, one
    workspace per algebra, and FieldMode.modular(seed) for the modular
    S-power operations (FieldMode.exact() for the rest).  Each must get
    the answer of workloads.EXPECTED."""
    from chiralring.exactla import FieldMode
    from chiralring.rootsystem import build_root_system, chevalley_data

    api = _api()
    exact, modular = FieldMode.exact(), FieldMode.modular(seed)
    workloads = _workloads()
    ops = [op for ops in workloads.TINY.values() for op in ops]
    assert any(op.modular for op in ops)
    workspaces = {key: api.Workspace(chevalley_data(build_root_system(t, r)))
                  for key, t, r in workloads.algebras(ops)}
    for op in ops:
        answer = op.call(api, workspaces.get(op.algebra),
                         modular if op.modular else exact)
        assert answer == workloads.EXPECTED[op.key], op.name


def test_benchmark_exact_ops_in_reverse_order():
    """The small ideal-exact workload run backwards on one set of
    workspaces, so each operation finds spans the ones listed after it
    left behind: every answer is still that of workloads.EXPECTED."""
    from chiralring.exactla import FieldMode
    from chiralring.rootsystem import build_root_system, chevalley_data

    api = _api()
    workloads = _workloads()
    ops = workloads.TINY["ideal-exact"][::-1]
    workspaces = {key: api.Workspace(chevalley_data(build_root_system(t, r)))
                  for key, t, r in workloads.algebras(ops)}
    for op in ops:
        answer = op.call(api, workspaces.get(op.algebra), FieldMode.exact())
        assert answer == workloads.EXPECTED[op.key], op.name
