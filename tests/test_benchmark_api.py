"""The benchmark in perfbench/ imports names from the package (run.API)
and wraps others in its traced run (tracer.TARGETS).  Both tables are read
from their files without running them, and every name must still resolve,
so a rename in src/ fails here and not only in the benchmark's own tests."""

import ast
import importlib
import importlib.util
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


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 11])
def test_benchmark_modular_ops_get_expected_answers(seed):
    """The benchmark's modular S-power operations (A1 k=1,2 and A2 k=2 in
    its small workload) call check_S_power(ws, k, FieldMode.modular(seed))
    and must get the answers of workloads.EXPECTED."""
    from chiralring import cdsw
    from chiralring.exactla import FieldMode
    from chiralring.rootsystem import build_root_system, chevalley_data

    primes = FieldMode.modular(seed).primes
    assert isinstance(primes, tuple) and primes
    assert all(isinstance(p, int) for p in primes)
    workloads = _workloads()
    ops = [op for op in workloads.TINY["ideal-modular"] if op.modular]
    assert {op.key for op in ops} == {"check_S_power/A1/k1",
                                      "check_S_power/A1/k2",
                                      "check_S_power/A2/k2"}
    for op in ops:
        ws = cdsw.Workspace(chevalley_data(
            build_root_system(op.algebra[0], int(op.algebra[1:]))))
        answer = op.call(cdsw, ws, FieldMode.modular(seed))
        assert answer == workloads.EXPECTED[op.key], op.name
