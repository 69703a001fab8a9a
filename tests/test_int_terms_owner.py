"""The library works on int terms dicts.  What only tests call lives in
tests/conftest.py, not in src/, and the checks read the int invariant
bases of `liemodule.invariant_basis`: the Fraction boundary
`invariant_basis_elements` is defined in liemodule and called by no other
library module.  The engine's inputs (the relation families, S, X and Y)
are int terms too: no class wraps the relations, and an OddMatrix has the
one constructor from int terms over a denominator."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chiralring"

# methods that left the library, by class: tests/conftest.py helpers now,
# except OddMatrix._of, which became the one constructor
MOVED = {
    "ExtElement": {"__sub__", "__mul__", "__rmul__", "component", "bidegree",
                   "extract_xi_eta"},
    "GrassmannAlgebra": {"zero", "scalar", "one", "x", "y", "xi", "eta",
                         "bidegree_of_mask"},
    "OddMatrix": {"entry", "trace_product", "_of"},
    "ActionTable": {"act"},
}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def test_test_only_api_stays_out_of_the_library():
    found = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in MOVED:
                found += [(path.name, node.name, item.name)
                          for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and item.name in MOVED[node.name]]
    assert found == []


# library definitions the int inputs replaced, and z_matrix, which only
# the tests' full-product references call since z is built from XY
GONE_CLASSES = {"RelationSet"}
GONE_FUNCTIONS = {"_common_den", "_over", "z_matrix"}


def test_rational_input_wrappers_stay_out_of_the_library():
    found = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef) and node.name in GONE_CLASSES
                    or isinstance(node, ast.FunctionDef)
                    and node.name in GONE_FUNCTIONS):
                found.append((path.name, node.name))
    assert found == []


def test_only_liemodule_names_the_fraction_invariant_basis():
    users = []
    for path, tree in _modules():
        if path == SRC / "liemodule.py":
            continue
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            if "invariant_basis_elements" in names:
                users.append((str(path.relative_to(SRC)), node.lineno))
    assert users == []
