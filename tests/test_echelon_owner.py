"""An Echelon's state is its own.  No code of the package outside the
methods of `exactla.Echelon` touches an Echelon's rows mod p, its batch or
its certified RREF; kernels and spans go through the module's elimination
routine and the Echelon's public reads."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chiralring"

STATE = {"_batch", "_rref", "_rows", "rows"}


def _touches(node, prefix):
    """(name, attribute) of every access to an attribute in STATE below
    node, name the qualified name of the function or class around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            yield from _touches(child, prefix + child.name + ".")
        else:
            if isinstance(child, ast.Attribute) and child.attr in STATE:
                yield prefix[:-1], child.attr
            yield from _touches(child, prefix)


def test_only_echelon_touches_its_state():
    inside, outside = set(), set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        tree = ast.parse(path.read_text(), str(path))
        for name, attr in _touches(tree, module + "."):
            owner = inside if name.startswith("exactla.Echelon.") else outside
            owner.add((name, attr))
    assert ("exactla.Echelon._certify", "_batch") in inside
    assert sorted(outside) == []
