"""Products of even Grassmann elements in the checks run on int terms,
built by `exterior.even_monomial`: the hat and sl(n) modules use no
Fraction-valued `ExtElement.wedge` or `ExtElement.power`."""

import ast
from pathlib import Path

import pytest

CDSW = Path(__file__).resolve().parents[1] / "src" / "chiralring" / "cdsw"


@pytest.mark.parametrize("module", ["hats.py", "remark.py"])
def test_no_fraction_products(module):
    path = CDSW / module
    tree = ast.parse(path.read_text(), str(path))
    uses = [(node.lineno, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("wedge", "power")]
    assert uses == []
