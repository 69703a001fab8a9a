"""Products of even Grassmann elements in the checks run on int terms and
are built in `exterior`: traces and hats by `even_monomial`, the powers of
S by `memo_power`.  The hat and sl(n) modules, the S-power checks and the
CLI's witness call no `ExtElement.wedge` or `ExtElement.power` of their
own."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "chiralring"


@pytest.mark.parametrize("module", [
    pytest.param(module, id=Path(module).name)
    for module in ("cdsw/hats.py", "cdsw/remark.py", "cdsw/core.py",
                   "cli.py")])
def test_no_fraction_products(module):
    path = SRC / module
    tree = ast.parse(path.read_text(), str(path))
    uses = [(node.lineno, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("wedge", "power")]
    assert uses == []
