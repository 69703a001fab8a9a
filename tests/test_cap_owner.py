"""The Grassmann algebra owns the monomial cap.  No function of the package
takes a `cap` parameter except the constructors that hand it to an
algebra and the sl(n) check, which builds its own workspace."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chiralring"

CAP_OWNERS = {"exterior.GrassmannAlgebra.__init__",
              "cdsw.core.Workspace.__init__",
              "cli.CheckRunner.__init__",
              "cdsw.remark.check_sln_remark"}


def _functions(node, prefix):
    """(qualified name, node) of every function and lambda below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, name + ".")
        else:
            if isinstance(child, ast.Lambda):
                yield prefix + "<lambda>", child
            yield from _functions(child, prefix)


def _params(args):
    return (args.posonlyargs + args.args + args.kwonlyargs
            + [a for a in (args.vararg, args.kwarg) if a])


def test_only_the_owners_take_a_cap():
    takers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        tree = ast.parse(path.read_text(), str(path))
        for name, fn in _functions(tree, module + "."):
            if any(a.arg == "cap" for a in _params(fn.args)):
                takers.add(name)
    assert "exterior.GrassmannAlgebra.__init__" in takers
    assert sorted(takers - CAP_OWNERS) == []
