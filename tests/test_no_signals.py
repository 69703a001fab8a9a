"""The package starts no signal handler, timer, thread or process.

The benchmark's reference clock (`perfbench/refclock.py`) owns SIGALRM and
the real-time interval timer while it runs: it probes the host's speed from
a SIGALRM handler.  A package that also touched signals, timers, threads or
child processes could leave a SIGALRM pending or re-armed after the clock
restores the default disposition, and the default action of SIGALRM kills
the process (exit status 142, that is 128 + SIGALRM) with no wrong answer
to show for it.  So no module of the package imports the standard modules
that reach those."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chiralring"

FORBIDDEN = {"signal", "threading", "multiprocessing", "subprocess",
             "faulthandler"}


def _imported(tree):
    """(line, top-level module name) of every import in tree, including
    `__import__` and `importlib.import_module` calls on a constant name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module \
                and not node.level:
            yield node.lineno, node.module.split(".")[0]
        elif isinstance(node, ast.Call) and node.args \
                and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in ("__import__", "import_module"):
                yield node.lineno, node.args[0].value.split(".")[0]


def test_package_imports_no_signal_thread_or_process_module():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += ["%s:%d %s" % (path.relative_to(PACKAGE), line, name)
                  for line, name in _imported(tree) if name in FORBIDDEN]
    assert found == []


def test_forbidden_imports_are_seen():
    """The scan catches each form of import it looks for."""
    source = ("import signal\nimport multiprocessing.pool\n"
              "from threading import Thread\n"
              "import importlib\nimportlib.import_module('subprocess')\n"
              "__import__('faulthandler')\nfrom . import signals\n")
    names = {name for _, name in _imported(ast.parse(source))}
    assert FORBIDDEN <= names
