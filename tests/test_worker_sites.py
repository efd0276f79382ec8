"""Every place src/ctdr makes a worker thread or pool, by module and function.

A run has one worker: fit's one-worker pool, which makes each step's fake
batches one step ahead and runs each generator step's fake-real distance pass.
A pool made anywhere else (one per call, say) would start a thread per use and
put a second worker beside fit's. This walks the source of every module in
src/ctdr and pins the list of constructor calls: a new site fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ctdr"

CONSTRUCTORS = ("ThreadPoolExecutor", "ProcessPoolExecutor", "Thread", "Process", "Pool")
# (module, function, constructor)
WORKER_SITES = [("train", "fit", "ThreadPoolExecutor")]


def worker_calls(source: str) -> list:
    """(line, enclosing function, constructor) of each call of a CONSTRUCTORS name, bare or as an attribute,
    in source order. The function is dotted through its enclosing classes and functions; `<module>` at the
    top level."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name in CONSTRUCTORS:
                found.append((node.lineno, node.col_offset, ".".join(scope) or "<module>", name))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return [(line, function, name) for line, _, function, name in sorted(found)]


def test_fit_makes_the_only_worker_pool():
    found = [
        (path.stem, function, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for _, function, name in worker_calls(path.read_text(encoding="utf-8"))
    ]
    assert found == WORKER_SITES


def test_scan_sees_pools_and_threads():
    source = (
        "import threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import concurrent.futures as cf\n\n"
        "def f(x):\n"
        "    with ThreadPoolExecutor(1) as pool:\n"
        "        return pool.submit(x)\n\n"
        "class A:\n"
        "    def g(self):\n"
        "        def inner():\n"
        "            return cf.ProcessPoolExecutor()\n"
        "        return inner(), threading.Thread(target=inner)\n\n"
        "POOL = ThreadPoolExecutor\n"
    )
    assert worker_calls(source) == [
        (6, "f", "ThreadPoolExecutor"),
        (12, "A.g.inner", "ProcessPoolExecutor"),
        (13, "A.g", "Thread"),
    ]
