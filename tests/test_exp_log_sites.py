"""Every bare `np.exp`/`np.log` call in src/ctdr, by module and function.

numpy's float64 exp and log give other last bits under its AVX-512 kernels
than under AVX2, so each such call on the training trajectory is a site where
an artifact's bytes can depend on the host (ROADMAP item 1). This walks the
source of every module in src/ctdr, lists each call by (module, function,
call) in source order, and pins that list: a new site, or one that moves,
fails here until the list is edited on purpose.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ctdr"

# (module, function, call), modules by name, calls in source order. mmd_loss is not here: its three
# kernels come from gaussian_kernel_matrix.
EXP_LOG_SITES = [
    ("losses", "source_ce", "np.log"),
    ("losses", "contradist_loss", "np.log"),
    ("losses", "contradist_loss", "np.log"),
    ("losses", "adv_bce", "np.log"),
    ("numerics", "_libm_log", "np.log"),
    ("numerics", "softmax_rows", "np.exp"),
    ("numerics", "log_sum_exp", "np.log"),
    ("numerics", "log_sum_exp", "np.exp"),
    ("numerics", "gaussian_kernel_matrix", "np.exp"),
]


def exp_log_calls(source: str) -> list:
    """(line, enclosing function, call) of each `np.exp(...)`/`np.log(...)` or `numpy.exp(...)`/`numpy.log(...)`
    call, in source order. The function is dotted through its enclosing classes and functions; `<module>` at
    the top level."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("exp", "log")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            call = f"{node.func.value.id}.{node.func.attr}"
            found.append((node.lineno, node.col_offset, ".".join(scope) or "<module>", call))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return [(line, function, call) for line, _, function, call in sorted(found)]


def test_the_exp_and_log_sites_are_the_pinned_list():
    found = [
        (path.stem, function, call)
        for path in sorted(PACKAGE.glob("*.py"))
        for _, function, call in exp_log_calls(path.read_text(encoding="utf-8"))
    ]
    assert found == EXP_LOG_SITES


def test_scan_sees_exp_and_log_calls():
    source = (
        "import math\n"
        "import numpy as np\n\n"
        "def f(x):\n"
        "    return np.exp(x) + math.exp(1.0)\n\n"
        "class A:\n"
        "    def g(self, x):\n"
        "        def inner(y):\n"
        "            return numpy.log(y)\n"
        "        return inner(np.log(np.exp(x))), np.exp\n\n"
        "y = np.exp(0.0)\n"
    )
    assert exp_log_calls(source) == [
        (5, "f", "np.exp"),
        (10, "A.g.inner", "numpy.log"),
        (11, "A.g", "np.log"),
        (11, "A.g", "np.exp"),
        (13, "<module>", "np.exp"),
    ]
