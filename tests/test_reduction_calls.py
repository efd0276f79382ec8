"""The package spells a check's reduction one way: as the array method.

`np.any(x)` and `np.all(x)` go through numpy's Python dispatch layer, about
2.7 µs a call more than `x.any()` and `x.all()`, and the step's checks make
thousands of them per `fit`. This walks the source of every module in
src/ctdr and lists each `np.any(...)`/`np.all(...)` call; none may be left.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ctdr"


def function_form_reductions(source: str) -> list:
    """(line, call) of each `np.any(...)`/`np.all(...)` or `numpy.any(...)`/`numpy.all(...)` call,
    in source order."""
    calls = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("any", "all")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
    ]
    calls.sort(key=lambda node: (node.lineno, node.col_offset))
    return [(node.lineno, f"{node.func.value.id}.{node.func.attr}") for node in calls]


def test_no_function_form_reductions_in_the_package():
    found = {
        path.name: calls
        for path in sorted(PACKAGE.glob("*.py"))
        if (calls := function_form_reductions(path.read_text(encoding="utf-8")))
    }
    assert not found, f"use x.any()/x.all() instead: {found}"


def test_scan_sees_function_form_reductions():
    source = (
        "import numpy as np\n\n"
        "def check(p, y):\n"
        "    if np.any(p < 0.0) or not np.all(np.isfinite(p)):\n"
        "        return (y < 0).any() or all(y) or any(y)\n"
        "    return numpy.all(y), np.isfinite(y).all()\n"
    )
    assert function_form_reductions(source) == [(4, "np.any"), (4, "np.all"), (6, "numpy.all")]
