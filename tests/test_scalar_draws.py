"""The package draws its random values in blocks, outside the generator itself.

A scalar `Rng` draw (`random`, `normal`, `uniform`, `below`, `next_u32`) runs
Python per value; `uniform_matrix`, `normal_matrix`, `uniform_normal_rows` and
`permutation` give the same values from a few numpy calls per block. The
scalar draws stay in numerics.py as the reference and the replay path. This
walks the source of every other module in src/ctdr and lists each call of a
scalar draw; none may be left, so a new synthetic pair draws in blocks too.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ctdr"
SCALAR_DRAWS = ("random", "normal", "uniform", "below", "next_u32")


def scalar_draw_calls(source: str) -> list:
    """(line, method) of each `<expr>.random(...)`, `.normal(...)`, `.uniform(...)`, `.below(...)` or
    `.next_u32(...)` call, in source order."""
    calls = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in SCALAR_DRAWS
    ]
    calls.sort(key=lambda node: (node.lineno, node.col_offset))
    return [(node.lineno, node.func.attr) for node in calls]


def test_no_scalar_draws_outside_numerics():
    found = {
        path.name: calls
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "numerics.py" and (calls := scalar_draw_calls(path.read_text(encoding="utf-8")))
    }
    assert not found, f"draw in blocks (uniform_matrix, normal_matrix, uniform_normal_rows, permutation): {found}"


def test_scan_sees_scalar_draws():
    source = (
        "def points(labels, rng):\n"
        "    t = rng.random() * 3.0\n"
        "    noise = rng.normal_matrix(labels.size, 2) + Rng(0).normal()\n"
        "    pick, word = rng.below(5), self.rng.next_u32()\n"
        "    return rng.uniform_matrix(2, 2, 0.0, 1.0), rng.uniform(-1.0, 1.0), rng.permutation(4), random()\n"
    )
    assert scalar_draw_calls(source) == [(2, "random"), (3, "normal"), (4, "below"), (4, "next_u32"), (5, "uniform")]
