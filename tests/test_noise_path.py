"""A step's fake-row normals are drawn in one place: `RunState.draw_noise`.

`fit` runs that method one step ahead on its worker thread, for gaussian and
generator fakes alike, and a step only takes what it drew. A second reader of
the long-lived fake-row streams would draw on them from another thread, or
out of the order that keeps runs byte-identical. This walks the source of
every module in src/ctdr and lists each access of an attribute named
`streams`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ctdr"


def attribute_uses(source: str, attr: str) -> list:
    """(line, enclosing `Class.function` path or `<module>`) of each `<x>.<attr>`,
    read or written."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                found.append((child.lineno, scope or "<module>"))
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_only_draw_noise_reads_the_fake_row_streams():
    found = [
        (path.name, scope)
        for path in sorted(SRC.glob("*.py"))
        for _, scope in attribute_uses(path.read_text(encoding="utf-8"), "streams")
    ]
    assert found == [("train.py", "RunState.draw_noise")]


def test_scan_sees_every_streams_access():
    source = (
        "class RunState:\n"
        "    def draw_noise(self):\n        return self.streams\n\n"
        "    def other(self):\n        def inner():\n            return run.streams['x']\n        return inner\n\n"
        "def train_step(run):\n    streams = {}\n    run.streams = streams\n    return lambda: run.streams\n\n"
        "STREAMS = state.streams\n"
    )
    assert attribute_uses(source, "streams") == [
        (3, "RunState.draw_noise"),
        (7, "RunState.other.inner"),
        (12, "train_step"),
        (13, "train_step"),
        (15, "<module>"),
    ]
