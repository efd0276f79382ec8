"""Attributes that one place owns, checked on the source of every module in src/ctdr.

A step's fake batches are made in one place: `RunState.draw_fakes`, which
draws their normals and turns them into gaussian rows or leaves them as
generator noise. `fit` runs that method one step ahead on its worker thread,
and a step only takes what it made. A second reader of the long-lived
fake-row streams, in `fit` or `train_step` say, would draw on them from
another thread, or out of the order that keeps runs byte-identical.

Target-train labels are for the oracle run and for evaluation only. The CLI
builds the oracle run's pair, so it is the one module that calls
`target_train_labeled`, and no training code can reach those labels. Only
`DomainPair` touches the attribute that holds them.

The scan lists each access of an attribute by name, read, written or called.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ctdr"

# attribute -> (the module that may touch it, the `Class.function` scope it
# may touch it in, with the scopes nested in that; None: anywhere in the module)
OWNERS = {
    "streams": ("train.py", "RunState.draw_fakes"),
    "target_train_labeled": ("cli.py", None),
    "_target_train_labels": ("data.py", "DomainPair"),
}


def attribute_uses(source: str, attr: str) -> list:
    """(line, enclosing `Class.function` path or `<module>`) of each `<x>.<attr>`,
    read, written or called."""
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


@pytest.mark.parametrize("attr", sorted(OWNERS))
def test_only_its_owner_touches_a_guarded_attribute(attr):
    module, owner = OWNERS[attr]
    found = [
        (path.name, scope)
        for path in sorted(SRC.glob("*.py"))
        for _, scope in attribute_uses(path.read_text(encoding="utf-8"), attr)
    ]
    assert found, f"nothing touches {attr}: the guard would pass on a renamed attribute"
    strays = [
        (name, scope)
        for name, scope in found
        if name != module or not (owner is None or scope == owner or scope.startswith(f"{owner}."))
    ]
    assert strays == []


def test_scan_sees_every_streams_access():
    source = (
        "class RunState:\n"
        "    def draw_fakes(self):\n        return self.streams\n\n"
        "    def other(self):\n        def inner():\n            return run.streams['x']\n        return inner\n\n"
        "def train_step(run):\n    streams = {}\n    run.streams = streams\n    return lambda: run.streams\n\n"
        "STREAMS = state.streams\n"
    )
    assert attribute_uses(source, "streams") == [
        (3, "RunState.draw_fakes"),
        (7, "RunState.other.inner"),
        (12, "train_step"),
        (13, "train_step"),
        (15, "<module>"),
    ]


def test_scan_sees_calls_and_method_accesses_but_not_a_definition():
    source = (
        "class DomainPair:\n"
        "    def target_train_labeled(self, oracle=False):\n        return self._target_train_labels\n\n"
        "def build(config, pair):\n    labeled = pair.target_train_labeled(oracle=True)\n"
        "    return getter(pair).target_train_labeled\n"
    )
    assert attribute_uses(source, "target_train_labeled") == [(6, "build"), (7, "build")]
    assert attribute_uses(source, "_target_train_labels") == [(3, "DomainPair.target_train_labeled")]
