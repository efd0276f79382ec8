"""The tensor prefixes `enc`, `cls` and `gen` are spelled in one place.

`model._layers` turns an architecture into (prefix, (in, out), relu) tuples,
once per architecture; every other line of model.py reads the prefixes from
those tuples. This walks the source of model.py and lists each string literal
that spells a prefix (alone, with a layer index, or with `.w`/`.b`) outside
`_layers`.
"""

import ast
import re
from pathlib import Path

MODEL = Path(__file__).resolve().parents[1] / "src" / "ctdr" / "model.py"
PREFIX = re.compile(r"(enc|cls|gen)\d*(\.[wb])?")


def prefix_literals_outside_layers(source: str) -> list:
    """(line, literal) of each prefix literal not inside `def _layers`."""
    tree = ast.parse(source)
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_layers":
            inside.update(id(sub) for sub in ast.walk(node))
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and PREFIX.fullmatch(node.value)
        and id(node) not in inside
    ]


def test_layer_prefixes_are_spelled_only_in_layers():
    found = prefix_literals_outside_layers(MODEL.read_text(encoding="utf-8"))
    assert not found, f"prefix literals outside model._layers (read them from _layers): {found}"


def test_scan_sees_prefix_literals_outside_layers():
    source = (
        'def _layers(arch):\n    return [(f"enc{i}", s) for i, s in enumerate(arch)], [("cls", None)]\n\n'
        'def forward(p, i):\n    return p["cls.w"], p[f"gen{i}.b"], p[f"{i}.w"], "encoder cls"\n'
    )
    assert prefix_literals_outside_layers(source) == [(5, "cls.w"), (5, "gen")]
