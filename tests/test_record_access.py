"""Only model.py builds a walk record or reads inside one.

A `ForwardCache` is model.py's record of one forward walk: its layer table
(`.layers`) and each layer's output (`.act`). The rest of the package reaches
a record through its outputs (`out`, `logits`, `probs`, `embeddings`), its
`encoder` record and `backward`, so a gradient at any of those outputs walks
back by the one rule. This walks the source of every module in src/ctdr but
model.py and lists each `ForwardCache(...)` call and each `.act`/`.layers`
attribute; none may be left.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ctdr"


def record_internals(source: str) -> list:
    """(line, what) of each `ForwardCache(...)` call, bare or through a module,
    and each `.act`/`.layers` attribute, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "ForwardCache":
                found.append((node.lineno, node.col_offset, "ForwardCache(...)"))
        elif isinstance(node, ast.Attribute) and node.attr in ("act", "layers"):
            found.append((node.lineno, node.col_offset, f".{node.attr}"))
    return [(line, what) for line, _, what in sorted(found)]


def test_no_module_but_model_builds_or_reads_inside_a_record():
    found = {
        path.name: hits
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "model.py" and (hits := record_internals(path.read_text(encoding="utf-8")))
    }
    assert not found, f"reach a record through its outputs, `encoder` and `backward`: {found}"


def test_scan_sees_record_internals():
    source = (
        "from . import model\n\n"
        "def step(params, cache, x):\n"
        "    mask = cache.act[-2] > 0.0\n"
        "    rec = model.ForwardCache(cache.layers[:-1], x, [])\n"
        "    return ForwardCache((), x, []), cache.encoder.out, cache.embeddings, act, layers\n"
    )
    assert record_internals(source) == [(4, ".act"), (5, "ForwardCache(...)"), (5, ".layers"), (6, "ForwardCache(...)")]
