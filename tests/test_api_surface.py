"""Public API that only tests use finds a caller in src/ or is deleted.

Walks the source of every module in src/ctdr and lists each module-level
public function or class that no code in src/ references outside its own
definition. Only the allow-listed names may be on that list.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ctdr"

# name -> why it stays without a caller in src/
ALLOWED = {
    "generator_forward": "perfbench/spans.py patches it by name to trace the generator layer",
    "median_heuristic_gamma": "perfbench/spans.py patches it by name to trace the median bandwidth",
    "class_mass": "acceptance criterion c02 is stated on it",
}


def _uses(node) -> Counter:
    """Names read below `node`, as bare names or as attributes."""
    uses = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            uses[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            uses[sub.attr] += 1
    return uses


def unreferenced_public_names(src=SRC) -> set:
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))]
    total = sum((_uses(tree) for tree in trees), Counter())
    found = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if total[node.name] - _uses(node)[node.name] == 0:
                    found.add(node.name)
    return found


def test_every_public_name_has_a_caller_in_src():
    found = unreferenced_public_names()
    extra, stale = sorted(found - set(ALLOWED)), sorted(set(ALLOWED) - found)
    assert not extra, f"public names that only tests use (find a caller in src/ or delete them): {extra}"
    assert not stale, f"allow-listed names that now have a caller in src/ (drop them from ALLOWED): {stale}"


def test_scan_sees_a_definition_without_callers(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    return 1\n\ndef lonely():\n    return lonely()\n\nclass Box:\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import used\n\nx = used()\n")
    # a recursive call is inside its own definition, so it does not count
    assert unreferenced_public_names(tmp_path) == {"lonely", "Box"}
