"""Public API that only tests use finds a caller in src/ or is deleted.

Walks the source of every module in src/ctdr and lists each module-level
public function or class that no code in src/ references outside its own
definition, and each public method, property or dataclass field
(`Class.member`) that no code in src/ reads as an attribute outside its own
definition. Only the allow-listed names may be on that list. A module-level
private function or class that nothing in src/ references is left over from
a deleted caller, and none may be left.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ctdr"

# name -> why it stays without a caller or reader in src/
ALLOWED = {
    "class_mass": "acceptance criterion c02 is stated on it",
    "Rng.uniform": "the scalar reference that Rng.uniform_matrix is tested against bit for bit",
    "LossReport.diagnostics": "the planned per-epoch diag block of metrics.jsonl reads it",
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


def _reads(node) -> Counter:
    """Attribute names read below `node` (`x.name` loaded, not assigned)."""
    return Counter(
        sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    )


def _members(cls):
    """(name, node) of each method, property, field and class attribute."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node
        elif isinstance(node, ast.Assign):
            yield from ((t.id, node) for t in node.targets if isinstance(t, ast.Name))


def _trees(src):
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))]


def _unreferenced_definitions(trees) -> set:
    """Module-level functions and classes that no code in `trees` references outside their own definition."""
    total = sum((_uses(tree) for tree in trees), Counter())
    return {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and total[node.name] - _uses(node)[node.name] == 0
    }


def unreferenced_private_names(src=SRC) -> set:
    return {name for name in _unreferenced_definitions(_trees(src)) if name.startswith("_")}


def unreferenced_public_names(src=SRC) -> set:
    trees = _trees(src)
    reads = sum((_reads(tree) for tree in trees), Counter())
    found = {name for name in _unreferenced_definitions(trees) if not name.startswith("_")}
    for tree in trees:
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for name, node in _members(cls):
                if not name.startswith("_") and reads[name] - _reads(node)[name] == 0:
                    found.add(f"{cls.name}.{name}")
    return found


def test_every_public_name_has_a_caller_in_src():
    found = unreferenced_public_names()
    extra, stale = sorted(found - set(ALLOWED)), sorted(set(ALLOWED) - found)
    assert not extra, f"public names or members that only tests use (use them in src/ or delete them): {extra}"
    assert not stale, f"allow-listed names that src/ now uses (drop them from ALLOWED): {stale}"


def test_every_private_name_has_a_caller_in_src():
    found = sorted(unreferenced_private_names())
    assert not found, f"private functions or classes that nothing in src/ uses (delete them): {found}"


def test_scan_sees_a_private_definition_without_callers(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return 1\n\n"
        "def _lonely():\n    return _lonely()\n\n"
        "class _Box:\n    pass\n\n"
        "def api():\n    return _used()\n"
    )
    (tmp_path / "b.py").write_text("from .a import api\n\nx = api()\n")
    # a recursive call is inside its own definition, so it does not count
    assert unreferenced_private_names(tmp_path) == {"_lonely", "_Box"}


def test_scan_sees_a_definition_without_callers(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    return 1\n\ndef lonely():\n    return lonely()\n\nclass Box:\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import used\n\nx = used()\n")
    # a recursive call is inside its own definition, so it does not count
    assert unreferenced_public_names(tmp_path) == {"lonely", "Box"}


def test_scan_sees_a_member_that_src_never_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Box:\n"
        "    size: int\n"
        "    spare: int\n"
        "    alias = 0\n\n"
        "    def used(self):\n        return self.size\n\n"
        "    def lonely(self):\n        return self.lonely()\n\n"
        "    @property\n    def shown(self):\n        return 1\n\n"
        "    def _private(self):\n        return 2\n"
    )
    # a field given by keyword or assigned is not read; a method called only
    # inside its own definition is not either
    (tmp_path / "b.py").write_text("from .a import Box\n\nbox = Box(size=1, spare=2)\nbox.alias = 3\nbox.used()\n")
    assert unreferenced_public_names(tmp_path) == {"Box.spare", "Box.alias", "Box.lonely", "Box.shown"}
