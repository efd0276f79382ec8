"""data.SPLITS spells a domain pair's three splits once.

DomainPair checks the splits in one loop over SPLITS and hands them out
through DomainPair.splits(), so the embeddings export and the CLI take every
list of splits from the pair. A split's name written as a string anywhere else
is a second, hand-written list that a change to the splits would have to find.
This walks the source of cli.py, evaluation.py and data.py and lists each
string constant equal to `target_train`: the other two names are also a batch
(`source`) and a config key's spelling (`target_test`), but `target_train` is
only ever a split. In data.py it may appear in the SPLITS assignment and inside
class DomainPair; elsewhere nowhere.
"""

import ast
from pathlib import Path

import ctdr.data

SRC = Path(__file__).resolve().parents[1] / "src" / "ctdr"
# module -> the module-level assignments and classes that may spell target_train
ALLOWED = {"cli.py": (), "evaluation.py": (), "data.py": ("SPLITS", "DomainPair")}


def stray_split_names(source: str, allowed) -> list:
    """Line of each string constant `target_train` outside the module-level assignments and classes named in `allowed`."""
    tree = ast.parse(source)
    inside = set()
    for top in tree.body:
        names = {top.name} if isinstance(top, ast.ClassDef) else {t.id for t in getattr(top, "targets", ()) if isinstance(t, ast.Name)}
        if names & set(allowed):
            inside |= set(map(id, ast.walk(top)))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == "target_train" and id(node) not in inside
    )


def test_only_splits_and_domain_pair_spell_a_split():
    assert "target_train" in ctdr.data.SPLITS
    assert {module: stray_split_names((SRC / module).read_text(encoding="utf-8"), allowed) for module, allowed in ALLOWED.items()} == {
        module: [] for module in ALLOWED
    }


def test_scan_sees_a_split_name_outside_splits_and_domain_pair():
    source = (
        'SPLITS = ("source", "target_train", "target_test")\n'
        "\n"
        "class DomainPair:\n"
        "    def splits(self):\n"
        '        return [(s, getattr(self, s)) for s in SPLITS if s != "target_train"]\n'
        "\n"
        "def export(pair):\n"
        '    return pair.splits(), ("source", "target_train")\n'
        '"""target_train"""\n'
        'NAMES = {"target_train": f"{SPLITS}_target_train"}\n'
    )
    assert stray_split_names(source, ("SPLITS", "DomainPair")) == [8, 9, 10]
    assert stray_split_names(source, ()) == [1, 5, 8, 9, 10]
