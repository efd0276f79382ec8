"""Each vocabulary below is spelled in one place in its module.

A vocabulary is a set of strings that name one concept: the data modes, the
tensor prefixes, a domain pair's splits. Its one place is a named top-level
class, function or assignment, and every other line of the module reads the
names from there. A name written as a string constant anywhere else is a
second, hand-written copy that the next change would have to find. This walks
the source of each module and lists each string constant of a vocabulary
outside the top-level statements its row allows; none may be left.
"""

import ast
import re
from pathlib import Path

import pytest

import ctdr.cli
import ctdr.data

SRC = Path(__file__).resolve().parents[1] / "src" / "ctdr"
DATA_MODES = re.compile("|".join(map(re.escape, ctdr.cli.DATA_MODES)))
PREFIX = re.compile(r"(enc|cls|gen)\d*(\.[wb])?")
TARGET_TRAIN = re.compile("target_train")

# (module, vocabulary, the top-level statements that may spell it)
ROWS = [
    # The data keys' scopes, the builder calls, the path check and synth's
    # check all read DATA_MODES, so a new data mode is one row of it.
    ("cli.py", DATA_MODES, ("DATA_MODES",)),
    # model._layers turns an architecture into (prefix, (in, out), relu)
    # tuples, once per architecture; every other line of model.py reads the
    # prefixes `enc`, `cls` and `gen` (alone, with a layer index, or with
    # `.w`/`.b`) from those tuples.
    ("model.py", PREFIX, ("_layers",)),
    # data.SPLITS spells a pair's splits. DomainPair checks them in one loop
    # over SPLITS and hands them out through DomainPair.splits(), so the
    # embeddings export and the CLI take every list of splits from the pair.
    # Only `target_train` is scanned: `source` is also a batch and
    # `target_test` a config key's spelling, but `target_train` is only ever a
    # split.
    ("cli.py", TARGET_TRAIN, ()),
    ("evaluation.py", TARGET_TRAIN, ()),
    ("data.py", TARGET_TRAIN, ("SPLITS", "DomainPair")),
]


def top_names(top) -> set:
    """The names a top-level class, function or assignment binds."""
    if isinstance(top, (ast.ClassDef, ast.FunctionDef)):
        return {top.name}
    targets = top.targets if isinstance(top, ast.Assign) else [top.target] if isinstance(top, ast.AnnAssign) else []
    return {t.id for t in targets if isinstance(t, ast.Name)}


def stray_constants(source: str, vocabulary: re.Pattern, allowed) -> list:
    """(line, value) of each string constant that fully matches `vocabulary` outside the top-level classes,
    functions and assignments named in `allowed`, in source order."""
    tree = ast.parse(source)
    inside = {id(node) for top in tree.body if top_names(top) & set(allowed) for node in ast.walk(top)}
    found = [
        (node.lineno, node.col_offset, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and vocabulary.fullmatch(node.value) and id(node) not in inside
    ]
    return [(line, value) for line, _, value in sorted(found)]


@pytest.mark.parametrize("module, vocabulary, allowed", ROWS, ids=[f"{m}-{'-'.join(a) or 'nowhere'}" for m, _, a in ROWS])
def test_a_vocabulary_is_spelled_only_where_its_row_allows(module, vocabulary, allowed):
    source = (SRC / module).read_text(encoding="utf-8")
    defined = set().union(*map(top_names, ast.parse(source).body))
    assert set(allowed) <= defined, f"{module} no longer defines {sorted(set(allowed) - defined)}"
    assert stray_constants(source, vocabulary, allowed) == []


def test_target_train_is_a_split():
    assert "target_train" in ctdr.data.SPLITS


SPLITS_SOURCE = (
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
MODES_SOURCE = (
    'DATA_MODES: dict = {"idx": (load_idx, {"{}_images": "images_path"}), "sparse": (load_sparse, {})}\n\n'
    "def read(cfg):\n"
    '    if cfg["data"] == "idx":\n'
    '        return ("sparse", "idx_x", f"{cfg}_sparse", "data = idx")\n'
    '    """idx"""\n\n'
    'MODES = ("idx",)\n'
)
PREFIX_SOURCE = (
    'def _layers(arch):\n    return [(f"enc{i}", s) for i, s in enumerate(arch)], [("cls", None)]\n\n'
    'def forward(p, i):\n    return p["cls.w"], p[f"gen{i}.b"], p[f"{i}.w"], "encoder cls"\n'
)


@pytest.mark.parametrize(
    "source, vocabulary, allowed, expected",
    [
        (SPLITS_SOURCE, TARGET_TRAIN, ("SPLITS", "DomainPair"), [(8, "target_train"), (9, "target_train"), (10, "target_train")]),
        (SPLITS_SOURCE, TARGET_TRAIN, (), [(1, "target_train"), (5, "target_train"), (8, "target_train"), (9, "target_train"), (10, "target_train")]),
        (MODES_SOURCE, re.compile("idx|sparse"), ("DATA_MODES",), [(4, "idx"), (5, "sparse"), (6, "idx"), (8, "idx")]),
        (PREFIX_SOURCE, PREFIX, ("_layers",), [(5, "cls.w"), (5, "gen")]),
    ],
    ids=["splits-allowed", "splits-nowhere", "data-modes", "layer-prefixes"],
)
def test_scan_sees_a_vocabulary_constant_outside_the_allowed_statements(source, vocabulary, allowed, expected):
    assert stray_constants(source, vocabulary, allowed) == expected
