"""cli.py names each data mode once, in its DATA_MODES table.

The data keys' scopes, the builder calls, the path check and synth's check
all read the table, so a new data mode is one row. A mode's name written
anywhere else in cli.py is a second place that the next mode would have to
edit. This walks the source of cli.py and lists each string constant equal
to a mode's name outside the DATA_MODES assignment; none may be left.
"""

import ast
from pathlib import Path

import ctdr.cli

CLI = Path(__file__).resolve().parents[1] / "src" / "ctdr" / "cli.py"


def assigns_data_modes(top) -> bool:
    targets = top.targets if isinstance(top, ast.Assign) else [top.target] if isinstance(top, ast.AnnAssign) else []
    return any(isinstance(t, ast.Name) and t.id == "DATA_MODES" for t in targets)


def stray_mode_names(source: str, modes) -> list:
    """(line, name) of each string constant in `modes` outside the module-level `DATA_MODES = ...`, in source order."""
    tree = ast.parse(source)
    (table,) = [top for top in tree.body if assigns_data_modes(top)]
    inside = set(map(id, ast.walk(table)))
    found = [
        (node.lineno, node.col_offset, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in modes and id(node) not in inside
    ]
    return [(line, name) for line, _, name in sorted(found)]


def test_cli_names_each_data_mode_only_in_its_table():
    assert stray_mode_names(CLI.read_text(encoding="utf-8"), set(ctdr.cli.DATA_MODES)) == []


def test_scan_sees_a_mode_name_outside_the_table():
    source = (
        'DATA_MODES: dict = {"idx": (load_idx, {"{}_images": "images_path"}), "sparse": (load_sparse, {})}\n\n'
        "def read(cfg):\n"
        '    if cfg["data"] == "idx":\n'
        '        return ("sparse", "idx_x", f"{cfg}_sparse", "data = idx")\n'
        '    """idx"""\n\n'
        'MODES = ("idx",)\n'
    )
    assert stray_mode_names(source, {"idx", "sparse"}) == [(4, "idx"), (5, "sparse"), (6, "idx"), (8, "idx")]
