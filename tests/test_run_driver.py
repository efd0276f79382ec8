"""`train` and `ablate` share one run driver.

Both commands train through `cli._run`, so the files a run writes, and its
abort record, come from one place. This walks the source of cli.py and lists
each call of `fit`; a second run loop would add a second call.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "ctdr" / "cli.py"


def fit_calls(source: str) -> list:
    """(line, top-level definition or `<module>`) of each call of `fit` or `<x>.fit`."""
    found = []
    for top in ast.parse(source).body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        found += [
            (node.lineno, name)
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and "fit" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
    return found


def test_cli_calls_fit_once_in_the_run_driver():
    assert [name for _, name in fit_calls(CLI.read_text(encoding="utf-8"))] == ["_run"]


def test_scan_sees_every_fit_call():
    source = (
        "def _run(cfg, pair):\n    return fit(cfg, pair)\n\n"
        "def cmd_ablate(cfgs, pair):\n    def rung(c):\n        return fit(c, pair)\n"
        "    return [rung(c) for c in cfgs], train.fit(cfgs, pair), fitted(pair)\n\n"
        "PARAMS = fit(None, None)\n"
    )
    assert fit_calls(source) == [(2, "_run"), (6, "cmd_ablate"), (7, "cmd_ablate"), (9, "<module>")]
