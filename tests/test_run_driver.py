"""`train` and `ablate` share one run driver, and a run reads its data files once.

Both commands train through `cli._run`, so the files a run writes, and its
abort record, come from one place. This walks the source of cli.py and lists
each call of `fit`; a second run loop would add a second call.

`build_pair` reads the data files in the one function it calls before
`_located`, whose search for the key at fault then rebuilds the pair from the
splits in memory. A load call anywhere else could run once per given key: the
loaders are the builders of the file rows of `DATA_MODES`, and no function
names one. (test_cli.py's test_a_failing_config_reads_each_data_file_once
counts the calls the table's builders get.)

Every command starts through `_start`, which loads the config, checks it, builds
the pair and checks each run on it. A command that called one of those steps
itself could skip another, and accept a config that `train` rejects. `_start`
writes nothing: the step that writes a command's output prints the resolved
config, so a command that fails after its checks leaves stdout empty.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "ctdr" / "cli.py"
LOADERS = {"load_idx", "load_sparse"}
START_STEPS = {"load_config", "_accept", "build_pair", "build_train_config"}
RUN_BUILDS = {"build_pair", "build_train_config"}
WRITES = {"print", "write", "write_text", "format_config"}


def found(source: str, matches) -> list:
    """(line, top-level definition or `<module>`) of each node that `matches`."""
    hits = []
    for top in ast.parse(source).body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        hits += [(node.lineno, name) for node in ast.walk(top) if matches(node)]
    return hits


def named(node, names) -> bool:
    return bool({getattr(node, "id", None), getattr(node, "attr", None)} & names)


def calls(source: str, names) -> list:
    """found() of each call of a function in `names`, called as `<name>` or `<x>.<name>`."""
    return found(source, lambda node: isinstance(node, ast.Call) and named(node.func, names))


def uses(source: str, names) -> list:
    """found() of each use of a name in `names`, as `<name>` or `<x>.<name>`, called or not."""
    return found(source, lambda node: isinstance(node, (ast.Name, ast.Attribute)) and named(node, names))


def called_before(source: str, caller: str, callee: str) -> list:
    """The functions that top-level `caller` calls by name, in source order,
    before its first call of `callee`."""
    (top,) = [t for t in ast.parse(source).body if getattr(t, "name", None) == caller]
    called = sorted(
        (node.lineno, node.col_offset, node.func.id)
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    )
    names = [name for _, _, name in called]
    return names[: names.index(callee)]


def test_cli_calls_fit_once_in_the_run_driver():
    assert [name for _, name in calls(CLI.read_text(encoding="utf-8"), {"fit"})] == ["_run"]


def test_scan_sees_every_fit_call():
    source = (
        "def _run(cfg, pair):\n    return fit(cfg, pair)\n\n"
        "def cmd_ablate(cfgs, pair):\n    def rung(c):\n        return fit(c, pair)\n"
        "    return [rung(c) for c in cfgs], train.fit(cfgs, pair), fitted(pair)\n\n"
        "PARAMS = fit(None, None)\n"
    )
    assert calls(source, {"fit"}) == [(2, "_run"), (6, "cmd_ablate"), (7, "cmd_ablate"), (9, "<module>")]


def test_cli_reads_data_files_only_before_the_search_for_a_faulty_key():
    source = CLI.read_text(encoding="utf-8")
    (reader,) = called_before(source, "build_pair", "_located")
    assert [name for _, name in calls(source, {reader})] == ["build_pair"]
    assert {name for _, name in uses(source, LOADERS)} == {"<module>"}  # DATA_MODES's file rows


def test_scan_sees_every_loader_call_and_what_build_pair_calls_first():
    source = (
        "def build_pair(cfg):\n    splits = read(cfg)\n    return _located(lambda c: pair(c, splits), cfg)\n\n"
        "def read(cfg):\n    return [load_idx(cfg), data.load_sparse(cfg), loaded(cfg)]\n\n"
        "def pair(c, splits):\n    return load_sparse(c) if c else read(c)\n\n"
        "ROWS = {'idx': load_idx, 'sparse': (data.load_sparse, {})}\n"
    )
    assert called_before(source, "build_pair", "_located") == ["read"]
    assert calls(source, LOADERS) == [(6, "read"), (6, "read"), (9, "pair")]
    assert calls(source, {"read"}) == [(2, "build_pair"), (9, "pair")]
    assert uses(source, LOADERS) == [(6, "read"), (6, "read"), (9, "pair"), (11, "<module>"), (11, "<module>")]


def commands(source: str) -> list:
    """The top-level `cmd_*` functions of `source`, in source order."""
    return [t.name for t in ast.parse(source).body if isinstance(t, ast.FunctionDef) and t.name.startswith("cmd_")]


def start_up_faults(source: str) -> tuple:
    """(the commands that do not call `_start`, found() of each start-up step a command calls itself)."""
    cmds = commands(source)
    starts = {name for _, name in calls(source, {"_start"})}
    return [c for c in cmds if c not in starts], [hit for hit in calls(source, START_STEPS) if hit[1] in cmds]


def test_each_command_reaches_config_and_data_only_through_start():
    source = CLI.read_text(encoding="utf-8")
    assert commands(source) == ["cmd_train", "cmd_eval", "cmd_ablate", "cmd_synth"]
    assert start_up_faults(source) == ([], [])


def test_scan_sees_every_command_that_starts_on_its_own():
    source = (
        "def cmd_train(args):\n    cfg, pair = _start(args, 'train')\n    return fit(cfg, pair)\n\n"
        "def cmd_eval(args):\n    cfg = cli.load_config(args)\n    _start(args, 'eval')\n    return build_pair(cfg)\n\n"
        "def cmd_synth(args):\n    return [_accept(c) for c in build_train_config(args)]\n\n"
        "def _start(args, command):\n    return load_config(args), build_pair(args)\n"
    )
    assert commands(source) == ["cmd_train", "cmd_eval", "cmd_synth"]
    assert start_up_faults(source) == (["cmd_synth"], [(6, "cmd_eval"), (8, "cmd_eval"), (11, "cmd_synth"), (11, "cmd_synth")])


def start_faults(source: str) -> tuple:
    """(found() of each print, `.write(`, `.write_text(` or format_config call in `_start`,
    found() of each build_pair or build_train_config call outside `_start`)."""
    writes = [hit for hit in calls(source, WRITES) if hit[1] == "_start"]
    builds = [hit for hit in calls(source, RUN_BUILDS) if hit[1] != "_start"]
    return writes, builds


def test_start_writes_nothing_and_alone_builds_the_pair_and_runs():
    source = CLI.read_text(encoding="utf-8")
    assert start_faults(source) == ([], [])
    assert {name for _, name in calls(source, RUN_BUILDS)} == {"_start"}


def test_scan_sees_every_write_in_start_and_every_run_built_outside_it():
    source = (
        "def _start(args, command):\n    cfg = load_config(args)\n    print(format_config(cfg))\n"
        "    sys.stdout.write(cfg)\n    return cfg, build_pair(cfg)\n\n"
        "def cmd_eval(args):\n    cfg, pair = _start(args, 'eval')\n    return cli.build_train_config(cfg, pair)\n\n"
        "def _save_config(cfg):\n    Path(cfg).write_text(format_config(cfg))\n    print(cfg)\n"
    )
    assert start_faults(source) == ([(3, "_start"), (4, "_start"), (3, "_start")], [(9, "cmd_eval")])
