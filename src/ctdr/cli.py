"""Command-line front end.

Subcommands: train, eval, ablate, synth. Experiments are described by a flat
`key = value` config file (`#` starts a comment, lists are comma-separated).
Unknown keys and non-default keys that no run reads are rejected. Every command checks
its config on the data before it prints or writes anything, and prints the fully resolved
config when it writes its output; fed back as a config file, it reproduces the run exactly.

`train` writes metrics.jsonl, model.ctdr and eval.json to out_dir; `ablate` writes
them to out_dir/<combo>/ for each rung of its loss ladder, and appends the rung's
summary.csv row as it finishes. A run that exits 3 ends its metrics.jsonl with
an abort record.

Exit codes: 0 ok, 2 config/parse error, 3 non-finite loss, logits or Adam state, 4 I/O error or out of memory.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

from .data import (
    DomainPair,
    FeatureTransform,
    _gauss_shift_checks,
    _two_moons_checks,
    load_idx,
    load_sparse,
    read_utf8,
    resize_bilinear,
    save_sparse,
    standardize,
    subsample,
    synth_gauss_shift,
    synth_two_moons,
)
from .errors import ConfigError, ContractViolation, CtdrError, NonFiniteLossError, blame
from .evaluation import evaluate, export_embeddings
from .fake import FAKE_MODES, FakeSourceConfig
from .model import load_checkpoint, save_checkpoint
from .train import LossCombo, RunState, TrainConfig, fit


# --- config schema -------------------------------------------------------------


def _parse_bool(s):
    if s in ("true", "false"):
        return s == "true"
    raise ValueError(f"expected true/false, got {s!r}")


def _parse_path(s):
    """A path that the printed config carries back as it is: one line of UTF-8 text, with no NUL and no `#`."""
    if "\0" in s:
        raise ValueError("a path cannot hold a NUL byte")
    if "#" in s or s.splitlines() not in ([], [s]) or s.encode("utf-8", "replace").decode("utf-8") != s:
        raise ValueError(f"a path in a config must be one line of UTF-8 text without '#': got {s!r}")
    return s


def _parse_list(cast):
    return lambda s: tuple(cast(tok) for tok in s.split(",") if tok.strip())


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _choice(*options):
    def parse(s):
        if s not in options:
            raise ValueError(f"expected one of {options}, got {s!r}")
        return s

    return parse


# Parsers for schema entries whose type is that of a config field's default.
_PARSERS = {bool: _parse_bool, int: int, float: float, tuple: _parse_list(int)}

_TRAIN = TrainConfig()
_SPLITS = ("source", "target", "target_test")  # data.SPLITS as the data keys spell them: target_images, n_target

# data mode -> (builder, pre-draw checks or None, {config key: builder argument}), in the order `data`'s errors list
# them. A synthetic mode's builder returns the DomainPair of its arguments and `seed`; its checks take them but `seed`,
# make each check the builder makes before its first draw, and return (target prior, values a split draws). A file
# mode's builder reads one split. A key with `{}` is one per split, and a path that must be set if it is a builder
# argument. idx's own steps read keys of argument None: _read_splits `classes`, _idx_step the rest.
DATA_MODES: dict = {
    "two_moons": (synth_two_moons, _two_moons_checks,
                  {"n": "n", "rotation": "rotation_degrees", "noise": "noise_std", "skew": "label_skew"}),
    "gauss_shift": (synth_gauss_shift, _gauss_shift_checks, {"n": "n", "gauss_classes": "num_classes", "gauss_dim": "dim",
                    "gauss_mean_shift": "mean_shift", "gauss_cov_scale": "cov_scale", "skew": "label_skew"}),
    "idx": (load_idx, None,
            {"classes": None, "{}_images": "images_path", "{}_labels": "labels_path", "resize": None, "n_{}": None}),
    "sparse": (load_sparse, None, {"{}_sparse": "path"}),
}


def _paths(args: dict) -> list:
    """The path keys of a DATA_MODES row, split by split; none for a synthetic mode."""
    return [key.format(split) for split in _SPLITS for key, arg in args.items() if "{}" in key and arg]


def _data_keys(entries: dict) -> dict:
    """SCHEMA entries of data keys from key -> (parser, default): a key's scope is the modes whose row lists it."""
    listed = {mode: {key.format(split) for key in args for split in _SPLITS} for mode, (*_, args) in DATA_MODES.items()}
    return {key: (*entry, tuple(m for m, keys in listed.items() if key in keys)) for key, entry in entries.items()}


# CLI key -> TrainConfig field, for the keys that map one to one. SCHEMA takes
# their defaults from these fields; build_train_config fills the fields from
# these keys.
_TRAIN_FIELDS = {**{k: k for k in ("hidden", "epochs", "lr", "seed", "timing")}, "batch": "batch_size"}


def _field(key):
    """(parser, default, scope None) of the TrainConfig field a key maps to."""
    value = getattr(_TRAIN, _TRAIN_FIELDS[key])
    return _PARSERS[type(value)], value, None


def _parse_combo(text: str) -> tuple:
    """A combo's terms in TERMS order, or ("ts",): the oracle baseline, which combines with nothing."""
    terms = {t.strip() for t in text.replace("+", ",").split(",")} - {""}
    if "ts" not in terms:
        return LossCombo.parse(text).names
    if len(terms) > 1:
        raise ValueError("ts is an exclusive baseline; combine it with nothing")
    return ("ts",)


# key -> (parser, default, scope). Insertion order is the printing order.
# Each parser gives its key the value the code that reads it takes: `combo` its
# terms (see _parse_combo), `prior` a tuple of floats or `assume_source`,
# TrainConfig's None, and `skew` a tuple of floats or None. `resize` alone stays
# text, checked when idx resamples: its printed form, 28x28, is no list.
# Training keys take their defaults from the config dataclasses.
# Scope None: every run reads the key; else the tags of the runs that read it
# (see _accept).
SCHEMA: dict = {
    # data
    "data": (_choice(*DATA_MODES), next(iter(DATA_MODES)), None),
    **_data_keys({
        "n": (int, 500), "rotation": (float, 35.0), "noise": (float, 0.12), "skew": (lambda s: _parse_list(float)(s) or None, None),
        "gauss_classes": (int, 3), "gauss_dim": (int, 8), "gauss_mean_shift": (float, 1.0), "gauss_cov_scale": (float, 1.5),
        "classes": (int, 10), **{path: (_parse_path, "") for *_, args in DATA_MODES.values() for path in _paths(args)},
        "resize": (str, ""), **{f"n_{split}": (int, 0) for split in _SPLITS},
    }),
    "standardize": (_parse_bool, True, None),
    # training
    "combo": (_parse_combo, _TRAIN.combo.names, ("train",)),
    "hidden": _field("hidden"),
    "epochs": _field("epochs"),
    "batch": _field("batch"),
    "lr": _field("lr"),
    "seed": _field("seed"),
    "prior": (lambda s: s if s == "assume_source" else _parse_list(float)(s), "assume_source", ("tu",)),
    # fake samples
    "fake_mode": (_choice(*FAKE_MODES), _TRAIN.fake.mode, ("ta", "sa")),
    # output
    "out_dir": (_parse_path, "ctdr_out", None),
    "export_embeddings": (_parse_bool, False, None),
    "timing": _field("timing"),
}


def parse_config_text(text: str, origin: str = "<config>", where: dict | None = None) -> dict:
    """Flat `key = value` lines -> raw string values. Rejects unknown keys.
    `where`, when given, gets each key's `<origin>:<line>`."""
    raw: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{line_no}: expected `key = value`, got {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"{origin}:{line_no}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{origin}:{line_no}: duplicate key {key!r}")
        raw[key] = value
        if where is not None:
            where[key] = f"{origin}:{line_no}"
    return raw


class _Resolved(dict):
    """resolve_config's result: runtime values by key, plus `where`, which maps
    each key given to where it was given (`<file>:<line>`, `--set`, `--seed`)."""

    where: dict


def resolve_config(raw: dict, where: dict | None = None) -> dict:
    """Apply defaults and parse values into their runtime types. An unknown
    key's or a bad value's error names where the key was given, when `where`
    says."""
    cfg = _Resolved((key, default) for key, (_, default, _) in SCHEMA.items())
    cfg.where = dict(where or {})
    for key, text in raw.items():
        at = f"{cfg.where[key]}: " if key in cfg.where else ""
        if key not in SCHEMA:
            raise ConfigError(f"{at}unknown key {key!r}")
        try:
            cfg[key] = SCHEMA[key][0](text)
        except ValueError as exc:
            raise ConfigError(f"{at}bad value for {key!r}: {exc}") from exc
    return cfg


def format_config(cfg: dict) -> str:
    return "\n".join(f"{key} = {_fmt(cfg[key])}" for key in SCHEMA) + "\n"


def load_config(args) -> dict:
    """The config file's keys, then --seed, then each --set, resolved. An override joins `where` last,
    in the order given, even when the file also set its key."""
    raw, where = {}, {}
    if args.config:
        raw = parse_config_text(read_utf8(args.config), origin=str(args.config), where=where)

    def override(key, value, at):
        raw.pop(key, None)
        where.pop(key, None)
        raw[key], where[key] = value, at

    if getattr(args, "seed", None) is not None:
        override("seed", str(args.seed), "--seed")
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        override(key, value, "--set")
    return resolve_config(raw, where)


# --- config -> runtime objects ---------------------------------------------------


def _located(build, cfg: dict, check=None):
    """build(cfg). Its error names where the key at fault was given: `data`, then
    the given keys in the order given, join the defaults one at a time, and the first
    whose joining fails is named (under data = gauss_shift, of n = 5, then
    gauss_classes = 8: gauss_classes). When `data` fails on its own, none is named.
    With `check`, which returns how many values a config's pair draws, the search runs
    check on each partial config first, and builds them only when no check fails; then
    a partial config that draws more than both the full one and `data` alone (which the
    search builds anyway) is not built and counts as passing: a partial can ask for far
    more than either (a given gauss_dim under the default n)."""
    try:
        return build(cfg)
    except (ConfigError, ContractViolation) as exc:
        attempts = (build,)
        if check:
            most = lambda: max(check(cfg), check(resolve_config({"data": cfg["data"]})))
            attempts = (check, lambda held: check(held) > most() or build(held))
        for attempt in attempts:
            held = resolve_config({})
            for key, at in [("data", None), *cfg.where.items()]:
                held[key] = cfg[key]
                try:
                    attempt(held)
                except (ConfigError, ContractViolation) as alone:
                    if at is None:
                        break
                    raise ConfigError(f"{at}: {alone}") from exc
        raise


def build_pair(cfg: dict, fit_transform: bool = False) -> tuple:
    """(the DomainPair of resolve_config's values, None), or with fit_transform and `standardize = true`,
    standardize(that pair). Errors as in _located, whose search runs a synthetic mode's pre-draw checks
    before it builds any pair. The data files are read once, before the search, and their faults name no key."""
    splits = _read_splits(cfg)
    return _located(lambda c: _pair(c, splits, fit_transform), cfg, _pre_draw)


def _read_splits(cfg: dict) -> tuple | None:
    """The datasets of a pair's splits, each named by its file, in the files of a file-backed data mode, whose paths
    must be set; None for a synthetic mode. idx's, read at 256 classes, take `classes` here; its errors name where it was given."""
    read, _, args = DATA_MODES[cfg["data"]]
    paths = _paths(args)
    if missing := [k for k in paths if not cfg[k]]:
        raise ConfigError(f"data={cfg['data']} needs paths for {', '.join(missing)}")
    splits = tuple(read(**{a: cfg[k.format(s)] for k, a in args.items() if a}) for s in _SPLITS) if paths else None
    if "classes" not in args:
        return splits
    at, k = f"{cfg.where['classes']}: " if "classes" in cfg.where else "", cfg["classes"]
    for split, ds in zip(_SPLITS, splits):
        if 2 <= k <= ds.labels.max(initial=0):  # Dataset rejects a k outside [2, 2^32)
            raise ConfigError(f"{at}{cfg[f'{split}_labels']}: label {ds.labels.max()} out of range [0, {k})")
    try:
        return tuple(replace(ds, num_classes=k) for ds in splits)
    except ContractViolation as exc:
        raise ConfigError(f"{at}{exc}") from exc


def _pair(cfg: dict, splits: tuple | None, fit_transform: bool) -> tuple:
    build, _, args = DATA_MODES[cfg["data"]]
    if splits is None:
        pair = build(**{a: cfg[k] for k, a in args.items()}, seed=cfg["seed"])
    else:
        pair = DomainPair(*(_idx_step(cfg, splits) if None in args.values() else splits))
    return standardize(pair) if fit_transform and cfg["standardize"] else (pair, None)


def _pre_draw(cfg: dict) -> int:
    """The checks cfg's synthetic mode makes before its first draw; returns the values a split draws, 0 for data
    read from files."""
    _, checks, args = DATA_MODES[cfg["data"]]
    return checks(**{a: cfg[k] for k, a in args.items()})[1] if checks else 0


def _idx_step(cfg: dict, splits: tuple) -> list:
    """idx's splits as read, resampled to `resize`, then subsampled to `n_<split>` rows."""
    if cfg["resize"]:
        try:
            oh, ow = (int(tok) for tok in cfg["resize"].lower().split("x"))
        except ValueError as exc:
            raise ConfigError(f"resize must look like 28x28, got {cfg['resize']!r}") from exc
        splits = [ds if ds.image_hw == (oh, ow) else resize_bilinear(ds, (oh, ow)) for ds in splits]
    sizes = [cfg[f"n_{split}"] for split in _SPLITS]
    return [subsample(ds, n, cfg["seed"], variant=i) if n else ds for i, (n, ds) in enumerate(zip(sizes, splits))]


def build_train_config(cfg: dict, pair: DomainPair) -> tuple:
    """(the TrainConfig of resolve_config's values, the pair fit trains on: `pair`, or under combo `ts` its
    oracle pair, whose source split is target-train, labeled), checked by RunState.build on that pair.
    Errors as in _located."""
    return _located(lambda c: _train_config(c, pair), cfg)


def _train_config(cfg: dict, pair: DomainPair) -> tuple:
    oracle = cfg["combo"] == ("ts",)  # the ts baseline trains ss on the oracle pair
    fit_pair = DomainPair(pair.target_train_labeled(oracle=True), pair.target_train, pair.target_test) if oracle else pair
    prior = None if cfg["prior"] == "assume_source" else cfg["prior"]
    fields = {name: cfg[key] for key, name in _TRAIN_FIELDS.items()}
    combo = LossCombo(("ss",) if oracle else cfg["combo"])
    train_cfg = TrainConfig(combo=combo, prior=prior, fake=FakeSourceConfig(cfg["fake_mode"]), **fields)
    RunState.build(train_cfg, fit_pair)
    return train_cfg, fit_pair


def _accept(cfg: dict, command: str) -> None:
    """Reject a given non-default key that no run of `command` reads, naming where it was given.
    A run reads a key whose SCHEMA scope has one of its tags: its data mode, `train` under ctdr
    train, a term of its combo. eval and synth train no run and check data modes only."""
    combos = {"train": (cfg["combo"],), "ablate": ABLATION_LADDER.values()}.get(command, ())
    tags = {cfg["data"], command, *(term for combo in combos for term in combo)}
    for key, at in cfg.where.items():
        _, default, scope = SCHEMA[key]
        if scope is None or cfg[key] == default or not (combos or scope[0] in DATA_MODES):
            continue
        if not tags.intersection(scope):
            only = (f"data = {' or '.join(scope)}, not data = {cfg['data']}" if scope[0] in DATA_MODES
                    else f"{' or '.join(scope)} runs, not this ctdr {command}")
            raise ConfigError(f"{at}: {key} = {_fmt(cfg[key])} applies only to {only}")


def _save_config(cfg: dict, transform: FeatureTransform | None = None) -> Path:
    """Make out_dir and write resolved_config.txt there, and transform.json when there is a transform;
    then print the resolved config."""
    out_dir, text = Path(cfg["out_dir"]), format_config(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved_config.txt").write_text(text, encoding="utf-8")
    if transform is not None:
        transform.save(out_dir / "transform.json")
    sys.stdout.write(text)
    return out_dir


# --- subcommands -----------------------------------------------------------------


def _start(args, command: str) -> tuple:
    """(cfg, pair, its FeatureTransform or None, a (TrainConfig, pair fit trains on) run for cfg's combo, or under
    ablate for each ABLATION_LADDER rung). The pair is standardized as cfg says, but raw under synth and eval
    --transform. Each run is checked on that pair, so every config error, those that need the data too, exits 2
    before anything is written. It prints nothing: the step that writes a command's output prints the config."""
    cfg = load_config(args)
    synthetic = [mode for mode, (_, checks, _) in DATA_MODES.items() if checks]
    if command == "synth" and cfg["data"] not in synthetic:
        raise ConfigError(f"synth writes synthetic data; set data = {' or '.join(synthetic)}")
    _accept(cfg, command)
    pair, transform = build_pair(cfg, fit_transform=command != "synth" and not getattr(args, "transform", None))
    runs = [cfg]
    if command == "ablate":
        runs = [_Resolved(cfg, combo=combo) for combo in ABLATION_LADDER.values()]
        for run, rung in zip(runs, ABLATION_LADDER):  # errors name a rung's combo as `rung <combo>`
            run.where = {**cfg.where, "combo": f"rung {rung}"}
    return cfg, pair, transform, [build_train_config(run, pair) for run in runs]


def _run(train_run: tuple, pair: DomainPair, run_dir: Path, embeddings: bool, label: str = ""):
    """fit(*train_run), then eval and embeddings on `pair`, into run_dir; returns (params, target-test EvalReport). An abort's
    error starts with `label`; a non-finite forward after fit (eval, embeddings) aborts as term "export", with no epoch."""
    run_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / "metrics.jsonl", "w", encoding="utf-8") as fh:
        try:
            params, _ = fit(*train_run, on_epoch=lambda rec: fh.write(json.dumps(rec) + "\n"))
            with blame("export"):
                save_checkpoint(params, run_dir / "model.ctdr")
                report = evaluate(params, pair.target_test)
                (run_dir / "eval.json").write_text(json.dumps(report.to_json()) + "\n", encoding="utf-8")
                if embeddings:
                    export_embeddings(params, pair, run_dir / "embeddings.csv")
        except NonFiniteLossError as exc:
            fh.write(json.dumps({"abort": {"term": exc.term, "epoch": exc.epoch, "step": exc.step}}) + "\n")
            exc.args = (f"{label}{exc}",)
            raise
    return params, report


def cmd_train(args) -> int:
    cfg, pair, transform, (train_run,) = _start(args, "train")
    out_dir = _save_config(cfg, transform)
    _, report = _run(train_run, pair, out_dir, cfg["export_embeddings"])
    print(f"[train] combo={'+'.join(cfg['combo'])} target_test_acc={report.accuracy:.4f} -> {out_dir}")
    return 0


def cmd_eval(args) -> int:
    cfg, pair, _, _ = _start(args, "eval")
    params = load_checkpoint(args.checkpoint)
    if args.transform:
        tr = FeatureTransform.load(args.transform)
        try:
            pair = pair.map_features(tr.apply)
        except ContractViolation as exc:
            raise ConfigError(f"transform {args.transform} on the configured data: {exc}") from exc
    try:
        report = evaluate(params, pair.target_test)
    except ContractViolation as exc:  # a checkpoint that does not fit the data
        raise ConfigError(f"checkpoint {args.checkpoint} on the target test set: {exc}") from exc
    blob = json.dumps(report.to_json(), indent=2) + "\n"
    if getattr(args, "out", None):
        Path(args.out).write_text(blob, encoding="utf-8")
    sys.stdout.write(format_config(cfg) + blob)
    return 0


# rung -> its combo's terms
ABLATION_LADDER = {rung: _parse_combo(rung) for rung in ("ss", "ss+tu", "ss+tu+su", "ss+tu+su+ta", "ss+tu+su+sa", "ss+tu+su+ta+sa", "ts")}


def cmd_ablate(args) -> int:
    cfg, pair, transform, train_runs = _start(args, "ablate")
    out_dir = _save_config(cfg, transform)
    # line-buffered, so each row is on disk as its rung finishes
    with open(out_dir / "summary.csv", "w", encoding="utf-8", newline="", buffering=1) as fh:
        writer = csv.writer(fh)
        writer.writerow(["combo", "acc_target_test", "acc_source_train"])
        for combo, train_run in zip(ABLATION_LADDER, train_runs):
            params, rep_target = _run(train_run, pair, out_dir / combo, cfg["export_embeddings"], f"rung {combo}: ")
            acc_source = evaluate(params, pair.source).accuracy
            writer.writerow([combo, repr(float(rep_target.accuracy)), repr(float(acc_source))])
            print(f"[ablate] {combo:<16} target_test={rep_target.accuracy:.4f} source_train={acc_source:.4f}")
    return 0


def cmd_synth(args) -> int:
    cfg, pair, _, _ = _start(args, "synth")
    out_dir = _save_config(cfg)
    for split, ds in pair.splits():  # the oracle's labels go into the target-train file
        save_sparse(pair.target_train_labeled(oracle=True) if ds is pair.target_train else ds, out_dir / f"{split}.txt")
    print(f"[synth] wrote {' '.join(f'{split}.txt' for split, _ in pair.splits())} -> {out_dir}")
    return 0


# --- entry point -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctdr", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
        ("train", cmd_train, "train a model and write metrics/checkpoint"),
        ("eval", cmd_eval, "evaluate a checkpoint on the configured target test set"),
        ("ablate", cmd_ablate, "run the loss-combo ladder and write summary.csv"),
        ("synth", cmd_synth, "write the configured synthetic domain pair as sparse text files"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a `key = value` config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one config key (repeatable)")
        if func is cmd_eval:
            p.add_argument("--checkpoint", required=True)
            p.add_argument("--transform", help="apply a saved feature transform instead of refitting")
            p.add_argument("--out", help="also write the report JSON here")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CtdrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NonFiniteLossError) else 2
    except (OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
