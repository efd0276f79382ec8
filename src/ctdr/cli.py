"""Command-line front end.

Subcommands: train, eval, ablate, synth. Experiments are described by a flat
`key = value` config file (`#` starts a comment, lists are comma-separated).
Unknown keys are rejected. Every run prints the fully resolved config first;
feeding those lines back as a config file reproduces the run exactly.

Exit codes: 0 ok, 2 config/parse error, 3 non-finite loss, logits or Adam state, 4 I/O error.
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
    load_idx,
    load_sparse,
    resize_bilinear,
    save_sparse,
    standardize,
    subsample,
    synth_gauss_shift,
    synth_two_moons,
)
from .errors import ConfigError, CtdrError, NonFiniteLossError
from .evaluation import evaluate, export_embeddings
from .fake import FAKE_MODES, FakeSourceConfig
from .model import load_checkpoint, save_checkpoint
from .train import TERMS, LossCombo, RunState, TrainConfig, fit


# --- config schema -------------------------------------------------------------


def _parse_bool(s):
    if s in ("true", "false"):
        return s == "true"
    raise ValueError(f"expected true/false, got {s!r}")


def _parse_int_list(s):
    return tuple(int(tok) for tok in s.split(",") if tok.strip()) if s else ()


def _parse_float_list(s):
    return tuple(float(tok) for tok in s.split(",") if tok.strip()) if s else ()


def _fmt(value):
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
_PARSERS = {bool: _parse_bool, int: int, float: float, tuple: _parse_int_list}

_TRAIN = TrainConfig()
_FAKE = _TRAIN.fake

# CLI key -> TrainConfig / FakeSourceConfig field, for the keys that map one to
# one. SCHEMA takes their defaults from these fields; build_train_config fills
# the fields from these keys.
_TRAIN_FIELDS = {
    **{k: k for k in ("hidden", "epochs", "lr", "lr_decay", "lr_decay_every", "seed", "timing")},
    "batch": "batch_size",
}
_FAKE_FIELDS = {"fake_mode": "mode", "noise_dim": "noise_dim", "gen_hidden": "gen_hidden"}


def _field(key, parser=None):
    """(parser, default) of the config field a key maps to."""
    value = getattr(_TRAIN, _TRAIN_FIELDS[key]) if key in _TRAIN_FIELDS else getattr(_FAKE, _FAKE_FIELDS[key])
    return parser or _PARSERS[type(value)], value


# key -> (parser, default). Insertion order is the printing order. Training
# keys take their defaults from the config dataclasses; `prior`, `fake_n` and
# `mmd_gamma` keep text sentinels for the dataclasses' None.
SCHEMA: dict = {
    # data
    "data": (_choice("two_moons", "gauss_shift", "idx", "sparse"), "two_moons"),
    "n": (int, 500),
    "rotation": (float, 35.0),
    "noise": (float, 0.12),
    "skew": (_parse_float_list, ()),
    "gauss_classes": (int, 3),
    "gauss_dim": (int, 8),
    "gauss_mean_shift": (float, 1.0),
    "gauss_cov_scale": (float, 1.5),
    "classes": (int, 10),
    "source_images": (str, ""),
    "source_labels": (str, ""),
    "target_images": (str, ""),
    "target_labels": (str, ""),
    "target_test_images": (str, ""),
    "target_test_labels": (str, ""),
    "source_sparse": (str, ""),
    "target_sparse": (str, ""),
    "target_test_sparse": (str, ""),
    "resize": (str, ""),
    "n_source": (int, 0),
    "n_target": (int, 0),
    "n_target_test": (int, 0),
    "standardize": (_parse_bool, True),
    # training
    "combo": (str, ",".join(_TRAIN.combo.names)),
    "hidden": _field("hidden"),
    "epochs": _field("epochs"),
    "batch": _field("batch"),
    "lr": _field("lr"),
    "lr_decay": _field("lr_decay"),
    "lr_decay_every": _field("lr_decay_every"),
    "seed": _field("seed"),
    "prior": (str, "assume_source"),
    **{f"w_{t}": (float, _TRAIN.weight(t)) for t in TERMS},
    # fake samples
    "fake_mode": _field("fake_mode", _choice(*FAKE_MODES)),
    "fake_n": (int, 0),
    "noise_dim": _field("noise_dim"),
    "gen_hidden": _field("gen_hidden"),
    "mmd_gamma": (str, "median"),
    # output
    "out_dir": (str, "ctdr_out"),
    "export_embeddings": (_parse_bool, False),
    "timing": _field("timing"),
}


def parse_config_text(text: str, origin: str = "<config>") -> dict:
    """Flat `key = value` lines -> raw string values. Rejects unknown keys."""
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
    return raw


def resolve_config(raw: dict) -> dict:
    """Apply defaults and parse values into their runtime types."""
    cfg = {}
    for key, (parser, default) in SCHEMA.items():
        if key in raw:
            try:
                cfg[key] = parser(raw[key])
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from exc
        else:
            cfg[key] = default
    return cfg


def format_config(cfg: dict) -> str:
    return "\n".join(f"{key} = {_fmt(cfg[key])}" for key in SCHEMA) + "\n"


def load_config(args) -> dict:
    raw = {}
    if args.config:
        raw_bytes = Path(args.config).read_bytes()
        try:
            text = raw_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = raw_bytes.count(b"\n", 0, exc.start) + 1
            raise ConfigError(f"{args.config}:{line_no}: not UTF-8 (byte {exc.start})") from exc
        raw = parse_config_text(text, origin=str(args.config))
    if getattr(args, "seed", None) is not None:
        raw["seed"] = str(args.seed)
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"--set: unknown key {key!r}")
        raw[key] = value
    return resolve_config(raw)


# --- config -> runtime objects ---------------------------------------------------


def _require_paths(cfg: dict, *kinds):
    missing = [k for k in (f"{d}_{kind}" for d in ("source", "target", "target_test") for kind in kinds) if not cfg[k]]
    if missing:
        raise ConfigError(f"data={cfg['data']} needs paths for {', '.join(missing)}")


def build_pair(cfg: dict) -> DomainPair:
    kind = cfg["data"]
    skew = cfg["skew"] or None
    if kind == "two_moons":
        return synth_two_moons(cfg["n"], cfg["rotation"], cfg["noise"], skew, seed=cfg["seed"])
    if kind == "gauss_shift":
        return synth_gauss_shift(
            cfg["n"],
            num_classes=cfg["gauss_classes"],
            dim=cfg["gauss_dim"],
            mean_shift=cfg["gauss_mean_shift"],
            cov_scale=cfg["gauss_cov_scale"],
            label_skew=skew,
            seed=cfg["seed"],
        )
    if kind == "idx":
        _require_paths(cfg, "images", "labels")
        k = cfg["classes"]
        source = load_idx(cfg["source_images"], cfg["source_labels"], k, name="source")
        target_train = load_idx(cfg["target_images"], cfg["target_labels"], k, name="target_train")
        target_test = load_idx(cfg["target_test_images"], cfg["target_test_labels"], k, name="target_test")
        if cfg["resize"]:
            try:
                oh, ow = (int(tok) for tok in cfg["resize"].lower().split("x"))
            except ValueError as exc:
                raise ConfigError(f"resize must look like 28x28, got {cfg['resize']!r}") from exc
            source, target_train, target_test = (
                ds if ds.image_hw == (oh, ow) else resize_bilinear(ds, (oh, ow))
                for ds in (source, target_train, target_test)
            )
        if cfg["n_source"]:
            source = subsample(source, cfg["n_source"], cfg["seed"], variant=0)
        if cfg["n_target"]:
            target_train = subsample(target_train, cfg["n_target"], cfg["seed"], variant=1)
        if cfg["n_target_test"]:
            target_test = subsample(target_test, cfg["n_target_test"], cfg["seed"], variant=2)
        return DomainPair(source, target_train, target_test)
    # sparse
    _require_paths(cfg, "sparse")
    return DomainPair(
        load_sparse(cfg["source_sparse"], name="source"),
        load_sparse(cfg["target_sparse"], name="target_train"),
        load_sparse(cfg["target_test_sparse"], name="target_test"),
    )


def build_train_config(cfg: dict) -> TrainConfig:
    prior = None
    if cfg["prior"] != "assume_source":
        try:
            prior = tuple(float(tok) for tok in cfg["prior"].split(",") if tok.strip())
        except ValueError as exc:
            raise ConfigError(f"prior must be `assume_source` or comma-separated floats: {exc}") from exc
    gamma = None
    if cfg["mmd_gamma"] != "median":
        try:
            gamma = float(cfg["mmd_gamma"])
        except ValueError as exc:
            raise ConfigError(f"mmd_gamma must be `median` or a float: {exc}") from exc
    fake = FakeSourceConfig(
        n_f=cfg["fake_n"] or None,
        gamma=gamma,
        **{name: cfg[key] for key, name in _FAKE_FIELDS.items()},
    )
    return TrainConfig(
        combo=LossCombo.parse(cfg["combo"]),
        prior=prior,
        weights={t: cfg[f"w_{t}"] for t in TERMS},
        fake=fake,
        **{name: cfg[key] for key, name in _TRAIN_FIELDS.items()},
    )


def _prepare(cfg: dict):
    pair = build_pair(cfg)
    transform = None
    if cfg["standardize"]:
        pair, transform = standardize(pair)
    return pair, transform


def _announce(cfg: dict) -> str:
    text = format_config(cfg)
    sys.stdout.write(text)
    return text


def _save_config(cfg: dict, text: str) -> Path:
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved_config.txt").write_text(text, encoding="utf-8")
    return out_dir


# --- subcommands -----------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = load_config(args)
    train_cfg = build_train_config(cfg)
    text = _announce(cfg)
    pair, transform = _prepare(cfg)
    # config errors that need the data (a prior of the wrong length, ts on a
    # pair without target-train labels) exit 2 before any file is written
    RunState.build(train_cfg, pair)
    out_dir = _save_config(cfg, text)
    if transform is not None:
        transform.save(out_dir / "transform.json")

    metrics_path = out_dir / "metrics.jsonl"
    with open(metrics_path, "w", encoding="utf-8") as fh:
        try:
            params, _ = fit(train_cfg, pair, on_epoch=lambda rec: fh.write(json.dumps(rec) + "\n"))
        except NonFiniteLossError as exc:
            fh.write(json.dumps({"abort": {"term": exc.term, "epoch": exc.epoch, "step": exc.step}}) + "\n")
            raise
    save_checkpoint(params, out_dir / "model.ctdr")
    report = evaluate(params, pair.target_test)
    (out_dir / "eval.json").write_text(json.dumps(report.to_json()) + "\n", encoding="utf-8")
    if cfg["export_embeddings"]:
        named = [("source", pair.source), ("target_train", pair.target_train), ("target_test", pair.target_test)]
        export_embeddings(params, named, out_dir / "embeddings.csv")
    print(f"[train] combo={train_cfg.combo} target_test_acc={report.accuracy:.4f} -> {out_dir}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args)
    _announce(cfg)
    params = load_checkpoint(args.checkpoint)
    if getattr(args, "transform", None):
        tr = FeatureTransform.load(args.transform)
        pair = build_pair(cfg).map_features(tr.apply)
    else:
        pair, _ = _prepare(cfg)
    report = evaluate(params, pair.target_test)
    blob = json.dumps(report.to_json(), indent=2) + "\n"
    sys.stdout.write(blob)
    if getattr(args, "out", None):
        Path(args.out).write_text(blob, encoding="utf-8")
    return 0


ABLATION_LADDER = ("ss", "ss,tu", "ss,tu,su", "ss,tu,su,ta", "ss,tu,su,sa", "ss,tu,su,sa,ta", "ts")


def cmd_ablate(args) -> int:
    cfg = load_config(args)
    base = build_train_config(cfg)
    run_cfgs = [replace(base, combo=LossCombo.parse(combo_text)) for combo_text in ABLATION_LADDER]
    text = _announce(cfg)
    pair, _ = _prepare(cfg)
    for run_cfg in run_cfgs:  # every rung's config errors before the first fit or file
        RunState.build(run_cfg, pair)
    out_dir = _save_config(cfg, text)
    rows = []
    for run_cfg in run_cfgs:
        params, _ = fit(run_cfg, pair)
        rep_target = evaluate(params, pair.target_test)
        rep_source = evaluate(params, pair.source)
        rows.append((str(run_cfg.combo), rep_target.accuracy, rep_source.accuracy))
        print(f"[ablate] {run_cfg.combo!s:<16} target_test={rep_target.accuracy:.4f} source_train={rep_source.accuracy:.4f}")
    with open(out_dir / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["combo", "acc_target_test", "acc_source_train"])
        for combo_text, acc_t, acc_s in rows:
            writer.writerow([combo_text, repr(float(acc_t)), repr(float(acc_s))])
    return 0


def cmd_synth(args) -> int:
    cfg = load_config(args)
    if cfg["data"] not in ("two_moons", "gauss_shift"):
        raise ConfigError("synth writes synthetic data; set data = two_moons or gauss_shift")
    text = _announce(cfg)
    pair = build_pair(cfg)
    out_dir = _save_config(cfg, text)
    save_sparse(pair.source, out_dir / "source.txt")
    save_sparse(pair.target_train_labeled(oracle=True), out_dir / "target_train.txt")
    save_sparse(pair.target_test, out_dir / "target_test.txt")
    print(f"[synth] wrote source.txt target_train.txt target_test.txt -> {out_dir}")
    return 0


# --- entry point -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctdr", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a `key = value` config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one config key (repeatable)")

    p_train = sub.add_parser("train", help="train a model and write metrics/checkpoint")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the configured target test set")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--transform", help="apply a saved feature transform instead of refitting")
    p_eval.add_argument("--out", help="also write the report JSON here")
    p_eval.set_defaults(func=cmd_eval)

    p_ablate = sub.add_parser("ablate", help="run the loss-combo ladder and write summary.csv")
    common(p_ablate)
    p_ablate.set_defaults(func=cmd_ablate)

    p_synth = sub.add_parser("synth", help="write the configured synthetic domain pair as sparse text files")
    common(p_synth)
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonFiniteLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CtdrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
