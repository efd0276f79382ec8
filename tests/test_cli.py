"""End-to-end tests of the command-line interface."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from test_data import write_idx_pair

import ctdr.cli
from ctdr.cli import (
    build_pair,
    format_config,
    load_config,
    main,
    parse_config_text,
    resolve_config,
)
from ctdr.data import load_sparse
from ctdr.errors import ConfigError, NonFiniteLossError


def small_train_cfg(tmp_path, name="cfg.txt", **extra):
    """A config file for a fast two-moons training run."""
    lines = {
        "data": "two_moons",
        "n": 40,
        "noise": 0.1,
        "epochs": 2,
        "hidden": "8",
        "batch": 16,
        "standardize": "false",
        "timing": "false",
        "out_dir": str(tmp_path / "out"),
    }
    lines.update(extra)
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return path


def read_metrics(out_dir):
    return (out_dir / "metrics.jsonl").read_text()


def test_parse_config_text_grammar():
    cfg = parse_config_text("# comment\nepochs = 5\n\ncombo = ss,tu  # trailing\n")
    assert cfg == {"epochs": "5", "combo": "ss,tu"}


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="nonsense"):
        parse_config_text("nonsense = 1\n", origin="test.cfg")


def test_parse_config_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("epochs = 1\nepochs = 2\n")


def test_parse_config_rejects_missing_equals():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("epochs 5\n", origin="test.cfg")
    assert "test.cfg:1" in str(exc.value)


def test_resolve_config_fills_defaults_and_types():
    cfg = resolve_config({"epochs": "5", "lr": "0.01", "hidden": "16,8"})
    assert cfg["epochs"] == 5
    assert cfg["lr"] == 0.01
    assert cfg["hidden"] == (16, 8)
    assert cfg["combo"] == "ss,tu"
    assert cfg["standardize"] is True


def test_resolve_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        resolve_config({"epochs": "five"})
    with pytest.raises(ConfigError):
        resolve_config({"standardize": "maybe"})
    with pytest.raises(ConfigError):
        resolve_config({"data": "imaginary"})


def test_format_config_round_trips():
    cfg = resolve_config({"epochs": "7", "lr": "0.0125", "skew": "0.8,0.2"})
    text = format_config(cfg)
    back = resolve_config(parse_config_text(text))
    assert back == cfg


def test_overrides_precedence(tmp_path):
    import argparse

    path = small_train_cfg(tmp_path, epochs=9, seed=1)
    ns = argparse.Namespace(config=str(path), seed=7, set=["epochs=3"])
    cfg = load_config(ns)
    assert cfg["seed"] == 7
    assert cfg["epochs"] == 3
    ns = argparse.Namespace(config=str(path), seed=None, set=[])
    cfg = load_config(ns)
    assert cfg["seed"] == 1
    assert cfg["epochs"] == 9


def test_cmd_train_writes_artifacts(tmp_path, capsys):
    path = small_train_cfg(tmp_path)
    assert main(["train", "--config", str(path)]) == 0
    out = tmp_path / "out"
    for artifact in ("resolved_config.txt", "metrics.jsonl", "model.ctdr", "eval.json"):
        assert (out / artifact).exists()
    printed = capsys.readouterr().out
    assert "combo = ss,tu" in printed
    assert "[train]" in printed

    records = [json.loads(line) for line in read_metrics(out).splitlines()]
    assert len(records) == 2
    final = json.loads((out / "eval.json").read_text())
    assert final["accuracy"] == records[-1]["acc"]["target_test"]


def test_cmd_train_same_seed_byte_identical(tmp_path):
    p1 = small_train_cfg(tmp_path, name="a.txt", out_dir=str(tmp_path / "o1"))
    p2 = small_train_cfg(tmp_path, name="b.txt", out_dir=str(tmp_path / "o2"))
    assert main(["train", "--config", str(p1), "--seed", "7"]) == 0
    assert main(["train", "--config", str(p2), "--seed", "7"]) == 0
    assert read_metrics(tmp_path / "o1") == read_metrics(tmp_path / "o2")
    assert (tmp_path / "o1" / "model.ctdr").read_bytes() == (
        tmp_path / "o2" / "model.ctdr"
    ).read_bytes()


def test_resolved_config_reproduces_run(tmp_path):
    path = small_train_cfg(tmp_path)
    assert main(["train", "--config", str(path), "--set", "epochs=3"]) == 0
    resolved = tmp_path / "out" / "resolved_config.txt"
    assert main(
        ["train", "--config", str(resolved), "--set", f"out_dir={tmp_path / 'out2'}"]
    ) == 0
    assert read_metrics(tmp_path / "out") == read_metrics(tmp_path / "out2")


def test_cmd_train_standardize_writes_transform(tmp_path):
    path = small_train_cfg(tmp_path, standardize="true")
    assert main(["train", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "transform.json").exists()


def test_cmd_train_export_embeddings(tmp_path):
    path = small_train_cfg(tmp_path, export_embeddings="true")
    assert main(["train", "--config", str(path)]) == 0
    emb = (tmp_path / "out" / "embeddings.csv").read_text().splitlines()
    assert emb[0].startswith("domain,row,label")
    assert len(emb) == 1 + 3 * 40


def test_cmd_eval_matches_training_accuracy(tmp_path, capsys):
    path = small_train_cfg(tmp_path)
    assert main(["train", "--config", str(path)]) == 0
    final = json.loads((tmp_path / "out" / "eval.json").read_text())
    capsys.readouterr()
    code = main(
        [
            "eval",
            "--config",
            str(path),
            "--checkpoint",
            str(tmp_path / "out" / "model.ctdr"),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    blob = json.loads(printed[printed.index("{") :])
    assert blob["accuracy"] == final["accuracy"]


def test_cmd_eval_feature_width_mismatch_is_exit_2(tmp_path):
    path = small_train_cfg(tmp_path)
    assert main(["train", "--config", str(path)]) == 0
    gauss = small_train_cfg(tmp_path, name="g.txt", data="gauss_shift")
    code = main(
        [
            "eval",
            "--config",
            str(gauss),
            "--checkpoint",
            str(tmp_path / "out" / "model.ctdr"),
        ]
    )
    assert code == 2


def test_cmd_eval_with_saved_transform(tmp_path, capsys):
    path = small_train_cfg(tmp_path, standardize="true")
    assert main(["train", "--config", str(path)]) == 0
    out = tmp_path / "out"
    capsys.readouterr()
    code = main(
        [
            "eval",
            "--config",
            str(path),
            "--checkpoint",
            str(out / "model.ctdr"),
            "--transform",
            str(out / "transform.json"),
            "--out",
            str(tmp_path / "report.json"),
        ]
    )
    assert code == 0
    final = json.loads((out / "eval.json").read_text())
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["accuracy"] == final["accuracy"]


def test_cmd_ablate_summary(tmp_path):
    path = small_train_cfg(tmp_path)
    assert main(["ablate", "--config", str(path)]) == 0
    lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert lines[0] == "combo,acc_target_test,acc_source_train"
    assert len(lines) == 8  # header + 6 ladder rows + ts
    combos = [line.split(",")[0] for line in lines[1:]]
    assert combos[0] == "ss"
    assert combos[-1] == "ts"

    # the ss row equals a standalone train run with the same seed
    solo = small_train_cfg(tmp_path, name="solo.txt", combo="ss", out_dir=str(tmp_path / "solo"))
    assert main(["train", "--config", str(solo)]) == 0
    final = json.loads((tmp_path / "solo" / "eval.json").read_text())
    ss_acc = float(lines[1].split(",")[1])
    assert ss_acc == final["accuracy"]


def test_cmd_synth_deterministic(tmp_path):
    cfg = small_train_cfg(tmp_path, out_dir=str(tmp_path / "s1"))
    assert main(["synth", "--config", str(cfg)]) == 0
    cfg2 = small_train_cfg(tmp_path, name="cfg2.txt", out_dir=str(tmp_path / "s2"))
    assert main(["synth", "--config", str(cfg2)]) == 0
    for fname in ("source.txt", "target_train.txt", "target_test.txt"):
        a = (tmp_path / "s1" / fname).read_bytes()
        b = (tmp_path / "s2" / fname).read_bytes()
        assert a == b


def test_cmd_synth_output_feeds_sparse_training(tmp_path):
    cfg = small_train_cfg(tmp_path, out_dir=str(tmp_path / "synth"))
    assert main(["synth", "--config", str(cfg)]) == 0
    sparse_cfg = small_train_cfg(
        tmp_path,
        name="sparse.txt",
        data="sparse",
        out_dir=str(tmp_path / "strain"),
        **{
            "source_sparse": str(tmp_path / "synth" / "source.txt"),
            "target_sparse": str(tmp_path / "synth" / "target_train.txt"),
            "target_test_sparse": str(tmp_path / "synth" / "target_test.txt"),
        },
    )
    assert main(["train", "--config", str(sparse_cfg)]) == 0
    assert (tmp_path / "strain" / "eval.json").exists()


def test_cmd_synth_requires_synthetic_data_mode(tmp_path):
    cfg = small_train_cfg(tmp_path, data="sparse")
    assert main(["synth", "--config", str(cfg)]) == 2


def test_unknown_key_is_exit_2(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("mystery = 1\n")
    assert main(["train", "--config", str(path)]) == 2


def test_missing_config_file_is_exit_4(tmp_path):
    assert main(["train", "--config", str(tmp_path / "absent.txt")]) == 4


def test_nonfinite_abort_is_exit_3(tmp_path, monkeypatch):
    path = small_train_cfg(tmp_path)

    def explode(config, pair, on_epoch=None):
        raise NonFiniteLossError("tu", float("nan"), epoch=0, step=1)

    monkeypatch.setattr(ctdr.cli, "fit", explode)
    assert main(["train", "--config", str(path)]) == 3
    # the abort is recorded in the metrics stream
    lines = read_metrics(tmp_path / "out").splitlines()
    last = json.loads(lines[-1])
    assert last["abort"]["term"] == "tu"


def test_set_override_rejects_unknown_key(tmp_path):
    path = small_train_cfg(tmp_path)
    assert main(["train", "--config", str(path), "--set", "bogus=1"]) == 2


def test_gauss_shift_data_mode(tmp_path):
    path = small_train_cfg(tmp_path, data="gauss_shift", **{"gauss_dim": 4, "n": 30})
    assert main(["train", "--config", str(path)]) == 0
    final = json.loads((tmp_path / "out" / "eval.json").read_text())
    assert 0.0 <= final["accuracy"] <= 1.0


def test_skew_applies_to_two_moons(tmp_path):
    path = small_train_cfg(tmp_path, skew="0.8,0.2", prior="0.8,0.2")
    assert main(["train", "--config", str(path)]) == 0
    final = json.loads((tmp_path / "out" / "eval.json").read_text())
    conf = np.array(final["confusion"])
    assert conf[0].sum() == 32 and conf[1].sum() == 8


def test_readme_data_examples_parse(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

    resize_line = re.search(r"`(resize = [^`]+)`", readme).group(1)
    pixels = np.arange(3 * 16 * 16, dtype=np.uint8).reshape(3, 16, 16)
    images, labels = write_idx_pair(tmp_path, pixels, [0, 1, 2])
    raw = parse_config_text(resize_line)
    raw.update({"data": "idx", "classes": "3"})
    for split in ("source", "target", "target_test"):
        raw[f"{split}_images"], raw[f"{split}_labels"] = str(images), str(labels)
    pair = build_pair(resolve_config(raw))
    assert pair.source.image_hw == (28, 28)
    assert pair.target_test.dim == 28 * 28

    header = re.search(r"`(width=\S+ classes=\S+)`", readme).group(1)
    path = tmp_path / "pair.txt"
    path.write_text(header.replace("<d>", "3").replace("<k>", "2") + "\n0 0:0.5 2:-1.25\n1 1:2.0\n")
    ds = load_sparse(path)
    assert (ds.dim, ds.num_classes) == (3, 2)
    assert np.array_equal(ds.features, [[0.5, 0.0, -1.25], [0.0, 2.0, 0.0]])
