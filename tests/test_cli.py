"""End-to-end tests of the command-line interface."""

import hashlib
import json
import re
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from test_data import write_idx_pair

import ctdr.cli
from ctdr.cli import (
    build_pair,
    build_train_config,
    format_config,
    load_config,
    main,
    parse_config_text,
    resolve_config,
)
from ctdr.data import load_sparse, save_sparse, synth_two_moons
from ctdr.errors import ConfigError, NonFiniteLossError
from ctdr.fake import FakeSourceConfig
from ctdr.train import TrainConfig


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


def test_every_config_field_is_reachable_from_a_key():
    """A TrainConfig / FakeSourceConfig field no key can set is a knob without a caller."""
    raw = {
        "combo": "ss,su,ta",
        "hidden": "16,8",
        "epochs": "7",
        "batch": "32",
        "lr": "0.01",
        "lr_decay": "0.5",
        "lr_decay_every": "3",
        "seed": "9",
        "prior": "0.7,0.3",
        **{f"w_{t}": "0.5" for t in ("ss", "tu", "su", "ta", "sa", "ts")},
        "fake_mode": "generator",
        "fake_n": "12",
        "noise_dim": "4",
        "gen_hidden": "8",
        "mmd_gamma": "0.25",
        "timing": "false",
    }
    config = build_train_config(resolve_config(raw))

    def at_default(obj, default):
        return [f.name for f in fields(obj) if getattr(obj, f.name) == getattr(default, f.name)]

    assert at_default(config, TrainConfig()) == []
    assert at_default(config.fake, FakeSourceConfig()) == []


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


# sha256 of (model.ctdr, metrics.jsonl) for two runs, taken when every draw
# was one scalar PCG32 call, so a change to the generator or to the order of
# draws cannot pass unseen (c09 only compares two runs of the same code). The
# digests also depend on the platform's libm (math.log/sin/cos) and BLAS.
FROZEN_RUNS = {
    "gauss64_gaussian_fakes": (
        {"data": "gauss_shift", "n": 60, "gauss_dim": 64, "gauss_classes": 5,
         "combo": "ss,tu,su,sa,ta", "fake_mode": "gaussian", "hidden": 16},
        "642f777ed4d157dda0c40b25f927246ca1d2e3de8465149a588c50ba0e898a00",
        "622c49efa80dbd975e3b8461b33a0faaceaa3e12dec4dcebd2a2b1bc14bd3e3c",
    ),
    "moons_generator": (
        {"combo": "ss,tu,ta", "fake_mode": "generator"},
        "a6a5f2ae8663c24566472577ccd9cc61db9fac1137002dc76f898e6aa69ae6f4",
        "1b19104c25f8af686248ddcf576dbc6163a5d262ea77e2ef94f89293422e3bd0",
    ),
    # sa on generator rows draws from the fake-source stream after the generator step
    "moons_generator_sa": (
        {"combo": "tu,sa,ta", "fake_mode": "generator"},
        "1e6f8a24334eb81b3337498230f0d0470042a5e1a434ea0a8a2722d893e858c3",
        "1db10907458a5ec50b5dcfd0c0ae1f2b915982eaa9163e36e4337506fd9aacdb",
    ),
}


@pytest.mark.parametrize("run", sorted(FROZEN_RUNS))
def test_cmd_train_artifacts_match_frozen_digests(tmp_path, run):
    extra, model_sha, metrics_sha = FROZEN_RUNS[run]
    path = small_train_cfg(tmp_path, **extra)
    assert main(["train", "--config", str(path)]) == 0
    out = tmp_path / "out"
    assert hashlib.sha256((out / "model.ctdr").read_bytes()).hexdigest() == model_sha
    assert hashlib.sha256((out / "metrics.jsonl").read_bytes()).hexdigest() == metrics_sha


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


def test_cmd_ablate_ts_row_matches_a_ts_train_run(tmp_path):
    path = small_train_cfg(tmp_path, seed=4)
    assert main(["ablate", "--config", str(path)]) == 0
    ts_row = (tmp_path / "out" / "summary.csv").read_text().splitlines()[-1].split(",")
    # ts in the combo is all it takes to train on the target-train labels
    solo = small_train_cfg(tmp_path, name="ts.txt", seed=4, combo="ts", out_dir=str(tmp_path / "ts"))
    assert main(["train", "--config", str(solo)]) == 0
    final = json.loads((tmp_path / "ts" / "eval.json").read_text())
    assert ts_row[0] == "ts"
    assert float(ts_row[1]) == final["accuracy"]


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


@pytest.mark.parametrize(
    "lr, term, message",
    [
        # the second step's logits overflow
        ("1e200", "ss", "non-finite logits in term 'ss' at epoch 0 step 1: nan"),
        # g*g overflows Adam's v, which would freeze the tensor
        ("1e100", "adam", "non-finite second moment of enc0.w in term 'adam' at epoch 0 step 1: inf"),
    ],
)
def test_overflow_is_exit_3_with_abort_record_and_no_numpy_warning(tmp_path, capsys, lr, term, message):
    path = small_train_cfg(tmp_path, lr=lr, hidden="8,8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--config", str(path)]) == 3
    assert json.loads(read_metrics(tmp_path / "out").splitlines()[-1]) == {"abort": {"term": term, "epoch": 0, "step": 1}}
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["train", "ablate"])
# prior=0.5,0.3,0.2 parses, but two-moons has two classes: only the data shows it
@pytest.mark.parametrize(
    "bad",
    ["combo=zz", "prior=abc", "lr=0", "mmd_gamma=x", "prior=0.5,0.3,0.2", "lr=inf", "w_tu=nan", "w_tu=inf", "mmd_gamma=inf"],
)
def test_bad_train_config_is_exit_2_before_any_file_is_written(tmp_path, command, bad):
    path = small_train_cfg(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, "--config", str(path), "--set", bad]) == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_prior_of_the_wrong_length_creates_no_out_dir(tmp_path, capsys, command):
    path = small_train_cfg(tmp_path, prior="0.5,0.3,0.2")
    assert main([command, "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()
    assert "prior" in capsys.readouterr().err


def test_nan_label_skew_creates_no_out_dir(tmp_path, capsys):
    path = small_train_cfg(tmp_path, skew="nan,nan")
    assert main(["train", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()
    assert "prior entries must be finite" in capsys.readouterr().err


def test_non_utf8_config_is_exit_2_naming_file_and_line(tmp_path, capsys):
    path = small_train_cfg(tmp_path)
    head = path.read_bytes() + b"combo = ss"
    path.write_bytes(head + b"\xff\xfe\n")
    line_no = len(head.splitlines())
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:{line_no}: not UTF-8 (byte {len(head)})\n"
    assert not (tmp_path / "out").exists()


def test_ablate_needs_target_train_labels_before_it_fits_or_writes(tmp_path, monkeypatch):
    pair = synth_two_moons(40, 35.0, 0.1, seed=0)
    for name, ds in (("source", pair.source), ("target", pair.target_train), ("test", pair.target_test)):
        save_sparse(ds, tmp_path / f"{name}.txt")  # target_train is written unlabeled
    path = small_train_cfg(
        tmp_path,
        data="sparse",
        source_sparse=tmp_path / "source.txt",
        target_sparse=tmp_path / "target.txt",
        target_test_sparse=tmp_path / "test.txt",
    )
    fits = []
    monkeypatch.setattr(ctdr.cli, "fit", lambda *args, **kw: fits.append(args))
    # the ts rung has no labels to train on; the six rungs before it never run
    assert main(["ablate", "--config", str(path)]) == 2
    assert fits == []
    assert not (tmp_path / "out").exists()


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
