"""End-to-end tests of the command-line interface."""

import argparse
import errno
import fnmatch
import hashlib
import json
import os
import re
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from numpy_targets import numpy_kernels
from test_data import write_idx_pair

import ctdr.cli
import ctdr.train
from ctdr.cli import (
    build_pair,
    build_train_config,
    format_config,
    load_config,
    main,
    parse_config_text,
    resolve_config,
)
from ctdr.data import Dataset, DomainPair, load_sparse, save_sparse, synth_gauss_shift, synth_two_moons
from ctdr.errors import ConfigError, NonFiniteLossError
from ctdr.fake import FakeSourceConfig
from ctdr.model import forward, load_checkpoint, save_checkpoint
from ctdr.numerics import Rng
from ctdr.train import LossCombo, TrainConfig, fit


def small_train_cfg(tmp_path, name="cfg.txt", **extra):
    """A config file for a fast training run, on two-moons unless `data` says
    otherwise. `n` is written only for the synthetic modes and `noise` only
    for two-moons, as no other mode reads them."""
    data = extra.get("data", "two_moons")
    lines = {
        "data": data,
        **({"n": 40} if data in ("two_moons", "gauss_shift") else {}),
        **({"noise": 0.1} if data == "two_moons" else {}),
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
    assert cfg["combo"] == ("ss", "tu")
    assert cfg["standardize"] is True


def test_resolve_config_rejects_unknown_keys():
    # a key SCHEMA no longer has (say, from an old resolved_config.txt) fails loudly
    for key in ("bogus", "lr_decay", "noise_dim", "mmd_gamma"):
        with pytest.raises(ConfigError, match=f"^unknown key '{key}'$"):
            resolve_config({"epochs": "5", key: "1"})


def test_config_defaults_are_the_dataclass_defaults():
    cfg = resolve_config({})
    pair = build_pair(cfg)[0]
    assert build_train_config(cfg, pair) == (TrainConfig(), pair)


def test_resolve_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        resolve_config({"epochs": "five"})
    with pytest.raises(ConfigError):
        resolve_config({"standardize": "maybe"})
    with pytest.raises(ConfigError):
        resolve_config({"data": "imaginary"})


DEFAULT_CONFIG_TEXT = """\
data = two_moons
n = 500
rotation = 35.0
noise = 0.12
skew = 
gauss_classes = 3
gauss_dim = 8
gauss_mean_shift = 1.0
gauss_cov_scale = 1.5
classes = 10
source_images = 
source_labels = 
target_images = 
target_labels = 
target_test_images = 
target_test_labels = 
source_sparse = 
target_sparse = 
target_test_sparse = 
resize = 
n_source = 0
n_target = 0
n_target_test = 0
standardize = true
combo = ss,tu
hidden = 128,128
epochs = 100
batch = 128
lr = 0.001
seed = 0
prior = assume_source
fake_mode = gaussian
out_dir = ctdr_out
export_embeddings = false
timing = true
"""


def test_default_config_text_and_data_choice_are_pinned():
    """Key order, defaults and formatting of the printed config, and the order in which `data`'s error lists
    the modes: the data-mode table must not move them."""
    assert format_config(resolve_config({})) == DEFAULT_CONFIG_TEXT
    with pytest.raises(ConfigError) as exc:
        resolve_config({"data": "imaginary"})
    assert str(exc.value) == "bad value for 'data': expected one of ('two_moons', 'gauss_shift', 'idx', 'sparse'), got 'imaginary'"


# A value other than its default for every key but combo and prior, which each case sets
NON_DEFAULT = {
    "data": "gauss_shift", "n": "30", "rotation": "10", "noise": "0.3", "skew": "0.8,0.2", "gauss_classes": "4",
    "gauss_dim": "5", "gauss_mean_shift": "2", "gauss_cov_scale": "2", "classes": "3",
    **{f"{split}_{kind}": f"{split}.{kind}" for split in ("source", "target", "target_test") for kind in ("images", "labels", "sparse")},
    "resize": "28x28", **{f"n_{split}": "5" for split in ("source", "target", "target_test")}, "standardize": "false",
    "hidden": "16,8", "epochs": "7", "batch": "32", "lr": "0.0125", "seed": "9", "fake_mode": "generator",
    "out_dir": "elsewhere", "export_embeddings": "true", "timing": "false",
}


@pytest.mark.parametrize(
    "combo, prior, printed",
    [("tu+ss", "1,0", ("ss,tu", "1.0,0.0")), ("ts", "0.25, .75", ("ts", "0.25,0.75")), ("ss", "assume_source", ("ss", "assume_source"))],
    ids=["tu+ss", "ts", "assume_source"],
)
def test_format_config_round_trips(combo, prior, printed):
    cfg = resolve_config({**NON_DEFAULT, "combo": combo, "prior": prior})
    assert set(NON_DEFAULT) == set(ctdr.cli.SCHEMA) - {"combo", "prior"}
    assert [key for key in NON_DEFAULT if cfg[key] == ctdr.cli.SCHEMA[key][1]] == []
    text = format_config(cfg)
    assert [line for line in text.splitlines() if line.startswith(("combo =", "prior =", "skew ="))] == [
        "skew = 0.8,0.2", f"combo = {printed[0]}", f"prior = {printed[1]}",
    ]
    back = resolve_config(parse_config_text(text))
    assert back == cfg
    assert format_config(back) == text


def test_every_config_field_is_reachable_from_a_key():
    """A TrainConfig / FakeSourceConfig field no key can set is a knob without a caller."""
    raw = {
        "combo": "ss,su,ta",
        "hidden": "16,8",
        "epochs": "7",
        "batch": "32",
        "lr": "0.01",
        "seed": "9",
        "prior": "0.7,0.3",
        "fake_mode": "generator",
        "timing": "false",
    }
    cfg = resolve_config(raw)
    config, _ = build_train_config(cfg, build_pair(cfg)[0])

    def at_default(obj, default):
        return [f.name for f in fields(obj) if getattr(obj, f.name) == getattr(default, f.name)]

    assert at_default(config, TrainConfig()) == []
    assert at_default(config.fake, FakeSourceConfig()) == []


def test_overrides_precedence(tmp_path):
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
# digests also depend on the platform's libm (math.log/sin/cos), on BLAS, and
# on numpy's SIMD dispatch target: np.exp and np.log give other bytes under its
# AVX-512 kernels than under AVX2, so these three digests, and the
# train_embeddings one below, hold only on an AVX-512 host like the one that
# took them.
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
    for name, sha in (("model.ctdr", model_sha), ("metrics.jsonl", metrics_sha)):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha, f"{name} ({numpy_kernels()})"


# sha256 of the text files that `synth` and `train --set export_embeddings=true`
# write, taken while save_sparse and export_embeddings formatted one value at a
# time, so a faster writer must keep every byte
FROZEN_TEXT = {
    "synth_moons_skew": ("synth", {"skew": "0.7,0.3"}, {
        "source.txt": "ad38fa667b8d11db65620904f1d90aa05064aa6bf02201d7e928721109a6c1b0",
        "target_train.txt": "675a9b3eb41ee16d4ec7a5b00fe2a4276390d608b51cefffbe958eb249c82984",
        "target_test.txt": "a27cd9e38dcf559fc5ea8274c75964e414a63e18f3f92a00f8453c280e57d7ed",
    }),
    "synth_gauss_shift": ("synth", {"data": "gauss_shift", "gauss_dim": 6}, {
        "source.txt": "5ccbe14f1b93cdd323d000a02d90602fb26d23b01f01b542f61a03b39c8e4cba",
        "target_train.txt": "d61dbaa736f78650bdae4447bfad0b7a4ac12ecc9acfce3033edaf9d097e08d4",
        "target_test.txt": "0072813f1e828e712e8db4cccc833cdb453d7f123cadce4a4e460d5bfc24a2a5",
    }),
    "train_embeddings": ("train", {"export_embeddings": "true"}, {
        "embeddings.csv": "1cd33389f9e0f18664af34b0b314a5e782a8aa88358ab6bbb4e44f2cb82f60f3",
    }),
}


@pytest.mark.parametrize("run", sorted(FROZEN_TEXT))
def test_text_artifacts_match_frozen_digests(tmp_path, run):
    command, extra, digests = FROZEN_TEXT[run]
    path = small_train_cfg(tmp_path, **extra)
    assert main([command, "--config", str(path)]) == 0
    for name, sha in digests.items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == sha, f"{name} ({numpy_kernels()})"


# sha256 of summary.csv, and the printed rows, of an ablation whose seven rows
# differ, taken when ablate ran its own fit/evaluate loop beside train's
FROZEN_SUMMARY = "8b350b9c2d837b134ccf0b7da0e6e5ed371d4775f7b342c27b842a46d8d12ca3"
FROZEN_ABLATE_LINES = [
    "[ablate] ss               target_test=0.7000 source_train=0.9000",
    "[ablate] ss+tu            target_test=0.8500 source_train=0.8250",
    "[ablate] ss+tu+su         target_test=0.8500 source_train=0.8250",
    "[ablate] ss+tu+su+ta      target_test=0.7250 source_train=0.9250",
    "[ablate] ss+tu+su+sa      target_test=0.8000 source_train=0.8750",
    "[ablate] ss+tu+su+ta+sa   target_test=0.7250 source_train=0.9250",
    "[ablate] ts               target_test=0.8250 source_train=0.7500",
]


def test_cmd_ablate_summary_matches_frozen_digest(tmp_path, capsys):
    path = small_train_cfg(tmp_path, epochs=15, lr=0.01)
    assert main(["ablate", "--config", str(path)]) == 0
    assert hashlib.sha256((tmp_path / "out" / "summary.csv").read_bytes()).hexdigest() == FROZEN_SUMMARY
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if line.startswith("[ablate]")] == FROZEN_ABLATE_LINES


@pytest.mark.parametrize("combo", ["ss+tu", "ss+tu+su+ta", "ts"])
def test_ablate_rung_directory_equals_a_train_run_of_its_combo(tmp_path, combo):
    path = small_train_cfg(tmp_path, export_embeddings="true", epochs=3)
    assert main(["ablate", "--config", str(path)]) == 0
    solo = small_train_cfg(tmp_path, name="solo.txt", export_embeddings="true", epochs=3, combo=combo,
                           out_dir=str(tmp_path / "solo"))
    assert main(["train", "--config", str(solo)]) == 0
    for artifact in ("model.ctdr", "metrics.jsonl", "eval.json", "embeddings.csv"):
        rung = (tmp_path / "out" / combo / artifact).read_bytes()
        assert rung == (tmp_path / "solo" / artifact).read_bytes(), artifact
    # the oracle rung fits on target-train rows, but exports the real source rows
    pair, _ = build_pair(resolve_config(parse_config_text(path.read_text())))
    params = load_checkpoint(tmp_path / "out" / combo / "model.ctdr")
    lines = (tmp_path / "out" / combo / "embeddings.csv").read_text().splitlines()
    source = [line.split(",") for line in lines if line.startswith("source,")]
    assert [int(row[2]) for row in source] == pair.source.labels.tolist()
    embeddings = forward(params, pair.source.features).embeddings
    written = [[float(v) for v in row[3 : 3 + embeddings.shape[1]]] for row in source]
    assert np.array_equal(np.array(written), embeddings)


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


def test_cmd_eval_feature_width_mismatch_is_exit_2(tmp_path, capsys):
    path = small_train_cfg(tmp_path)
    assert main(["train", "--config", str(path)]) == 0
    checkpoint, report = tmp_path / "out" / "model.ctdr", tmp_path / "report.json"
    gauss = small_train_cfg(tmp_path, name="g.txt", data="gauss_shift", gauss_classes=2)
    capsys.readouterr()
    code = main(["eval", "--config", str(gauss), "--checkpoint", str(checkpoint), "--out", str(report)])
    assert code == 2
    message = f"checkpoint {checkpoint} on the target test set: forward: input width 8, model expects 2"
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not report.exists()


def os_error(code, path) -> str:
    """main's stderr line for an OSError of errno `code` on `path`."""
    return f"error: {OSError(code, os.strerror(code), str(path))}\n"


@pytest.mark.parametrize(
    "checkpoint, out, code, message",
    [
        ("absent.ctdr", "report.json", 4, lambda ckpt, out: os_error(errno.ENOENT, ckpt)),
        ("cut.ctdr", "report.json", 2, lambda ckpt, out: f"error: {ckpt}: checkpoint truncated at byte 49 (wanted 128 more)\n"),
        ("out/model.ctdr", "absent/report.json", 4, lambda ckpt, out: os_error(errno.ENOENT, out)),
    ],
    ids=["missing_checkpoint", "truncated_checkpoint", "out_in_a_missing_directory"],
)
def test_cmd_eval_that_fails_on_its_checkpoint_or_out_prints_nothing(tmp_path, capsys, checkpoint, out, code, message):
    # eval prints the resolved config with its report, once --out is written
    path = small_train_cfg(tmp_path)
    assert main(["train", "--config", str(path)]) == 0
    (tmp_path / "cut.ctdr").write_bytes((tmp_path / "out" / "model.ctdr").read_bytes()[:100])
    checkpoint, out = tmp_path / checkpoint, tmp_path / out
    capsys.readouterr()
    assert main(["eval", "--config", str(path), "--checkpoint", str(checkpoint), "--out", str(out)]) == code
    assert capsys.readouterr() == ("", message(checkpoint, out))
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate", "synth"])
def test_an_out_dir_that_is_a_file_is_exit_4_with_nothing_on_stdout(tmp_path, capsys, command):
    # the resolved config is printed once out_dir and resolved_config.txt are written
    taken = tmp_path / "taken"
    taken.write_text("")
    path = small_train_cfg(tmp_path, out_dir=str(taken))
    assert main([command, "--config", str(path)]) == 4
    assert capsys.readouterr() == ("", os_error(errno.EEXIST, taken))


@pytest.mark.parametrize(
    "train_extra, eval_extra, k_model, k_data",
    [
        ({}, {"data": "gauss_shift", "gauss_dim": 2, "gauss_classes": 3}, 2, 3),
        ({"data": "gauss_shift", "gauss_dim": 2, "gauss_classes": 3}, {}, 3, 2),
    ],
)
def test_cmd_eval_class_count_mismatch_is_exit_2_naming_the_checkpoint(
    tmp_path, capsys, train_extra, eval_extra, k_model, k_data
):
    path = small_train_cfg(tmp_path, **train_extra)
    assert main(["train", "--config", str(path)]) == 0
    checkpoint = tmp_path / "out" / "model.ctdr"
    data_cfg = small_train_cfg(tmp_path, name="eval.txt", out_dir=str(tmp_path / "eval_out"), **eval_extra)
    report = tmp_path / "report.json"
    capsys.readouterr()
    code = main(["eval", "--config", str(data_cfg), "--checkpoint", str(checkpoint), "--out", str(report)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert str(checkpoint) in err
    assert f"the model has {k_model} classes, the dataset {k_data}" in err
    assert not report.exists() and not (tmp_path / "eval_out").exists()


def test_cmd_eval_transform_width_mismatch_names_the_transform_and_both_widths(tmp_path, capsys):
    path = small_train_cfg(tmp_path, standardize="true")
    assert main(["train", "--config", str(path)]) == 0
    transform = tmp_path / "out" / "transform.json"
    gauss = small_train_cfg(tmp_path, name="g.txt", data="gauss_shift", gauss_dim=4)
    report = tmp_path / "report.json"
    capsys.readouterr()
    code = main(["eval", "--config", str(gauss), "--checkpoint", str(tmp_path / "out" / "model.ctdr"),
                 "--transform", str(transform), "--out", str(report)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and not report.exists()
    assert err.startswith(f"error: transform {transform} ") and "the transform has width 2, the data 4" in err


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


def test_cmd_eval_of_an_ablation_rung_with_its_saved_transform(tmp_path):
    path = small_train_cfg(tmp_path, standardize="true")
    assert main(["ablate", "--config", str(path)]) == 0
    out = tmp_path / "out"
    rung = out / "ss+tu"
    report = tmp_path / "report.json"
    assert main(
        ["eval", "--config", str(path), "--checkpoint", str(rung / "model.ctdr"),
         "--transform", str(out / "transform.json"), "--out", str(report)]
    ) == 0
    assert json.loads(report.read_text())["accuracy"] == json.loads((rung / "eval.json").read_text())["accuracy"]


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


def test_train_ts_writes_the_model_of_an_ss_fit_on_the_oracle_pair(tmp_path):
    # the skew gives source and target-train different label vectors, so a
    # ts run on the wrong split's rows or labels writes another model
    path = small_train_cfg(tmp_path, skew="0.8,0.2", combo="ts")
    assert main(["train", "--config", str(path)]) == 0
    pair, _ = build_pair(resolve_config(parse_config_text(path.read_text())))
    oracle = DomainPair(pair.target_train_labeled(oracle=True), pair.target_train, pair.target_test)
    assert not np.array_equal(oracle.source.labels, pair.source.labels)
    ss = TrainConfig(LossCombo.parse("ss"), epochs=2, batch_size=16, hidden=(8,), timing=False)

    def model_bytes(on, name):
        save_checkpoint(fit(ss, on)[0], tmp_path / name)
        return (tmp_path / name).read_bytes()

    written = (tmp_path / "out" / "model.ctdr").read_bytes()
    assert written == model_bytes(oracle, "oracle.ctdr")
    assert written != model_bytes(pair, "pair.ctdr")
    # its metrics record the loss under ss, and the source accuracy on target-train
    records = [json.loads(line) for line in read_metrics(tmp_path / "out").splitlines()]
    assert [list(rec["loss"]) for rec in records] == [["ss", "tu", "su", "ta", "sa", "gen"]] * 2
    assert records == fit(ss, oracle)[1]


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


FILE_MODES = [mode for mode, (_, args) in ctdr.cli.DATA_MODES.items() if ctdr.cli._paths(args)]


@pytest.mark.parametrize("mode", FILE_MODES)
def test_cmd_synth_requires_synthetic_data_mode(tmp_path, capsys, mode):
    cfg = small_train_cfg(tmp_path, data=mode)
    assert main(["synth", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: synth writes synthetic data; set data = two_moons or gauss_shift\n"
    assert not (tmp_path / "out").exists()


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


def test_eval_of_a_checkpoint_whose_logits_overflow_is_exit_3_with_no_numpy_warning(tmp_path, capsys):
    path = small_train_cfg(tmp_path)
    assert main(["train", "--config", str(path)]) == 0
    params = load_checkpoint(tmp_path / "out" / "model.ctdr")
    for tensor in params.tensors.values():
        tensor[...] = 1e300
    save_checkpoint(params, tmp_path / "big.ctdr")
    report = tmp_path / "report.json"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eval", "--config", str(path), "--checkpoint", str(tmp_path / "big.ctdr"), "--out", str(report)]) == 3
    assert capsys.readouterr() == ("", "error: non-finite logits in term 'forward': inf\n")
    assert not report.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_a_standardizer_spread_that_overflows_is_exit_2_naming_the_key_before_any_file(tmp_path, capsys, command):
    out = tmp_path / "out"
    args = ["--set", "data=gauss_shift", "--set", "gauss_mean_shift=1e200", "--set", f"out_dir={out}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, *args]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: --set: the source and target_train rows: column 0 overflows float64 \(mean \S+, std inf\)\n", err)
    assert not out.exists()


def test_an_mmd_bandwidth_that_overflows_is_exit_3_with_a_gen_abort_and_no_numpy_warning(tmp_path, capsys):
    # finite embeddings of 1e160-scale target rows whose squared distances overflow
    pair = synth_two_moons(60, 35.0, 0.1, seed=1)
    splits = {"source": pair.source, "target": Dataset(pair.target_train.features * 1e160, None, 2), "test": pair.target_test}
    for name, ds in splits.items():
        save_sparse(ds, tmp_path / f"{name}.txt")
    sparse = {f"{k}_sparse": tmp_path / f"{f}.txt" for k, f in (("source", "source"), ("target", "target"), ("target_test", "test"))}
    path = small_train_cfg(tmp_path, data="sparse", combo="ss,tu,ta", fake_mode="generator", epochs=1, hidden="8,8", **sparse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--config", str(path)]) == 3
    assert json.loads(read_metrics(tmp_path / "out").splitlines()[-1]) == {"abort": {"term": "gen", "epoch": 0, "step": 0}}
    assert capsys.readouterr().err == "error: non-finite median squared distance in term 'gen' at epoch 0 step 0: inf\n"


def test_a_fake_row_spread_that_overflows_is_exit_2_naming_the_combo_before_any_file(tmp_path, capsys):
    # a sparse target column of 0 and 1e200 rows: ta's gaussian fakes would be inf
    pair = synth_two_moons(40, 35.0, 0.1, seed=0)
    wide = np.hstack([pair.target_train.features, np.zeros((40, 1))])
    wide[::2, 2] = 1e200
    for name, ds in (("source", pair.source), ("test", pair.target_test)):
        save_sparse(Dataset(np.hstack([ds.features, np.zeros((40, 1))]), ds.labels, 2), tmp_path / f"{name}.txt")
    save_sparse(Dataset(wide, None, 2), tmp_path / "target.txt")
    sparse = {f"{k}_sparse": tmp_path / f"{f}.txt" for k, f in (("source", "source"), ("target", "target"), ("target_test", "test"))}
    path = small_train_cfg(tmp_path, data="sparse", **sparse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--config", str(path), "--set", "combo=ss,tu,ta"]) == 2
    err = capsys.readouterr().err
    rows = re.escape(str(tmp_path / "target.txt"))
    assert re.fullmatch(rf"error: --set: the {rows} rows: column 2 overflows float64 \(mean \S+, std inf\)\n", err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
# prior=0.5,0.3,0.2 parses, but two-moons has two classes: only the data shows it
@pytest.mark.parametrize(
    "bad",
    ["combo=zz", "prior=abc", "lr=0", "mmd_gamma=x", "prior=0.5,0.3,0.2", "lr=inf", "w_tu=nan", "w_tu=inf", "mmd_gamma=inf", "seed=-1"],
)
def test_bad_train_config_is_exit_2_before_any_file_is_written(tmp_path, command, bad):
    # w_tu, mmd_gamma: lines of an older resolved_config.txt are unknown keys
    path = small_train_cfg(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, "--config", str(path), "--set", bad]) == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["eval", "synth"])
@pytest.mark.parametrize("bad", ["epochs=-3", "combo=zz", "lr=0", "mmd_gamma=x", "seed=-1", "prior=0.5,0.6"])
def test_eval_and_synth_reject_a_bad_training_key_before_any_file(tmp_path, capsys, command, bad):
    # a resolved config holds only valid values, so it is valid input to every command
    path = small_train_cfg(tmp_path)
    assert main(["train", "--config", str(path), "--set", f"out_dir={tmp_path / 'model'}", "--set", "epochs=0"]) == 0
    report = tmp_path / "eval.json"
    args = ["--checkpoint", str(tmp_path / "model" / "model.ctdr"), "--out", str(report)] if command == "eval" else []
    capsys.readouterr()
    assert main([command, "--config", str(path), "--set", bad, *args]) == 2
    assert capsys.readouterr().err.startswith("error: --set: ")
    assert not (tmp_path / "out").exists() and not report.exists()


def absent_checkpoint(tmp_path, command):
    """eval's --checkpoint, at a path that does not exist: a config error must come before eval opens it."""
    return ["--checkpoint", str(tmp_path / "absent.ctdr")] if command == "eval" else []


@pytest.mark.parametrize("command", ["train", "ablate", "eval", "synth"])
def test_every_command_rejects_a_prior_that_does_not_sum_to_1(tmp_path, capsys, command):
    # the training config checks the prior when it is built, so a command that trains nothing rejects it too;
    # eval rejects it before it opens the checkpoint
    path = small_train_cfg(tmp_path)
    assert main([command, "--config", str(path), "--set", "prior=0.5,0.6", *absent_checkpoint(tmp_path, command)]) == 2
    assert capsys.readouterr().err == "error: --set: prior sums to 1.1, expected 1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "ablate", "eval", "synth"])
def test_prior_of_the_wrong_length_creates_no_out_dir(tmp_path, capsys, command):
    # every command checks the training config on the data, so a config that one rejects, all reject
    path = small_train_cfg(tmp_path, prior="0.5,0.3,0.2")
    line_no = len(path.read_text().splitlines())
    assert main([command, "--config", str(path), *absent_checkpoint(tmp_path, command)]) == 2
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err == f"error: {path}:{line_no}: prior has 3 entries, expected 2\n"
    # from --set over a good file, the error names --set
    good = small_train_cfg(tmp_path, name="good.txt")
    assert main([command, "--config", str(good), "--set", "prior=0.5,0.3,0.2", *absent_checkpoint(tmp_path, command)]) == 2
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err == "error: --set: prior has 3 entries, expected 2\n"


@pytest.mark.parametrize("command", ["train", "ablate", "eval", "synth"])
def test_a_hidden_layer_of_width_0_is_exit_2_under_every_command(tmp_path, capsys, command):
    path = small_train_cfg(tmp_path)
    assert main([command, "--config", str(path), "--set", "hidden=0", *absent_checkpoint(tmp_path, command)]) == 2
    assert capsys.readouterr().err == "error: --set: need >= 2 layer widths, each >= 1: got (2, 0, 2), generator ()\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "ablate", "eval", "synth"])
def test_a_hidden_layer_too_wide_for_a_checkpoint_is_exit_2_under_every_command(tmp_path, capsys, command):
    # checkpoints store layer widths as u32; the run is rejected before any weight is allocated
    out = tmp_path / "out"
    bad = ["--set", "n=10", "--set", "epochs=1", "--set", "hidden=1000000000000", "--set", f"out_dir={out}"]
    assert main([command, *bad, *absent_checkpoint(tmp_path, command)]) == 2
    message = "error: --set: layer widths must be < 2^32: got (2, 1000000000000, 2), generator ()\n"
    assert capsys.readouterr() == ("", message)
    assert not out.exists()


@pytest.mark.parametrize(
    "raised, line", [(MemoryError("Unable to allocate 8.00 TiB"), "Unable to allocate 8.00 TiB"), (MemoryError(), "MemoryError")]
)
def test_a_memory_error_is_exit_4_with_one_error_line(tmp_path, monkeypatch, capsys, raised, line):
    # fit is patched: a real allocation this large could succeed where memory is overcommitted, and then fill it
    def fit(*args, **kwargs):
        raise raised

    monkeypatch.setattr(ctdr.cli, "fit", fit)
    assert main(["train", "--config", str(small_train_cfg(tmp_path))]) == 4
    assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize("command", ["train", "ablate", "eval", "synth"])
@pytest.mark.parametrize("bad", ["prior=0.5,0.3,0.2", "hidden=0", "lr=0", "n=1", "gauss_dim=5", "data=imaginary"])
def test_a_command_that_exits_2_on_its_config_writes_nothing_to_stdout(tmp_path, capsys, command, bad):
    # _start prints nothing; the step that writes a command's output prints the resolved config
    path = small_train_cfg(tmp_path)
    assert main([command, "--config", str(path), "--set", bad, *absent_checkpoint(tmp_path, command)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "sets", [[], ["prior=0.5,0.5"], ["combo=ss,tu,ta", "fake_mode=generator"], ["prior=0.5,0.3,0.2"], ["hidden=0"], ["hidden=4,0"]],
    ids=lambda sets: " ".join(sets) or "defaults",
)
def test_synth_accepts_exactly_what_train_accepts_and_train_accepts_what_synth_wrote(tmp_path, capsys, sets):
    path = small_train_cfg(tmp_path)
    overrides = [arg for item in sets for arg in ("--set", item)]
    synth = main(["synth", "--config", str(path), *overrides, "--set", f"out_dir={tmp_path / 'synth'}"])
    assert synth == main(["train", "--config", str(path), *overrides])
    if synth == 0:
        assert main(["train", "--config", str(tmp_path / "synth" / "resolved_config.txt")]) == 0


def test_nan_label_skew_creates_no_out_dir(tmp_path, capsys):
    path = small_train_cfg(tmp_path, skew="nan,nan")
    assert main(["train", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()
    assert "label_skew entries must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "ablate", "synth"])
@pytest.mark.parametrize(
    "data, key, value",
    [
        ("two_moons", "n_target_test", "-5"),
        ("two_moons", "n_source", "-1"),
        ("two_moons", "resize", "abc"),
        ("gauss_shift", "n_target", "3"),
    ],
)
def test_idx_only_keys_elsewhere_are_exit_2_with_no_out_dir(tmp_path, capsys, command, data, key, value):
    path = small_train_cfg(tmp_path, data=data, **{key: value})
    assert main([command, "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()
    assert f"{key} = {value} applies only to data = idx, not data = {data}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, base, key, value, message",
    [
        ("train", {}, "gauss_dim", "5", "gauss_dim = 5 applies only to data = gauss_shift, not data = two_moons"),
        ("train", {}, "classes", "3", "classes = 3 applies only to data = idx, not data = two_moons"),
        ("train", {"data": "gauss_shift"}, "rotation", "10", "rotation = 10.0 applies only to data = two_moons, not data = gauss_shift"),
        ("train", {"data": "gauss_shift"}, "noise", "0.3", "noise = 0.3 applies only to data = two_moons, not data = gauss_shift"),
        ("train", {}, "fake_mode", "generator", "fake_mode = generator applies only to ta or sa runs, not this ctdr train"),
        ("train", {"combo": "ss"}, "prior", "0.5,0.5", "prior = 0.5,0.5 applies only to tu runs, not this ctdr train"),
        ("ablate", {}, "combo", "ss,ta", "combo = ss,ta applies only to train runs, not this ctdr ablate"),
    ],
)
def test_a_key_no_run_reads_is_exit_2_naming_where_it_was_given(tmp_path, capsys, command, base, key, value, message):
    path = small_train_cfg(tmp_path, **base, **{key: value})
    line_no = next(i for i, line in enumerate(path.read_text().splitlines(), 1) if line.startswith(f"{key} ="))
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:{line_no}: {message}\n"
    good = small_train_cfg(tmp_path, name="good.txt", **base)
    assert main([command, "--config", str(good), "--set", f"{key}={value}"]) == 2
    assert capsys.readouterr().err == f"error: --set: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("combo", ["ss+tu", "tu,ss", "ss, tu"])
def test_ablate_accepts_the_default_combo_however_it_is_spelled(tmp_path, capsys, combo):
    path = small_train_cfg(tmp_path, combo=combo, epochs=0)
    assert main(["ablate", "--config", str(path)]) == 0
    assert "combo = ss,tu\n" in (tmp_path / "out" / "resolved_config.txt").read_text()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("origin", ["file", "--set"])
def test_a_fault_of_two_keys_names_the_key_that_completes_it(tmp_path, capsys, origin):
    # under data = gauss_shift, neither n = 5 nor gauss_classes = 8 fails alone; together n < classes
    if origin == "file":
        path = small_train_cfg(tmp_path, data="gauss_shift", n="5", gauss_classes="8")
        args, at = [], f"{path}:{len(path.read_text().splitlines())}"
    else:
        path = small_train_cfg(tmp_path, data="gauss_shift")
        args, at = ["--set", "n=5", "--set", "gauss_classes=8"], "--set"
    assert main(["train", "--config", str(path), *args]) == 2
    assert capsys.readouterr().err == f"error: {at}: synth_gauss_shift: need n >= num_classes\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_eval_and_synth_accept_a_resolved_config(tmp_path, capsys, command):
    # eval and synth check a run of the config's combo on the data, as train does, and reject no key
    # for a scope that only training runs have, so a config that a run printed is valid input to them
    extra = {"combo": "ss,tu,ta"} if command == "train" else {}
    path = small_train_cfg(tmp_path, fake_mode="generator", prior="0.5,0.5", **extra)
    assert main([command, "--config", str(path)]) == 0
    out = tmp_path / "out"
    resolved = out / "resolved_config.txt"
    model = out / ("model.ctdr" if command == "train" else "ss+tu+su+ta/model.ctdr")
    assert main(["eval", "--config", str(resolved), "--checkpoint", str(model)]) == 0
    assert main(["synth", "--config", str(resolved), "--set", f"out_dir={tmp_path / 'synth'}"]) == 0
    assert (tmp_path / "synth" / "target_test.txt").exists()
    # they still check the data keys
    capsys.readouterr()
    assert main(["eval", "--config", str(resolved), "--checkpoint", str(model), "--set", "gauss_dim=5"]) == 2
    assert capsys.readouterr().err == "error: --set: gauss_dim = 5 applies only to data = gauss_shift, not data = two_moons\n"


# A non-default value of each scoped key, for the guard below
SCOPED_VALUES = {
    "n": "30", "rotation": "10", "noise": "0.3", "skew": "0.5,0.5", "gauss_classes": "4", "gauss_dim": "5",
    "gauss_mean_shift": "2", "gauss_cov_scale": "2", "classes": "3", "resize": "28x28",
    **{f"{split}_{kind}": "x" for split in ("source", "target", "target_test") for kind in ("images", "labels", "sparse")},
    **{f"n_{split}": "5" for split in ("source", "target", "target_test")},
    "combo": "ss", "prior": "0.5,0.5",
    "fake_mode": "generator",
}
READ_BY_EVERY_RUN = {"data", "standardize", "hidden", "epochs", "batch", "lr", "seed", "out_dir", "export_embeddings", "timing"}


def scope_runs(scope):
    """(command, base keys) of a run that has `scope`'s first tag, and of one that has none of its tags."""
    tag = scope[0]
    if tag in ctdr.cli.DATA_MODES:
        return ("train", {"data": tag}), ("train", {"data": next(m for m in ctdr.cli.DATA_MODES if m not in scope)})
    if tag == "train":
        return ("train", {}), ("ablate", {})
    return ("train", {"combo": tag}), ("train", {"combo": "tu" if tag == "ss" else "ss"})


@pytest.mark.parametrize("key", sorted(SCOPED_VALUES))
def test_every_scoped_key_is_rejected_where_no_run_reads_it_and_accepted_where_one_does(key):
    """A new key either states its scope or is read by every run."""
    assert {k for k, (_, _, scope) in ctdr.cli.SCHEMA.items() if scope is None} == READ_BY_EVERY_RUN
    assert set(ctdr.cli.SCHEMA) == READ_BY_EVERY_RUN | set(SCOPED_VALUES)
    def accept(command, keys):
        sets = [f"{k}={v}" for k, v in {**keys, key: SCOPED_VALUES[key]}.items()]
        ctdr.cli._accept(load_config(argparse.Namespace(config=None, seed=None, set=sets)), command)

    reads, skips = scope_runs(ctdr.cli.SCHEMA[key][2])
    accept(*reads)
    with pytest.raises(ConfigError, match=rf"^--set: {key} = \S+ applies only to "):
        accept(*skips)


def test_the_data_mode_table_lists_exactly_the_data_keys():
    """Each key a DATA_MODES row lists is a SCHEMA key whose scope is data modes, and each such key is listed."""
    listed = {k.format(split) for _, args in ctdr.cli.DATA_MODES.values() for k in args for split in ctdr.cli._SPLITS}
    scoped = {k for k, (_, _, scope) in ctdr.cli.SCHEMA.items() if scope is not None and set(scope) <= set(ctdr.cli.DATA_MODES)}
    assert listed == scoped
    assert all(ctdr.cli.SCHEMA[k][2] for k in scoped)


def readme_key_table():
    """(keys read by every run, [keys of each row]) from the README's "Which keys
    a run reads": the sentence before the table, and each row's first cell, with
    `*_images` / `*_labels` expanded against SCHEMA."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Which keys a run reads", 1)[1].split("\n## ", 1)[0]
    prose, table = section.split("\n| key |", 1)
    sentence = " ".join(prose.split()).split(" are read by every run", 1)[0].rsplit(". ", 1)[-1]

    def keys(text):
        names = re.findall(r"`([^`]+)`", text)
        return [k for n in names for k in (fnmatch.filter(ctdr.cli.SCHEMA, n) if "*" in n else [n])]

    rows = [keys(line.split("|")[1]) for line in table.splitlines() if line.startswith("| `")]
    return keys(sentence), rows


def test_readme_key_table_lists_exactly_the_schema():
    every, rows = readme_key_table()
    listed = every + [k for row in rows for k in row]
    assert sorted(listed) == sorted(ctdr.cli.SCHEMA)  # each key once, and no key SCHEMA lacks
    assert set(every) == {k for k, (_, _, scope) in ctdr.cli.SCHEMA.items() if scope is None}
    for row in rows:
        assert len({ctdr.cli.SCHEMA[k][2] for k in row}) == 1, row


def test_malformed_idx_file_is_exit_2_with_no_out_dir(tmp_path, capsys):
    images, labels = write_idx_pair(tmp_path, np.zeros((3, 2, 2), dtype=np.uint8), [0, 1, 2], gz=True)
    images.write_bytes(images.read_bytes()[:-12])
    raw = {"data": "idx", "classes": "3"}
    for split in ("source", "target", "target_test"):
        raw[f"{split}_images"], raw[f"{split}_labels"] = str(images), str(labels)
    path = small_train_cfg(tmp_path, **raw)
    assert main(["train", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err.startswith(f"error: {images}:0: bad gzip stream")


@pytest.mark.parametrize("classes", ["4294967296", "100000000000000000000"])
def test_idx_classes_from_2_to_the_32_is_exit_2_with_no_out_dir(tmp_path, capsys, classes):
    # checkpoints store widths as u32, as load_sparse's header bound says;
    # without the bound np.bincount ends the run (memory error, OverflowError)
    images, labels = write_idx_pair(tmp_path, np.zeros((6, 4, 4), dtype=np.uint8), [0, 1, 2, 0, 1, 2])
    raw = {"data": "idx"}
    for split in ("source", "target", "target_test"):
        raw[f"{split}_images"], raw[f"{split}_labels"] = str(images), str(labels)
    path = small_train_cfg(tmp_path, **raw)
    assert main(["train", "--config", str(path), "--set", f"classes={classes}"]) == 2
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err == f"error: num_classes must be in [2, 2^32), got {classes}\n"


def test_header_only_sparse_split_is_exit_2_naming_it_before_any_file(tmp_path, capsys):
    path = unlabeled_target_cfg(tmp_path)
    assert main(["train", "--config", str(path)]) == 0
    model = tmp_path / "out" / "model.ctdr"
    empty = tmp_path / "empty.txt"
    empty.write_text("width=2 classes=2\n")
    capsys.readouterr()
    bad = ["--config", str(path), "--set", f"target_test_sparse={empty}", "--set", f"out_dir={tmp_path / 'bad'}"]
    for command in (["train"], ["ablate"], ["eval", "--checkpoint", str(model), "--out", str(tmp_path / "e.json")]):
        assert main([*command, *bad]) == 2
        assert capsys.readouterr().err == f"error: the target_test split ({empty}) has no rows\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt", "empty.txt", "out", "source.txt", "target.txt", "test.txt"]


@pytest.mark.parametrize(
    "kind, keys",
    [
        ("sparse", "source_sparse, target_sparse, target_test_sparse"),
        ("idx", "source_images, source_labels, target_images, target_labels, target_test_images, target_test_labels"),
    ],
)
def test_a_file_data_mode_without_paths_is_exit_2_naming_them_before_any_file(tmp_path, capsys, kind, keys):
    out = tmp_path / "out"
    assert main(["train", "--set", f"data={kind}", "--set", f"out_dir={out}"]) == 2
    assert capsys.readouterr().err == f"error: data={kind} needs paths for {keys}\n"
    assert not out.exists()


def test_set_without_an_equals_sign_is_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["train", "--set", "epochs", "--set", f"out_dir={out}"]) == 2
    assert capsys.readouterr().err == "error: --set needs key=value, got 'epochs'\n"
    assert not out.exists()


def test_non_utf8_config_is_exit_2_naming_file_and_line(tmp_path, capsys):
    path = small_train_cfg(tmp_path)
    head = path.read_bytes() + b"combo = ss"
    path.write_bytes(head + b"\xff\xfe\n")
    line_no = len(head.splitlines())
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:{line_no}: not UTF-8 (byte {len(head)})\n"
    assert not (tmp_path / "out").exists()


def unlabeled_target_cfg(tmp_path, **extra):
    """A sparse-data config whose target-train split has no labels."""
    pair = synth_two_moons(40, 35.0, 0.1, seed=0)
    for name, ds in (("source", pair.source), ("target", pair.target_train), ("test", pair.target_test)):
        save_sparse(ds, tmp_path / f"{name}.txt")  # target_train is written unlabeled
    return small_train_cfg(
        tmp_path,
        data="sparse",
        source_sparse=tmp_path / "source.txt",
        target_sparse=tmp_path / "target.txt",
        target_test_sparse=tmp_path / "test.txt",
        **extra,
    )


NO_TARGET_LABELS = "target-train labels are not available for this pair\n"


def test_ablate_needs_target_train_labels_before_it_fits_or_writes(tmp_path, monkeypatch, capsys):
    path = unlabeled_target_cfg(tmp_path)
    fits = []
    monkeypatch.setattr(ctdr.cli, "fit", lambda *args, **kw: fits.append(args))
    # the ts rung has no labels to train on; the six rungs before it never run
    assert main(["ablate", "--config", str(path)]) == 2
    assert fits == []
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err == f"error: rung ts: {NO_TARGET_LABELS}"


def test_train_ts_without_target_train_labels_names_the_combo(tmp_path, capsys):
    path = unlabeled_target_cfg(tmp_path, combo="ts")
    line_no = len(path.read_text().splitlines())
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:{line_no}: {NO_TARGET_LABELS}"
    assert main(["train", "--config", str(path), "--set", "combo=ts"]) == 2
    assert capsys.readouterr().err == f"error: --set: {NO_TARGET_LABELS}"
    assert not (tmp_path / "out").exists()


def test_ablate_summary_rows_are_on_disk_as_rungs_finish(tmp_path, monkeypatch):
    path = small_train_cfg(tmp_path)
    lines_at_fit, real_fit = [], ctdr.cli.fit

    def fit(config, pair, on_epoch=None):
        lines_at_fit.append((tmp_path / "out" / "summary.csv").read_text().count("\n"))
        return real_fit(config, pair, on_epoch)

    monkeypatch.setattr(ctdr.cli, "fit", fit)
    assert main(["ablate", "--config", str(path)]) == 0
    assert lines_at_fit == [1, 2, 3, 4, 5, 6, 7]  # the header, then one row per finished rung


def test_ablate_abort_keeps_the_finished_rows_and_names_the_rung(tmp_path, monkeypatch, capsys):
    path = small_train_cfg(tmp_path, epochs=15, lr=0.01)
    # ta's gradient, scaled up, overflows Adam at the first ta rung's first step
    real_adv_bce = ctdr.train.adv_bce

    def huge_adv_bce(probs):
        rep = real_adv_bce(probs)
        return replace(rep, grad=rep.grad * 1e300)

    monkeypatch.setattr(ctdr.train, "adv_bce", huge_adv_bce)
    assert main(["ablate", "--config", str(path)]) == 3
    out = tmp_path / "out"
    rows = (out / "summary.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["combo", "ss", "ss+tu", "ss+tu+su"]
    last = read_metrics(out / "ss+tu+su+ta").splitlines()[-1]
    assert json.loads(last) == {"abort": {"term": "adam", "epoch": 0, "step": 0}}
    assert capsys.readouterr().err.startswith("error: rung ss+tu+su+ta: non-finite second moment")
    assert not (out / "ss+tu+su+ta" / "model.ctdr").exists()


def test_ablate_abort_in_the_first_rung_leaves_the_header(tmp_path, capsys):
    path = small_train_cfg(tmp_path)
    assert main(["ablate", "--config", str(path), "--set", "lr=1e200"]) == 3
    out = tmp_path / "out"
    assert (out / "summary.csv").read_bytes() == b"combo,acc_target_test,acc_source_train\r\n"
    assert json.loads(read_metrics(out / "ss").splitlines()[-1]) == {"abort": {"term": "ss", "epoch": 0, "step": 1}}
    assert capsys.readouterr().err.startswith("error: rung ss: non-finite logits in term 'ss'")


def overflowing_target_cfg(tmp_path):
    """A sparse-data config whose target-train row 3 is 1.7e308 in both
    columns. No ss step forwards that row, so an ss run trains to the end and
    the first forward to overflow is the embeddings export's."""
    pair = synth_two_moons(60, 35.0, 0.1, seed=1)
    target = pair.target_train_labeled(oracle=True)
    features = target.features.copy()
    features[3] = 1.7e308
    splits = {"source": pair.source, "target": Dataset(features, target.labels, 2), "test": pair.target_test}
    for name, ds in splits.items():
        save_sparse(ds, tmp_path / f"{name}.txt")
    return small_train_cfg(
        tmp_path,
        data="sparse",
        source_sparse=tmp_path / "source.txt",
        target_sparse=tmp_path / "target.txt",
        target_test_sparse=tmp_path / "test.txt",
        hidden="128,128",
        batch=128,
        export_embeddings="true",
    )


@pytest.mark.parametrize(
    "command, extra, run, prefix",
    [
        ("train", ["--set", "combo=ss"], "", ""),
        # generator fakes: the gaussian rungs' column stats of the row would overflow before any rung runs
        ("ablate", ["--set", "fake_mode=generator"], "ss", "rung ss: "),
    ],
    ids=["train", "ablate"],
)
def test_an_overflow_after_fit_is_exit_3_with_an_export_abort_and_no_embeddings(tmp_path, capsys, command, extra, run, prefix):
    path = overflowing_target_cfg(tmp_path)
    assert main([command, "--config", str(path), *extra]) == 3
    assert capsys.readouterr().err == f"error: {prefix}non-finite logits in term 'export': nan\n"
    out = tmp_path / "out" / run
    records = [json.loads(line) for line in read_metrics(out).splitlines()]
    assert [rec["epoch"] for rec in records[:-1]] == [0, 1]
    assert records[-1] == {"abort": {"term": "export", "epoch": None, "step": None}}
    assert not (out / "embeddings.csv").exists()


def test_cmd_eval_transform_whose_map_overflows_is_exit_2_with_no_numpy_warning(tmp_path, capsys):
    path = small_train_cfg(tmp_path)
    assert main(["train", "--config", str(path)]) == 0
    transform = tmp_path / "t.json"
    transform.write_text(json.dumps({"mean": ["-1.7e308", "0.0"], "std": ["1e-300", "1.0"]}))
    capsys.readouterr()
    checkpoint, report = tmp_path / "out" / "model.ctdr", tmp_path / "report.json"
    args = ["--checkpoint", str(checkpoint), "--transform", str(transform), "--out", str(report)]
    assert main(["eval", "--config", str(path), *args]) == 2
    message = "features row 0 column 0 is not finite (inf)"
    assert capsys.readouterr() == ("", f"error: transform {transform} on the configured data: {message}\n")
    assert not report.exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("epochs", "five", "bad value for 'epochs'"),
        ("data", "imaginary", "bad value for 'data'"),
        ("lr", "0", "lr must be finite and > 0"),
        ("combo", "ss,ts", "ts is an exclusive baseline"),
        ("prior", "abc", "bad value for 'prior': could not convert string to float: 'abc'"),
        ("batch", "0", "batch_size must be >= 1"),
        ("hidden", "4,0", "need >= 2 layer widths, each >= 1: got (2, 4, 0, 2), generator ()"),
        ("n_source", "-1", "n_source = -1 applies only to data = idx"),
        # checks the data builder makes
        ("rotation", "400", "rotation must be in [0, 360] degrees, got 400.0"),
        ("gauss_cov_scale", "-1", "cov_scale must be > 0"),
        ("gauss_cov_scale", "nan", "cov_scale must be > 0 and finite, got nan"),
        ("gauss_cov_scale", "1e308", "is not finite (inf)"),
        ("gauss_mean_shift", "inf", "mean_shift must be finite, got inf"),
        ("noise", "nan", "noise_std must be >= 0 and finite, got nan"),
        ("skew", "0.5,0.6", "label_skew sums to 1.1, expected 1"),
        ("skew", "0.5", "label_skew has 1 entries, expected 2"),
        # Rng reads a seed mod 2^64, so -1 and 2^64 - 1 would give one run
        ("seed", "-1", "seed must be in [0, 2^64), got -1"),
        ("seed", str(1 << 64), f"seed must be in [0, 2^64), got {1 << 64}"),
    ],
)
def test_config_value_errors_name_where_the_value_was_given(tmp_path, capsys, key, value, message):
    data = {"data": "gauss_shift"} if key.startswith("gauss_") else {}
    path = small_train_cfg(tmp_path, **{**data, key: value})
    line_no = next(i for i, line in enumerate(path.read_text().splitlines(), 1) if line.startswith(f"{key} ="))
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line_no}: ") and message in err
    # the same value from --set over a good file names --set, not the file
    good = small_train_cfg(tmp_path, name="good.txt", lr="0.001", **data)
    assert main(["train", "--config", str(good), "--set", f"{key}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --set: ") and message in err


def test_config_error_names_the_first_given_key_at_fault(tmp_path):
    # the file's bad lr is given before --set's bad batch, though TrainConfig
    # checks batch_size, and fails on it, first
    path = tmp_path / "cfg.txt"
    path.write_text("lr = 0\nn = 40\nepochs = 2\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:1: lr must be finite"):
        cfg = load_config(argparse.Namespace(config=str(path), seed=3, set=["batch=0"]))
        build_train_config(cfg, build_pair(cfg)[0])


@pytest.mark.parametrize("lines, line_no", [("batch = 16\nlr = 0\n", 2), ("lr = 0\n", 1)])
def test_a_set_override_joins_after_the_file_keys(tmp_path, capsys, lines, line_no):
    # --set is given after the file, so its batch joins after the file's lr, whether or not the file set batch
    path = tmp_path / "cfg.txt"
    path.write_text(lines + "n = 40\nepochs = 2\n")
    assert main(["train", "--config", str(path), "--set", "batch=0", "--set", f"out_dir={tmp_path / 'out'}"]) == 2
    assert capsys.readouterr() == ("", f"error: {path}:{line_no}: lr must be finite and > 0, got 0.0\n")
    assert not (tmp_path / "out").exists()


def test_a_fault_of_the_data_files_names_no_config_key(tmp_path, capsys):
    # the data files are read before the search for the key at fault, so a
    # fault that they give on their own is blamed on no config key
    assert main(["train", "--config", str(widths_cfg(tmp_path))]) == 2
    wide, narrow = tmp_path / "wide.txt", tmp_path / "narrow.txt"
    message = f"the target_train split ({narrow}) is 2 wide with 2 classes, the source split ({wide}) 3 wide with 2"
    assert capsys.readouterr().err == f"error: {message}\n"


SPARSE_FILES = {
    "lab2": "width=2 classes=2\n0 0:1.0\n1 1:1.0\n",
    "unl2": "width=2 classes=2\n-1 0:1.0\n-1 1:1.0\n",
    "wide3": "width=3 classes=2\n0 0:1.0\n1 2:1.0\n",
    "cls3": "width=2 classes=3\n0 0:1.0\n2 1:1.0\n",
    "empty": "width=2 classes=2\n",
}


@pytest.mark.parametrize(
    "files, message",
    [
        (("lab2", "unl2", "empty"), "the target_test split ({empty}) has no rows"),
        (("wide3", "unl2", "lab2"), "the target_train split ({unl2}) is 2 wide with 2 classes, the source split ({wide3}) 3 wide with 2"),
        (("lab2", "unl2", "cls3"), "the target_test split ({cls3}) is 2 wide with 3 classes, the source split ({lab2}) 2 wide with 2"),
        (("unl2", "unl2", "lab2"), "the source split ({unl2}) has no labels"),
    ],
    ids=["header_only", "widths", "classes", "unlabeled_source"],
)
def test_a_fault_of_the_sparse_files_is_exit_2_naming_the_split_and_its_file(tmp_path, capsys, files, message):
    paths = {name: tmp_path / f"{name}.txt" for name in SPARSE_FILES}
    for name, text in SPARSE_FILES.items():
        paths[name].write_text(text)
    keys = dict(zip(("source_sparse", "target_sparse", "target_test_sparse"), (paths[f] for f in files)))
    path = small_train_cfg(tmp_path, data="sparse", **keys)
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(**paths)}\n")
    assert not (tmp_path / "out").exists()


def test_idx_images_of_different_sizes_without_resize_is_exit_2_naming_both_image_files(tmp_path, capsys):
    (tmp_path / "small").mkdir()
    (tmp_path / "big").mkdir()
    small, small_labels = write_idx_pair(tmp_path / "small", np.zeros((8, 3, 3), dtype=np.uint8), [0, 1, 2, 3] * 2)
    big, big_labels = write_idx_pair(tmp_path / "big", np.zeros((8, 4, 4), dtype=np.uint8), [0, 1, 2, 3] * 2)
    raw = {"data": "idx", "classes": "4", "source_images": small, "source_labels": small_labels}
    for split in ("target", "target_test"):
        raw[f"{split}_images"], raw[f"{split}_labels"] = big, big_labels
    path = small_train_cfg(tmp_path, **raw)
    assert main(["train", "--config", str(path)]) == 2
    message = f"the target_train split ({big}) is 16 wide with 4 classes, the source split ({small}) 9 wide with 4"
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["train"], ["ablate"], ["eval", "--checkpoint", "absent.ctdr"], ["synth"]], ids=lambda c: c[0])
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("out_dir", "a\0out", "a path cannot hold a NUL byte"),
        ("source_sparse", "a\0s.txt", "a path cannot hold a NUL byte"),
        ("prior", "0.5,abc", "could not convert string to float: 'abc'"),
        ("combo", "ss+ts", "ts is an exclusive baseline; combine it with nothing"),
    ],
    ids=["out_dir", "source_sparse", "prior", "combo"],
)
def test_a_bad_value_is_exit_2_naming_its_line_before_any_file(tmp_path, capsys, command, key, value, message):
    # the data files do not exist: the value is parsed, and rejected, before any is opened
    files = {"source_sparse": "s.txt", "target_sparse": "t.txt", "target_test_sparse": "u.txt"}
    path = small_train_cfg(tmp_path, data="sparse", **{**files, key: value})
    line = next(i for i, row in enumerate(path.read_text().splitlines(), start=1) if row.startswith(f"{key} = "))
    assert main([*command, "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}:{line}: bad value for {key!r}: {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.txt"]


@pytest.mark.parametrize("command", [["train"], ["ablate"], ["eval", "--checkpoint", "absent.ctdr"], ["synth"]], ids=lambda c: c[0])
@pytest.mark.parametrize(
    "tail",
    ["a#b", "a\nseed = 3", "a\rb", "a\udcffb"],  # "\udcff" is argv's form of the byte 0xff
    ids=["hash", "newline", "return", "not_utf8"],
)
def test_a_set_path_the_printed_config_cannot_carry_is_exit_2_before_any_file(tmp_path, capsys, command, tail):
    # a config file cannot hold these values: the printed config, fed back, would name another path
    path = small_train_cfg(tmp_path)
    out_dir = f"{tmp_path}/{tail}"
    assert main([*command, "--config", str(path), "--set", f"out_dir={out_dir}"]) == 2
    message = f"a path in a config must be one line of UTF-8 text without '#': got {out_dir!r}"
    assert capsys.readouterr() == ("", f"error: --set: bad value for 'out_dir': {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.txt"]


def test_a_prior_prints_in_canonical_form_and_the_printed_config_reproduces_the_run(tmp_path, capsys):
    path = small_train_cfg(tmp_path, prior=" .5 , 0.50,")
    assert main(["train", "--config", str(path)]) == 0
    assert "prior = 0.5,0.5\n" in capsys.readouterr().out
    resolved = tmp_path / "out" / "resolved_config.txt"
    assert "prior = 0.5,0.5\n" in resolved.read_text()
    again = tmp_path / "again"
    assert main(["train", "--config", str(resolved), "--set", f"out_dir={again}"]) == 0
    assert (again / "model.ctdr").read_bytes() == (tmp_path / "out" / "model.ctdr").read_bytes()


def idx_cfg(tmp_path, **extra):
    """An idx config of 15 lines over one 20-row image/label file pair."""
    images, labels = write_idx_pair(tmp_path, np.zeros((20, 4, 4), dtype=np.uint8), [0, 1, 2, 3] * 5)
    raw = {"data": "idx", "classes": "4"}
    for split in ("source", "target", "target_test"):
        raw[f"{split}_images"], raw[f"{split}_labels"] = str(images), str(labels)
    return small_train_cfg(tmp_path, **raw, **extra)


def widths_cfg(tmp_path):
    wide, narrow = tmp_path / "wide.txt", tmp_path / "narrow.txt"
    wide.write_text("width=3 classes=2\n0 0:1.0\n1 2:1.0\n")
    narrow.write_text("width=2 classes=2\n0 0:1.0\n1 1:1.0\n")
    return small_train_cfg(tmp_path, data="sparse", source_sparse=wide, target_sparse=narrow, target_test_sparse=narrow)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda tmp: idx_cfg(tmp, resize="abc"), "{}:15: resize must look like 28x28, got 'abc'"),
        (lambda tmp: idx_cfg(tmp, n_source=999), "{}:15: subsample: n must be in [1, 20], got 999"),
        (widths_cfg, "the target_train split ({0.parent}/narrow.txt) is 2 wide with 2 classes, "
                     "the source split ({0.parent}/wide.txt) 3 wide with 2"),
    ],
    ids=["resize", "n_source", "widths"],
)
def test_a_failing_config_reads_each_data_file_once(tmp_path, monkeypatch, capsys, make, message):
    # the search for the key at fault re-derives the pair from the splits in
    # memory; it reads no file again
    calls = []
    for mode, (build, args) in ctdr.cli.DATA_MODES.items():
        counted = lambda *a, build=build, **kw: calls.append(kw) or build(*a, **kw)
        monkeypatch.setitem(ctdr.cli.DATA_MODES, mode, (counted, args))
    path = make(tmp_path)
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(path)}\n"
    assert len(calls) == 3
    assert not (tmp_path / "out").exists()


def test_resolve_config_without_origins_names_none():
    with pytest.raises(ConfigError, match="^bad value for 'epochs'"):
        resolve_config({"epochs": "five"})
    with pytest.raises(ConfigError, match="^lr must be finite"):
        cfg = resolve_config({"lr": "0"})
        build_train_config(cfg, build_pair(cfg)[0])


def test_set_override_rejects_unknown_key(tmp_path, capsys):
    path = small_train_cfg(tmp_path)
    assert main(["train", "--config", str(path), "--set", "bogus=1"]) == 2
    assert capsys.readouterr().err == "error: --set: unknown key 'bogus'\n"


def test_gauss_shift_data_mode(tmp_path):
    path = small_train_cfg(tmp_path, data="gauss_shift", **{"gauss_dim": 4, "n": 30})
    assert main(["train", "--config", str(path)]) == 0
    final = json.loads((tmp_path / "out" / "eval.json").read_text())
    assert 0.0 <= final["accuracy"] <= 1.0


def test_a_synthetic_key_at_zero_reaches_its_builder_as_zero(tmp_path, capsys):
    # only skew's empty default stands for the builders' None: rotation = 0 and gauss_mean_shift = 0 are values,
    # and n = 0 is the builder's own error
    pair, _ = build_pair(resolve_config({"n": "10", "rotation": "0"}))
    assert np.array_equal(pair.target_test.features, synth_two_moons(10, 0.0, 0.12).target_test.features)
    pair, _ = build_pair(resolve_config({"data": "gauss_shift", "n": "10", "gauss_mean_shift": "0"}))
    assert np.array_equal(pair.target_test.features, synth_gauss_shift(10, mean_shift=0.0).target_test.features)
    for data, message in (("two_moons", "synth_two_moons: need n >= 2"), ("gauss_shift", "synth_gauss_shift: need n >= num_classes")):
        assert main(["synth", "--set", f"data={data}", "--set", "n=0", "--set", f"out_dir={tmp_path / 'out'}"]) == 2
        assert capsys.readouterr().err == f"error: --set: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "sets, got",
    [
        (["n=100000000000000000000000000000"], "n=100000000000000000000000000000, width=2, classes=2"),
        (["n=9223372036854775808"], "n=9223372036854775808, width=2, classes=2"),
        (["n=4611686018427387904"], "n=4611686018427387904, width=2, classes=2"),
        (["data=gauss_shift", "gauss_dim=100000000000000000000000000000"], "n=500, width=100000000000000000000000000000, classes=3"),
    ],
    ids=["n_1e29", "n_2^63", "n_2^62", "gauss_dim_1e29"],
)
def test_a_synthetic_size_no_array_can_hold_is_exit_2_naming_set(tmp_path, capsys, sets, got):
    # numpy would fail on each with a ValueError of its own; the builders reject it before any draw
    sets = [f"out_dir={tmp_path / 'out'}", *sets]
    assert main(["train", *(arg for s in sets for arg in ("--set", s))]) == 2
    message = f"synthetic pair: need n < 2^53, width and classes < 2^32 and n*width*8 bytes in intp, got {got}"
    assert capsys.readouterr() == ("", f"error: --set: {message}\n")
    assert not any(tmp_path.iterdir())


def test_the_key_search_starts_no_draw_larger_than_the_full_config_allows(tmp_path, capsys, monkeypatch):
    # the full config fails the size check on n; gauss_dim alone, under the default n = 500, passes
    # it and would ask for 96 GiB of class means, so the search checks every partial config first
    real = Rng.normal_matrix

    def small_only(rng, rows, cols):
        if rows * cols > 100_000:
            raise AssertionError(f"normal_matrix({rows}, {cols})")
        return real(rng, rows, cols)

    monkeypatch.setattr(Rng, "normal_matrix", small_only)
    sets = [f"out_dir={tmp_path / 'out'}", "data=gauss_shift", "gauss_dim=4294967295", "n=4503599627370495"]
    assert main(["train", *(arg for s in sets for arg in ("--set", s))]) == 2
    message = "synthetic pair: need n < 2^53, width and classes < 2^32 and n*width*8 bytes in intp"
    got = "n=4503599627370495, width=4294967295, classes=3"
    assert capsys.readouterr() == ("", f"error: --set: {message}, got {got}\n")
    assert not any(tmp_path.iterdir())


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
    pair, _ = build_pair(resolve_config(raw))
    assert pair.source.image_hw == (28, 28)
    assert pair.target_test.dim == 28 * 28

    header = re.search(r"`(width=\S+ classes=\S+)`", readme).group(1)
    path = tmp_path / "pair.txt"
    path.write_text(header.replace("<d>", "3").replace("<k>", "2") + "\n0 0:0.5 2:-1.25\n1 1:2.0\n")
    ds = load_sparse(path)
    assert (ds.dim, ds.num_classes) == (3, 2)
    assert np.array_equal(ds.features, [[0.5, 0.0, -1.25], [0.0, 2.0, 0.0]])
