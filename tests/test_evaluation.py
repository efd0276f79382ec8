"""Tests for inference, accuracy metrics, and embedding export."""

import csv
import json

import numpy as np
import pytest

from ctdr.data import Dataset, synth_two_moons
from ctdr.errors import ContractViolation
from ctdr.evaluation import EvalReport, evaluate, export_embeddings, predict
from ctdr.model import Architecture, LayerSpec, ParamSet, init_params
from ctdr.numerics import Rng, STREAM_WEIGHT_INIT, softmax_rows
from ctdr.train import LossCombo, TrainConfig, fit


def logit_net(k=2):
    """Identity net: logits equal the input features."""
    arch = Architecture((), LayerSpec(k, k, "none"))
    tensors = {"cls.w": np.eye(k), "cls.b": np.zeros(k)}
    return ParamSet(arch, tensors)


def test_predict_tie_takes_lowest_index():
    params = logit_net(3)
    out = predict(params, np.zeros((4, 3)))
    assert out.tolist() == [0, 0, 0, 0]


def test_predict_direct_argmax():
    params = logit_net(2)
    out = predict(params, np.array([[0.1, 0.9], [2.0, -1.0]]))
    assert out.tolist() == [1, 0]


def test_predict_matches_prob_argmax():
    arch = Architecture.mlp(3, (6,), 4)
    params = init_params(arch, Rng(55, STREAM_WEIGHT_INIT))
    x = Rng(56, 0).normal_matrix(30, 3)
    labels = predict(params, x)
    from ctdr.model import forward

    cache = forward(params, x)
    assert np.array_equal(labels, cache.probs.argmax(axis=1))
    assert np.array_equal(labels, cache.logits.argmax(axis=1))


def test_predict_rejects_width_mismatch():
    params = logit_net(2)
    with pytest.raises(ContractViolation):
        predict(params, np.zeros((2, 5)))


def test_predict_is_pure():
    arch = Architecture.mlp(2, (4,), 2)
    params = init_params(arch, Rng(57, STREAM_WEIGHT_INIT))
    x = Rng(58, 0).normal_matrix(10, 2)
    assert np.array_equal(predict(params, x), predict(params, x))


def test_evaluate_perfect_predictions():
    params = logit_net(2)
    feats = np.array([[3.0, 0.0], [0.0, 3.0], [4.0, 0.0]])
    ds = Dataset(feats, np.array([0, 1, 0]), 2, "perfect")
    rep = evaluate(params, ds)
    assert rep.accuracy == 1.0
    assert np.array_equal(rep.confusion, [[2, 0], [0, 1]])
    assert rep.n_test == 3


def test_evaluate_all_wrong():
    params = logit_net(2)
    feats = np.array([[0.0, 3.0], [3.0, 0.0]])
    ds = Dataset(feats, np.array([0, 1]), 2, "wrong")
    rep = evaluate(params, ds)
    assert rep.accuracy == 0.0
    assert np.array_equal(rep.confusion, [[0, 1], [1, 0]])


def test_evaluate_three_of_four():
    params = logit_net(2)
    feats = np.array([[3.0, 0.0], [3.0, 0.0], [0.0, 3.0], [0.0, 3.0]])
    ds = Dataset(feats, np.array([0, 1, 1, 1]), 2, "mixed")
    rep = evaluate(params, ds)
    assert rep.accuracy == 0.75
    assert rep.per_class_accuracy[0] == 1.0
    assert rep.per_class_accuracy[1] == pytest.approx(2 / 3)


def test_evaluate_absent_class_gets_nan():
    params = logit_net(2)
    ds = Dataset(np.array([[3.0, 0.0]]), np.array([0]), 2, "single")
    rep = evaluate(params, ds)
    assert rep.per_class_accuracy[0] == 1.0
    assert np.isnan(rep.per_class_accuracy[1])


def test_evaluate_confusion_rows_sum_to_true_counts():
    arch = Architecture.mlp(2, (5,), 3)
    params = init_params(arch, Rng(59, STREAM_WEIGHT_INIT))
    feats = Rng(60, 0).normal_matrix(40, 2)
    labels = np.array([Rng(61, i).below(3) for i in range(40)])
    ds = Dataset(feats, labels, 3, "rand")
    rep = evaluate(params, ds)
    assert rep.confusion.sum() == 40
    for k in range(3):
        assert rep.confusion[k].sum() == int((labels == k).sum())


def test_evaluate_invariant_to_row_order():
    arch = Architecture.mlp(2, (5,), 2)
    params = init_params(arch, Rng(62, STREAM_WEIGHT_INIT))
    feats = Rng(63, 0).normal_matrix(20, 2)
    labels = np.array([i % 2 for i in range(20)])
    ds = Dataset(feats, labels, 2, "fwd")
    perm = Rng(64, 0).permutation(20)
    shuffled = Dataset(feats[perm], labels[perm], 2, "shuf")
    a = evaluate(params, ds)
    b = evaluate(params, shuffled)
    assert a.accuracy == b.accuracy
    assert np.array_equal(a.confusion, b.confusion)


def test_evaluate_requires_labels():
    params = logit_net(2)
    ds = Dataset(np.zeros((2, 2)), None, 2, "unlabeled")
    with pytest.raises(ContractViolation):
        evaluate(params, ds)


def test_eval_report_to_json_round_trips():
    params = logit_net(2)
    ds = Dataset(np.array([[3.0, 0.0], [0.0, 3.0]]), np.array([0, 0]), 2, "j")
    rep = evaluate(params, ds)
    blob = json.loads(json.dumps(rep.to_json()))
    assert blob["accuracy"] == 0.5
    assert blob["n_test"] == 2
    assert blob["confusion"] == [[1, 1], [0, 0]]
    assert blob["per_class_accuracy"][1] is None  # nan encodes as null


def test_export_embeddings_round_trip(tmp_path):
    pair = synth_two_moons(15, 35.0, 0.1, seed=9)
    cfg = TrainConfig(LossCombo.parse("ss"), epochs=2, hidden=(8,), timing=False)
    params, _ = fit(cfg, pair)
    path = tmp_path / "emb.csv"
    named = [
        ("source", pair.source),
        ("target_train", pair.target_train),
        ("target_test", pair.target_test),
    ]
    export_embeddings(params, named, path)

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header[:3] == ["domain", "row", "label"]
    assert len(body) == 45
    unlabeled = [r for r in body if r[0] == "target_train"]
    assert all(r[2] == "-1" for r in unlabeled)

    # logits stored in the file reproduce predict()
    k = params.arch.num_classes
    d = params.arch.embedding_dim
    src_rows = [r for r in body if r[0] == "source"]
    logits = np.array([[float(v) for v in r[3 + d :]] for r in src_rows])
    assert np.array_equal(logits.argmax(axis=1), predict(params, pair.source.features))

    export_embeddings(params, named, tmp_path / "emb2.csv")
    assert path.read_bytes() == (tmp_path / "emb2.csv").read_bytes()
