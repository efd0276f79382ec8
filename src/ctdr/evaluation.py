"""Inference, scoring, and embedding export."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import Dataset, DomainPair
from .errors import ContractViolation
from .model import ParamSet, forward, forward_logits
from .numerics import softmax_rows


@dataclass
class EvalReport:
    accuracy: float
    per_class_accuracy: np.ndarray  # nan for classes absent from the test set
    confusion: np.ndarray  # (k, k) counts, rows = true class
    n_test: int

    def to_json(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_class_accuracy": [None if np.isnan(v) else float(v) for v in self.per_class_accuracy],
            "confusion": [[int(c) for c in row] for row in self.confusion],
            "n_test": self.n_test,
        }


def predict(params: ParamSet, features) -> np.ndarray:
    """Most probable class per row; ties go to the lowest index."""
    return softmax_rows(forward_logits(params, features)).argmax(axis=1).astype(np.int64)


def evaluate(params: ParamSet, dataset: Dataset) -> EvalReport:
    if dataset.labels is None:
        raise ContractViolation("evaluate needs a labeled dataset")
    k = dataset.num_classes
    if params.arch.num_classes != k:
        raise ContractViolation(f"evaluate: the model has {params.arch.num_classes} classes, the dataset {k}")
    pred = predict(params, dataset.features)
    confusion = np.bincount(dataset.labels * k + pred, minlength=k * k).reshape(k, k)
    totals = confusion.sum(axis=1)
    per_class = np.where(totals > 0, confusion.diagonal() / np.maximum(totals, 1), np.nan)
    accuracy = float(confusion.diagonal().sum()) / dataset.n
    return EvalReport(accuracy, per_class, confusion, dataset.n)


def export_embeddings(params: ParamSet, pair: DomainPair, path) -> None:
    """CSV of embeddings and logits of the pair's splits, in SPLITS order.

    Columns: domain (the split), row, label (-1 when unknown), e0..e{D-1}, l0..l{K-1}.
    Deterministic byte-for-byte: floats are written with repr. Every forward
    runs before the file is opened, so overflowing logits leave no file.
    """
    forwarded = [(name, ds, forward(params, ds.features)) for name, ds in pair.splits()]
    d = params.arch.embedding_dim
    k = params.arch.num_classes
    header = ["domain", "row", "label"] + [f"e{i}" for i in range(d)] + [f"l{i}" for i in range(k)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for name, ds, cache in forwarded:
            labels = ds.labels.tolist() if ds.labels is not None else [-1] * ds.n
            rows = enumerate(zip(labels, cache.embeddings.tolist(), cache.logits.tolist()))
            writer.writerows([name, i, label, *map(repr, emb), *map(repr, logits)] for i, (label, emb, logits) in rows)
