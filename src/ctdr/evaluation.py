"""Inference, scoring, and embedding export."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, ContractViolation
from .model import ParamSet, forward


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
    return forward(params, features).probs.argmax(axis=1).astype(np.int64)


def evaluate(params: ParamSet, dataset: Dataset) -> EvalReport:
    if dataset.labels is None:
        raise ContractViolation("evaluate needs a labeled dataset")
    k = dataset.num_classes
    pred = predict(params, dataset.features)
    confusion = np.bincount(dataset.labels * k + pred, minlength=k * k).reshape(k, k)
    totals = confusion.sum(axis=1)
    per_class = np.where(totals > 0, confusion.diagonal() / np.maximum(totals, 1), np.nan)
    accuracy = float(confusion.diagonal().sum()) / dataset.n
    return EvalReport(accuracy, per_class, confusion, dataset.n)


def export_embeddings(params: ParamSet, named_datasets, path) -> None:
    """CSV of embeddings and logits for (name, Dataset) pairs.

    Columns: domain, row, label (-1 when unknown), e0..e{D-1}, l0..l{K-1}.
    Deterministic byte-for-byte: floats are written with repr.
    """
    named_datasets = list(named_datasets)
    if not named_datasets:
        raise ConfigError("export_embeddings: no datasets given")
    d = params.arch.embedding_dim
    k = params.arch.num_classes
    header = ["domain", "row", "label"] + [f"e{i}" for i in range(d)] + [f"l{i}" for i in range(k)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for name, ds in named_datasets:
            cache = forward(params, ds.features)
            labels = ds.labels if ds.labels is not None else np.full(ds.n, -1, dtype=np.int64)
            for i in range(ds.n):
                row = [name, i, int(labels[i])]
                row += [repr(float(v)) for v in cache.embeddings[i]]
                row += [repr(float(v)) for v in cache.logits[i]]
                writer.writerow(row)
