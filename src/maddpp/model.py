"""Minimal logistic classifier and dataset handling for flat course CSVs.

The post-processor only needs predicted probabilities, so the trainer is a
small, deterministic full-batch gradient descent on cross-entropy with an
L2 penalty: zero initialization, no external learner.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyPopulation,
    EncodingError,
    InvalidRatios,
    NotTrained,
    TrainingDiverged,
)
from .io import open_input

# Known ordinal level orders for the course-data bands; anything else falls
# back to numeric parsing or sorted-unique ranks (recorded in the manifest).
ORDINAL_LEVELS = {
    "age": ["0-35", "35-55", "55<="],
    "highest_education": [
        "No Formal quals",
        "Lower Than A Level",
        "A Level or Equivalent",
        "HE Qualification",
        "Post Graduate Qualification",
    ],
    "poverty": [
        "0-10%", "10-20%", "20-30%", "30-40%", "40-50%",
        "50-60%", "60-70%", "70-80%", "80-90%", "90-100%",
    ],
}


@dataclass
class TabularDataset:
    """Flat feature table with a binary label and a designated sensitive column."""

    feature_names: list[str]
    rows: list[dict]           # feature name -> raw string value
    labels: np.ndarray
    sensitive: str
    dropped_rows: int = 0      # rows removed for missing values at ingestion

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        if self.sensitive not in self.feature_names:
            raise EncodingError(f"sensitive column {self.sensitive!r} not in features")

    def sensitive_groups(self) -> np.ndarray:
        """0/1 group tags from the sensitive column (lexicographic order)."""
        values = [row[self.sensitive] for row in self.rows]
        levels = sorted(set(values))
        if len(levels) != 2:
            raise EncodingError(
                f"sensitive column {self.sensitive!r} must be binary, "
                f"found {len(levels)} distinct values")
        return np.array([levels.index(v) for v in values])


def load_dataset(path, sensitive: str, label_column: str = "label") -> TabularDataset:
    """Read a flat CSV; rows with any missing value are dropped and counted."""
    with open_input(path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or label_column not in reader.fieldnames:
            raise EncodingError(f"label column {label_column!r} missing from {path}")
        feature_names = [c for c in reader.fieldnames if c != label_column]
        rows, labels, dropped = [], [], 0
        for raw in reader:
            if any(raw[c] is None or raw[c] == "" for c in reader.fieldnames):
                dropped += 1
                continue
            if raw[label_column] not in ("0", "1"):
                raise EncodingError(f"label must be 0 or 1, got {raw[label_column]!r}")
            rows.append({c: raw[c] for c in feature_names})
            labels.append(int(raw[label_column]))
    if not rows:
        raise EmptyPopulation(f"no usable rows in {path}")
    return TabularDataset(feature_names=feature_names, rows=rows,
                          labels=np.array(labels), sensitive=sensitive,
                          dropped_rows=dropped)


def _column_codes(name: str, values: list[str]):
    """Raw column -> numeric codes plus the encoding rule used."""
    try:
        return np.array([float(v) for v in values]), "numeric"
    except ValueError:
        pass
    if name in ORDINAL_LEVELS:
        levels = ORDINAL_LEVELS[name]
        try:
            return np.array([float(levels.index(v)) for v in values]), "ordinal"
        except ValueError as exc:
            raise EncodingError(f"unknown category in column {name!r}: {exc}") from None
    levels = sorted(set(values))
    codes = {v: float(i) for i, v in enumerate(levels)}
    return np.array([codes[v] for v in values]), f"categorical{levels}"


def encode(dataset: TabularDataset) -> tuple[np.ndarray, np.ndarray, dict]:
    """Design matrix, labels, and the per-column encoding report.

    Binary and ordinal columns become small integer codes; columns that
    parse as numbers are kept as-is.  Standardization is a separate step so
    its statistics can come from the training split only.
    """
    columns, rules = [], {}
    for name in dataset.feature_names:
        values = [row[name] for row in dataset.rows]
        codes, rule = _column_codes(name, values)
        columns.append(codes)
        rules[name] = rule
    X = np.column_stack(columns)
    return X, dataset.labels.copy(), rules


@dataclass
class Standardizer:
    """Zero-mean unit-variance scaling with train-split statistics only."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray, columns: np.ndarray | None = None) -> "Standardizer":
        """`columns` is a boolean mask of features to scale; others pass through."""
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std ** 2 < 1e-12, 1.0, std)  # variance floor for constant columns
        if columns is not None:
            mean = np.where(columns, mean, 0.0)
            std = np.where(columns, std, 1.0)
        return cls(mean=mean, std=std)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.std


def split(n: int, ratios=(0.70, 0.15, 0.15), seed: int = 0):
    """Seeded shuffle then contiguous partition into train/validation/test indices."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise InvalidRatios(f"ratios must sum to 1, got {ratios}")
    if n == 0:
        raise EmptyPopulation("cannot split an empty dataset")
    perm = np.random.default_rng(seed).permutation(n)
    n_val = int(ratios[1] * n)
    n_test = int(ratios[2] * n)
    n_train = n - n_val - n_test
    return (perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:])


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


@dataclass
class LogisticModel:
    weights: np.ndarray | None = None
    bias: float = 0.0
    trained: bool = False
    feature_names: list[str] = field(default_factory=list)
    standardizer: Standardizer | None = None

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not self.trained:
            raise NotTrained("model has not been trained")
        if self.standardizer is not None:
            X = self.standardizer.transform(X)
        p = _sigmoid(X @ self.weights + self.bias)
        return np.clip(p, 1e-12, 1.0 - 1e-12)

    def to_json_dict(self) -> dict:
        return {
            "feature_names": self.feature_names,
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "standardizer": None if self.standardizer is None else {
                "mean": self.standardizer.mean.tolist(),
                "std": self.standardizer.std.tolist(),
            },
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)

    @classmethod
    def load(cls, path) -> "LogisticModel":
        with open(path) as fh:
            d = json.load(fh)
        std = d["standardizer"]
        return cls(weights=np.array(d["weights"]), bias=float(d["bias"]), trained=True,
                   feature_names=d["feature_names"],
                   standardizer=None if std is None else Standardizer(
                       mean=np.array(std["mean"]), std=np.array(std["std"])))


def loss_and_gradient(weights: np.ndarray, bias: float, X: np.ndarray,
                      y: np.ndarray, l2: float):
    """Mean binary cross-entropy plus l2 * ||w||^2, with its exact gradient."""
    n = X.shape[0]
    z = X @ weights + bias
    p = _sigmoid(z)
    eps = 1e-12
    loss = -float(np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
    loss += l2 * float(weights @ weights)
    resid = p - y
    grad_w = X.T @ resid / n + 2.0 * l2 * weights
    grad_b = float(resid.mean())
    return loss, grad_w, grad_b


def train(X: np.ndarray, y: np.ndarray, l2: float = 1e-4, lr: float = 0.1,
          max_iter: int = 2000, tol: float = 1e-6,
          feature_names: list[str] | None = None,
          standardize: bool = True,
          numeric_columns: np.ndarray | None = None) -> LogisticModel:
    """Full-batch gradient descent from zero initialization; deterministic.

    When `numeric_columns` is given, only those features are standardized
    (binary/ordinal codes are left as-is).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    std = Standardizer.fit(X, numeric_columns) if standardize else None
    Xs = std.transform(X) if std is not None else X
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(max_iter):
        loss, gw, gb = loss_and_gradient(w, b, Xs, y, l2)
        if not np.isfinite(loss):
            raise TrainingDiverged("training loss became non-finite")
        if np.sqrt(float(gw @ gw) + gb * gb) < tol:
            break
        w -= lr * gw
        b -= lr * gb
    return LogisticModel(weights=w, bias=b, trained=True,
                         feature_names=feature_names or [], standardizer=std)
