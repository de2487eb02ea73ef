"""Minimal logistic classifier and dataset handling for flat course CSVs.

The post-processor only needs predicted probabilities, so the trainer is a
small, deterministic Newton solver (iteratively reweighted least squares)
for mean cross-entropy plus an L2 penalty on the weights: zero
initialization, run to the optimum, no external learner.
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
    UnreadableInput,
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
    columns: dict[str, list[str]]  # feature name -> raw cells, one per kept row
    labels: np.ndarray
    sensitive: str
    row_numbers: list[int]     # file row of each kept row (1 = first after the header)
    dropped_rows: int = 0      # rows removed for missing values at ingestion

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        if self.sensitive not in self.feature_names:
            raise EncodingError(f"sensitive column {self.sensitive!r} not in features")

    def sensitive_groups(self) -> np.ndarray:
        """0/1 group tags from the sensitive column (lexicographic order)."""
        values = self.columns[self.sensitive]
        levels = sorted(set(values))
        if len(levels) != 2:
            raise EncodingError(
                f"sensitive column {self.sensitive!r} must be binary, "
                f"found {len(levels)} distinct values")
        return (np.array(values) == levels[1]).astype(int)


# Rows move into the columns a chunk at a time: holding every row's list
# until the end raised the pipeline's peak RSS by ~5 MB.
CHUNK_ROWS = 4096


def _move_into_columns(rows: list[list[str]], cells: list[list[str]]) -> None:
    """Append each row's first len(cells) cells to `cells` by column; empty `rows`."""
    for column, values in zip(cells, zip(*rows)):
        column.extend(values)
    rows.clear()


def load_dataset(path, sensitive: str, label_column: str = "label") -> TabularDataset:
    """Read a flat CSV by columns; rows with any missing value are dropped and counted.

    Blank lines are skipped, a row shorter than the header or with an empty
    cell is dropped, and cells past the header's width are ignored.
    """
    chunk, row_numbers, dropped = [], [], 0
    with open_input(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or label_column not in header:
                raise EncodingError(f"label column {label_column!r} missing from {path}")
            if len(set(header)) != len(header):
                raise EncodingError(f"{path}: repeated column name in header {header}")
            width = len(header)
            cells = [[] for _ in header]
            for row_number, row in enumerate(reader, 1):
                if len(row) < width or "" in row[:width]:
                    if row:  # a blank line is skipped, not counted
                        dropped += 1
                    continue
                chunk.append(row)
                row_numbers.append(row_number)
                if len(chunk) == CHUNK_ROWS:
                    _move_into_columns(chunk, cells)
            _move_into_columns(chunk, cells)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise UnreadableInput(f"cannot read {path}: {exc}") from None
    if not row_numbers:
        raise EmptyPopulation(f"no usable rows in {path}")
    columns = dict(zip(header, cells))
    labels = columns.pop(label_column)
    for k, cell in enumerate(labels):
        if cell not in ("0", "1"):
            raise EncodingError(f"{path}: row {row_numbers[k]}: label must be 0 or 1, "
                                f"got {cell!r}")
    return TabularDataset(feature_names=[c for c in header if c != label_column],
                          columns=columns, labels=np.array(labels) == "1",
                          sensitive=sensitive, row_numbers=row_numbers, dropped_rows=dropped)


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
    parse as numbers are kept as-is and must be finite.  Standardization is
    a separate step so its statistics can come from the training split only.
    """
    columns, rules = [], {}
    for name in dataset.feature_names:
        values = dataset.columns[name]
        codes, rule = _column_codes(name, values)
        bad = np.flatnonzero(~np.isfinite(codes))
        if bad.size:
            k = int(bad[0])
            raise EncodingError(f"column {name!r}, row {dataset.row_numbers[k]}: "
                                f"{values[k]!r} is not a finite number")
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
    def fit(cls, X: np.ndarray, columns: np.ndarray | None = None,
            names: list[str] | None = None) -> "Standardizer":
        """`columns` is a boolean mask of features to scale; others pass through.

        A scaled column whose mean or std overflows raises EncodingError,
        naming it from `names` (else by index).
        """
        with np.errstate(over="ignore", invalid="ignore"):
            mean = X.mean(axis=0)
            std = X.std(axis=0)
            scaled = np.ones(mean.size, dtype=bool) if columns is None else columns
            bad = np.flatnonzero(scaled & ~(np.isfinite(mean) & np.isfinite(std)))
            if bad.size:
                k = int(bad[0])
                raise EncodingError(f"column {names[k] if names else k!r}: values too large "
                                    f"to standardize (mean {mean[k]}, std {std[k]})")
            std = np.where(std ** 2 < 1e-12, 1.0, std)  # variance floor for constant columns
        if columns is not None:
            mean = np.where(columns, mean, 0.0)
            std = np.where(columns, std, 1.0)
        return cls(mean=mean, std=std)

    def transform(self, X: np.ndarray) -> np.ndarray:
        scaled = X - self.mean
        scaled /= self.std  # in place: one n x d temporary, not two
        return scaled


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
    # how `train` ended (newton_steps, gradient_norm, l2); not saved to model.json
    training: dict = field(default_factory=dict)

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


def gradient(weights: np.ndarray, bias: float, X: np.ndarray, y: np.ndarray,
             l2: float) -> tuple[np.ndarray, float]:
    """Exact gradient of mean binary cross-entropy plus l2 * ||w||^2 with
    respect to (weights, bias); the bias is not penalized."""
    resid = _sigmoid(X @ weights + bias) - y
    return X.T @ resid / X.shape[0] + 2.0 * l2 * weights, float(resid.mean())


def hessian(weights: np.ndarray, bias: float, X: np.ndarray, l2: float) -> np.ndarray:
    """(d+1) x (d+1) Hessian of the same loss in [weights, bias].

    The weight block is summed over CHUNK_ROWS rows at a time and the bias
    row and column are X.T @ s and s.sum(), so no weighted or bias-extended
    copy of all of X is made (one raised the pipeline's peak RSS by ~1.8 MB).
    """
    p = _sigmoid(X @ weights + bias)
    s = p * (1.0 - p) / X.shape[0]
    d = X.shape[1]
    h = np.zeros((d + 1, d + 1))
    for start in range(0, X.shape[0], CHUNK_ROWS):
        rows = X[start:start + CHUNK_ROWS]
        h[:d, :d] += rows.T @ (rows * s[start:start + CHUNK_ROWS, None])
    h[:d, :d] += 2.0 * l2 * np.eye(d)
    h[:d, d] = h[d, :d] = X.T @ s
    h[d, d] = s.sum()
    return h


# From zero, Newton steps converge in ~5 steps on the course data and in ~20
# when the optimum lies far out (one class only, separable data with l2 = 0);
# a run that needs more than this has not converged.
MAX_NEWTON_STEPS = 100


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in a non-finite value
def _newton(X: np.ndarray, y: np.ndarray, l2: float, tol: float):
    """Newton steps from zero until the gradient norm is below `tol`:
    (weights, bias, steps, gradient norm)."""
    w = np.zeros(X.shape[1])
    b = 0.0
    steps = 0
    while True:
        gw, gb = gradient(w, b, X, y, l2)
        norm = float(np.sqrt(gw @ gw + gb * gb))
        if not np.isfinite(norm):
            raise TrainingDiverged(f"training gradient became non-finite after "
                                   f"{steps} Newton steps")
        if norm < tol:
            return w, b, steps, norm
        if steps == MAX_NEWTON_STEPS:
            raise TrainingDiverged(f"no convergence within {MAX_NEWTON_STEPS} Newton "
                                   f"steps (gradient norm {norm:.3g})")
        try:
            step = np.linalg.solve(hessian(w, b, X, l2), np.append(gw, gb))
        except np.linalg.LinAlgError:
            raise TrainingDiverged(f"singular Hessian at Newton step {steps + 1}; "
                                   f"features may be collinear (l2 = {l2})") from None
        if not np.all(np.isfinite(step)):
            raise TrainingDiverged(f"Newton step {steps + 1} became non-finite")
        w = w - step[:-1]
        b = b - float(step[-1])
        steps += 1


def train(X: np.ndarray, y: np.ndarray, l2: float = 1e-4, tol: float = 1e-9,
          feature_names: list[str] | None = None,
          standardize: bool = True,
          numeric_columns: np.ndarray | None = None) -> LogisticModel:
    """Newton steps (IRLS) from zero initialization to the optimum; deterministic.

    Minimizes mean cross-entropy plus l2 * ||w||^2 (bias unpenalized).  Each
    step computes the gradient, the Hessian and one (d+1) x (d+1) solve;
    training stops once the gradient norm falls below `tol`, so the returned
    weights have gradient norm < `tol`.  A singular Hessian, a non-finite
    gradient or step, or no convergence within MAX_NEWTON_STEPS raises
    TrainingDiverged.  When `numeric_columns` is given, only those features
    are standardized (binary/ordinal codes are left as-is).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    std = Standardizer.fit(X, numeric_columns, feature_names) if standardize else None
    Xs = std.transform(X) if std is not None else X
    w, b, steps, norm = _newton(Xs, y, l2, tol)
    return LogisticModel(weights=w, bias=b, trained=True,
                         feature_names=feature_names or [], standardizer=std,
                         training={"newton_steps": steps, "gradient_norm": norm, "l2": l2})
