"""The gradient-only trainer against the loss-evaluating oracle: exact equality."""

import csv

import numpy as np
import pytest

from maddpp import model
from maddpp.errors import TrainingDiverged
from maddpp.model import ORDINAL_LEVELS, encode, load_dataset, split, train
from train_oracle import oracle_train

REGIONS = [f"region_{i:02d}" for i in range(8)]


def assert_identical(monkeypatch, X, y, **kwargs):
    calls = []
    gradient = model.gradient

    def counted(*args):
        calls.append(None)
        return gradient(*args)

    monkeypatch.setattr(model, "gradient", counted)
    fast = train(X, y, **kwargs)
    w, b, iterations = oracle_train(X, y, **kwargs)
    assert np.array_equal(fast.weights, w)
    assert fast.bias == b
    assert len(calls) == iterations
    return iterations


@pytest.mark.parametrize("seed, kwargs", [
    (0, {}),
    (1, {"standardize": False}),
    (2, {"l2": 0.0, "lr": 0.5}),
    (3, {"max_iter": 50}),
    (4, {"tol": 1e-2}),  # stops early on the gradient norm
    (5, {"numeric_columns": np.array([True, False, True])}),
])
def test_seeded_data(monkeypatch, seed, kwargs):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(300, 3)) * [1.0, 5.0, 0.1] + [0.0, 2.0, -1.0]
    y = (X[:, 0] + 0.3 * X[:, 1] + rng.normal(size=300) > 0.5).astype(float)
    iterations = assert_identical(monkeypatch, X, y, **kwargs)
    if "tol" in kwargs:
        assert iterations < 2000


def write_course_csv(path, rows, seed):
    """Course-shaped table: ordinal bands, numeric scores, categorical region,
    a few blank lines and incomplete rows."""
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["gender", "age", "highest_education", "poverty", "studied_credits",
                    "mean_score", "region", "disability", "label"])
        for i in range(rows):
            male = rng.random() < 0.8
            edu = int(rng.integers(0, 5))
            score = round(float(np.clip(rng.normal(68.0, 14.0), 0.0, 100.0)), 1)
            z = 0.06 * (score - 68.0) + 0.35 * edu + 0.6 * male - 0.3
            row = ["M" if male else "F", rng.choice(ORDINAL_LEVELS["age"]),
                   ORDINAL_LEVELS["highest_education"][edu],
                   rng.choice(ORDINAL_LEVELS["poverty"]), str(30 * rng.integers(1, 9)),
                   f"{score:.1f}", rng.choice(REGIONS), rng.choice(["Y", "N"]),
                   int(rng.random() < 1 / (1 + np.exp(-z)))]
            if i % 97 == 0:
                row[int(rng.integers(0, len(row)))] = ""
            w.writerow(row)
            if i % 211 == 0:
                fh.write("\r\n")


def test_course_csv(monkeypatch, tmp_path):
    path = tmp_path / "course.csv"
    write_course_csv(path, rows=5000, seed=11)  # more rows than one load chunk
    dataset = load_dataset(path, sensitive="gender")
    assert dataset.dropped_rows > 0
    X, y, rules = encode(dataset)
    numeric = np.array([rules[name] == "numeric" for name in dataset.feature_names])
    assert numeric.any() and not numeric.all()
    idx_train, _, _ = split(len(y), seed=0)
    assert_identical(monkeypatch, X[idx_train], y[idx_train], numeric_columns=numeric)


def test_divergence_raises_on_both():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 3))
    y = (X[:, 0] > 0).astype(float)
    with pytest.raises(TrainingDiverged):
        train(X, y, lr=1e308)
    with pytest.raises(TrainingDiverged):
        oracle_train(X, y, lr=1e308)
