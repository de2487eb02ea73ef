"""The Newton trainer against the gradient-descent oracle.

Newton steps run to the optimum of the penalized loss, so at the returned
weights the gradient norm is at most 1e-9 and the loss is no higher than
the oracle's early-stopped one.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maddpp
from maddpp import model
from maddpp.errors import TrainingDiverged
from maddpp.model import ORDINAL_LEVELS, encode, load_dataset, split, train
from train_oracle import loss, oracle_train

REGIONS = [f"region_{i:02d}" for i in range(8)]


def same_rule(d, rule="numeric"):
    """`encode`'s rules for d columns, each encoded by `rule`."""
    return {f"x{j}": rule for j in range(d)}


def assert_optimal(monkeypatch, X, y, train_kwargs, oracle_kwargs=None):
    calls = []
    gradient = model.gradient

    def counted(*args):
        calls.append(None)
        return gradient(*args)

    monkeypatch.setattr(model, "gradient", counted)
    fast = train(X, y, **train_kwargs)
    monkeypatch.undo()
    l2 = train_kwargs.get("l2", 1e-4)
    Xs = fast.standardizer.transform(X)
    gw, gb = gradient(fast.weights, fast.bias, Xs, y, l2)
    norm = np.sqrt(gw @ gw + gb * gb)
    assert norm <= 1e-9
    assert fast.training == {"newton_steps": len(calls) - 1, "gradient_norm": norm, "l2": l2}
    w, b = oracle_train(X, y, **train_kwargs, **(oracle_kwargs or {}))
    assert loss(fast.weights, fast.bias, Xs, y, l2) <= loss(w, b, Xs, y, l2)


# lr, max_iter and tol set only the oracle's early stop; Newton has no lr or
# step budget and runs to its default tol
ORACLE_ONLY = ("lr", "max_iter", "tol")


@pytest.mark.parametrize("seed, kwargs", [
    (0, {}),
    (1, {"rules": same_rule(3, "ordinal")}),  # none scaled
    (2, {"l2": 0.0, "lr": 0.5}),
    (3, {"max_iter": 50}),
    (4, {"tol": 1e-2}),
    (5, {"rules": {"x0": "numeric", "x1": "categorical['a', 'b']", "x2": "numeric"}}),
])
def test_seeded_data(monkeypatch, seed, kwargs):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(300, 3)) * [1.0, 5.0, 0.1] + [0.0, 2.0, -1.0]
    y = (X[:, 0] + 0.3 * X[:, 1] + rng.normal(size=300) > 0.5).astype(float)
    kwargs = {"rules": same_rule(3), **kwargs}
    train_kwargs = {k: v for k, v in kwargs.items() if k not in ORACLE_ONLY}
    oracle_kwargs = {k: v for k, v in kwargs.items() if k in ORACLE_ONLY}
    assert_optimal(monkeypatch, X, y, train_kwargs, oracle_kwargs)


def test_loose_tol_stops_early():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(300, 3))
    y = (X[:, 0] + rng.normal(size=300) > 0.5).astype(float)
    loose = train(X, y, same_rule(3), tol=1e-2).training
    assert loose["gradient_norm"] < 1e-2
    assert loose["newton_steps"] < train(X, y, same_rule(3)).training["newton_steps"]


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
    assert list(rules) == dataset.feature_names
    assert "numeric" in rules.values() and set(rules.values()) != {"numeric"}
    idx_train, _, _ = split(len(y), seed=0)
    assert_optimal(monkeypatch, X[idx_train], y[idx_train], {"rules": rules})


def duplicated_column(seed=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(50, 3))
    return X[:, [0, 1, 2, 2]], (X[:, 0] > 0).astype(float), same_rule(4)


def test_singular_hessian_raises():
    X, y, rules = duplicated_column()
    with pytest.raises(TrainingDiverged, match="singular Hessian"):
        train(X, y, rules, l2=0.0)
    # the l2 term makes the weight block positive definite
    assert train(X, y, rules).training["gradient_norm"] <= 1e-9


def test_non_finite_gradient_raises():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 3)) * 1e200
    y = (X[:, 0] > 0).astype(float)
    with pytest.raises(TrainingDiverged, match="gradient became non-finite"):
        train(X, y, same_rule(3, "ordinal"))  # not scaled


def test_non_finite_step_raises(monkeypatch):
    monkeypatch.setattr(np.linalg, "solve", lambda h, g: np.full_like(g, np.inf))
    with pytest.raises(TrainingDiverged, match="Newton step 1 became non-finite"):
        train(*duplicated_column())


def test_no_convergence_raises(monkeypatch):
    monkeypatch.setattr(model, "MAX_NEWTON_STEPS", 1)
    with pytest.raises(TrainingDiverged, match="no convergence within 1 Newton steps"):
        train(*duplicated_column())


def test_singular_hessian_raises_under_python_O():
    code = ("import numpy as np\n"
            "from maddpp.errors import TrainingDiverged\n"
            "from maddpp.model import train\n"
            "X = np.random.default_rng(4).normal(size=(50, 3))[:, [0, 1, 2, 2]]\n"
            "try:\n"
            "    train(X, (X[:, 0] > 0).astype(float), dict.fromkeys('abcd', 'numeric'), l2=0.0)\n"
            "except TrainingDiverged:\n"
            "    print(__debug__, 'TrainingDiverged')\n")
    src = str(Path(maddpp.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.split() == ["False", "TrainingDiverged"], out.stderr
