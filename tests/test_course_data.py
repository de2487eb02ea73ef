"""The course-pipeline benchmark's own data in tier-1: `perfbench/coursegen`
files, the pipeline's validation batch swept against the oracle, and the
pipeline run end to end.

At m = 500 the validation batch leaves bins of each group empty, which the
20k-record simulation does not.
"""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from maddpp.cli import main
from maddpp.densities import Scores, build_density_vector
from maddpp.model import encode, load_dataset, split, train
from maddpp.objective import ObjectiveConfig, default_lambda_grid, sweep
from sweep_oracle import oracle_sweep

SEEDS = (7, 11, 3)


@pytest.fixture(scope="module")
def course_csvs(tmp_path_factory):
    """One generated course CSV per seed, from perfbench/ imported as it is."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        coursegen = importlib.import_module("coursegen")
    out = tmp_path_factory.mktemp("course")
    paths = {}
    for seed in SEEDS:
        paths[seed] = out / f"course_{seed}.csv"
        coursegen.generate(paths[seed], seed)
    return paths


def validation_batch(path):
    """The batch `pipeline --sensitive gender --seed 0` sweeps: the model's
    scores on its validation split."""
    dataset = load_dataset(path, sensitive="gender")
    X, y, rules = encode(dataset)
    groups = dataset.sensitive_groups()
    idx_train, idx_val, _ = split(len(y), seed=0)
    model = train(X[idx_train], y[idx_train], rules)
    return Scores(model.predict_proba(X[idx_val]), groups[idx_val], y[idx_val])


@pytest.mark.parametrize("m", [100, 500])
@pytest.mark.parametrize("seed", SEEDS)
def test_validation_sweep_matches_oracle(course_csvs, seed, m):
    batch = validation_batch(course_csvs[seed])
    if m == 500:
        assert (build_density_vector(batch, m)[:2] == 0).any(axis=1).all()
    config = ObjectiveConfig(m=m, lambda_grid=default_lambda_grid(1000))
    fast, slow = sweep(batch, config), oracle_sweep(batch, config)
    for got, expected in zip(fast.columns(), slow.columns()):
        assert np.array_equal(got, expected)
    assert (fast.lambda_star, fast.min_total_loss) == (slow.lambda_star, slow.min_total_loss)


@pytest.mark.parametrize("m", [100, 500])
@pytest.mark.parametrize("seed", SEEDS)
def test_pipeline_lowers_test_fairness_loss(course_csvs, seed, m, tmp_path):
    assert main(["--out-dir", str(tmp_path), "pipeline", str(course_csvs[seed]),
                 "--sensitive", "gender", "--m", str(m)]) == 0
    metrics = json.loads((tmp_path / "test_metrics.json").read_text())
    before, after = (metrics[k]["fairness_loss"] for k in ("before", "after"))
    # 0.274-0.306 -> 0.080-0.090 at m = 100, 0.375-0.394 -> 0.171-0.197 at m = 500
    assert after < before
