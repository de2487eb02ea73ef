"""Checks of the CLI's output files, recomputed from outside with numpy.

None of this calls into `maddpp`: each check reads the files the CLI wrote
and recomputes what it can from the input records.  A check raises
`CheckFailed` with a one-line reason, or returns the values it recorded.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

TOL = 1e-12
SWEEP_HEADER = "lambda,accuracy_loss,fairness_loss,total_loss"


class CheckFailed(Exception):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _load_csv(path, header: str, columns: int) -> np.ndarray:
    path = Path(path)
    _require(path.is_file(), f"{path.name}: missing")
    with open(path) as fh:
        first = fh.readline().strip()
    _require(first == header, f"{path.name}: header {first!r}, expected {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=float)
    _require(data.shape[1] == columns, f"{path.name}: {data.shape[1]} columns")
    return data


def read_records(path):
    """(proba, group, label) arrays of a records CSV."""
    data = _load_csv(path, "proba,group,label", 3)
    return data[:, 0], data[:, 1].astype(int), data[:, 2].astype(int)


def check_records(path, n_g0: int, n_g1: int):
    """The simulated input: sizes, group tags, labels and probabilities."""
    proba, group, label = read_records(path)
    _require(proba.size == n_g0 + n_g1, f"records: {proba.size} rows")
    _require(int((group == 0).sum()) == n_g0 and int((group == 1).sum()) == n_g1,
             "records: wrong group sizes")
    _require(np.all((proba >= 0.0) & (proba <= 1.0)), "records: proba outside [0, 1]")
    _require(np.all((label == 0) | (label == 1)), "records: label not in {0, 1}")
    return proba, group, label


def histogram_l1(proba, group, m: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Sum of |h0 - h1| of the group histograms over bins [k/m, (k+1)/m),
    the last bin right-closed; returns the distance and both histograms."""
    edges = np.arange(m + 1) / m
    h0 = np.histogram(proba[group == 0], bins=edges)[0] / np.count_nonzero(group == 0)
    h1 = np.histogram(proba[group == 1], bins=edges)[0] / np.count_nonzero(group == 1)
    return float(np.abs(h0 - h1).sum()), h0, h1


def check_sweep(csv_path, json_path, theta: float, grid: int, records=None,
                threshold: float | None = None, m: int | None = None) -> dict:
    """sweep.csv/sweep.json: the objective identity, lambda* as the
    largest-lambda argmin, and (given the input records) the lambda = 0 row."""
    rows = _load_csv(csv_path, SWEEP_HEADER, 4)
    lam, acc, fair, tot = rows.T
    _require(lam.size == grid, f"sweep: {lam.size} rows, expected {grid}")
    _require(lam[0] == 0.0 and lam[-1] == 1.0 and np.all(np.diff(lam) > 0),
             "sweep: lambda grid is not increasing over [0, 1]")
    _require(np.all(np.isfinite(rows)), "sweep: non-finite value")
    _require(np.all((rows[:, 1:] >= 0.0) & (rows[:, 1:] <= 1.0)),
             "sweep: loss outside [0, 1]")
    _require(np.all(np.abs(tot - ((1.0 - theta) * acc + theta * fair)) <= TOL),
             "sweep: total != (1 - theta) * acc + theta * fair")
    best = lam.size - 1 - int(np.argmin(tot[::-1]))
    with open(json_path) as fh:
        summary = json.load(fh)
    _require(summary["lambda_star"] == lam[best],
             f"sweep: lambda_star {summary['lambda_star']} != largest argmin {lam[best]}")
    _require(abs(summary["min_total_loss"] - tot[best]) <= TOL,
             "sweep: min_total_loss != total loss at lambda_star")
    if records is not None:
        proba, group, label = records
        errors = np.count_nonzero((proba >= threshold).astype(int) != label)
        _require(abs(acc[0] - errors / proba.size) <= TOL,
                 f"sweep: accuracy loss at lambda 0 {acc[0]} != {errors / proba.size}")
        l1 = histogram_l1(proba, group, m)[0]
        _require(abs(fair[0] - 0.5 * l1) <= TOL,
                 f"sweep: fairness loss at lambda 0 {fair[0]} != {0.5 * l1}")
    return {"lambda_star": float(summary["lambda_star"]),
            "min_total_loss": float(summary["min_total_loss"])}


def check_madd(json_path, records, m: int) -> dict:
    """madd.json: the MADD and both group histograms, recomputed."""
    proba, group, _ = records
    with open(json_path) as fh:
        result = json.load(fh)
    l1, h0, h1 = histogram_l1(proba, group, m)
    _require(abs(result["madd"] - l1) <= TOL, f"madd: {result['madd']} != {l1}")
    _require(abs(result["fairness_loss"] - 0.5 * l1) <= TOL, "madd: fairness_loss != madd / 2")
    for key, expected in (("bins_g0", h0), ("bins_g1", h1)):
        got = np.asarray(result[key], dtype=float)
        _require(got.shape == expected.shape and np.all(np.abs(got - expected) <= TOL),
                 f"madd: {key} differs from the recomputed histogram")
    return {"madd": float(result["madd"])}


def check_fip(csv_path, records) -> dict:
    """fip.csv: row count and input order kept, new_proba in [0, 1], and
    rank order kept within each group."""
    proba, group, _ = records
    rows = _load_csv(csv_path, "proba,new_proba,group", 3)
    _require(rows.shape[0] == proba.size, f"fip: {rows.shape[0]} rows, expected {proba.size}")
    _require(np.array_equal(rows[:, 0], proba) and np.array_equal(rows[:, 2], group),
             "fip: rows are not the input records in input order")
    new = rows[:, 1]
    _require(np.all((new >= 0.0) & (new <= 1.0)), "fip: new_proba outside [0, 1]")
    for g in (0, 1):
        mask = group == g
        order = np.argsort(proba[mask], kind="stable")
        _require(np.all(np.diff(new[mask][order]) >= 0.0),
                 f"fip: rank order not kept in group {g}")
    return {}


def check_pipeline(out_dir, theta: float, grid: int) -> dict:
    """The pipeline's validation sweep and its test metrics."""
    out_dir = Path(out_dir)
    recorded = check_sweep(out_dir / "validation_sweep.csv",
                           out_dir / "validation_sweep.json", theta, grid)
    with open(out_dir / "test_metrics.json") as fh:
        metrics = json.load(fh)
    _require(metrics["lambda_star"] == recorded["lambda_star"],
             "pipeline: test lambda_star != validation lambda_star")
    for when in ("before", "after"):
        for loss in ("accuracy_loss", "fairness_loss"):
            value = metrics[when][loss]
            _require(0.0 <= value <= 1.0, f"pipeline: {when} {loss} {value} outside [0, 1]")
    with open(out_dir / "model.json") as fh:
        weights = np.asarray(json.load(fh)["weights"], dtype=float)
    _require(weights.size > 0 and np.all(np.isfinite(weights)), "pipeline: bad model weights")
    recorded["test_fairness_after"] = metrics["after"]["fairness_loss"]
    return recorded
