"""Tests of the benchmark itself: output checks, tracer, course generator.

Run with `PYTHONPATH=src python -m pytest perfbench`.
"""

import json

import numpy as np
import pytest

import coursegen
import outputs
import run
from spans import Tracer, summarize

maddpp_cli = pytest.importorskip("maddpp.cli")
maddpp_model = pytest.importorskip("maddpp.model")
maddpp_transport = pytest.importorskip("maddpp.transport")


def cli(tmp_path, *argv):
    assert maddpp_cli.main(["--out-dir", str(tmp_path), *argv]) == 0


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """A small simulated run: records, a sweep, a MADD and a remap."""
    d = tmp_path_factory.mktemp("sim")
    cli(d, "simulate", "--n-g0", "300", "--n-g1", "200", "--seed", "3")
    cli(d, "sweep", str(d / "records.csv"), "--m", "20", "--grid", "50")
    cli(d, "madd", str(d / "records.csv"), "--m", "20")
    cli(d, "fip", str(d / "records.csv"), "--lambda", "0.9", "--m", "20")
    return d, outputs.check_records(d / "records.csv", 300, 200)


def check_sweep(d, records):
    return outputs.check_sweep(d / "sweep.csv", d / "sweep.json", 0.5, 50, records, 0.5, 20)


def test_checks_accept_good_outputs(simulated):
    d, records = simulated
    assert 0.0 <= check_sweep(d, records)["lambda_star"] <= 1.0
    assert outputs.check_madd(d / "madd.json", records, 20)["madd"] > 0
    outputs.check_fip(d / "fip.csv", records)


def test_sweep_check_rejects_wrong_lambda_star(simulated, tmp_path):
    d, records = simulated
    for name in ("sweep.csv", "sweep.json"):
        (tmp_path / name).write_bytes((d / name).read_bytes())
    summary = json.loads((d / "sweep.json").read_text())
    lambdas = np.loadtxt(d / "sweep.csv", delimiter=",", skiprows=1)[:, 0]
    summary["lambda_star"] = float(lambdas[lambdas != summary["lambda_star"]][0])
    (tmp_path / "sweep.json").write_text(json.dumps(summary))
    with pytest.raises(outputs.CheckFailed, match="lambda_star"):
        check_sweep(tmp_path, records)


def test_sweep_check_rejects_wrong_lambda_zero_loss(simulated):
    d, (proba, group, label) = simulated
    with pytest.raises(outputs.CheckFailed, match="accuracy loss at lambda 0"):
        check_sweep(d, (proba, group, 1 - label))


def test_fip_check_rejects_reordered_rows(simulated, tmp_path):
    d, records = simulated
    lines = (d / "fip.csv").read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    (tmp_path / "fip.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(outputs.CheckFailed, match="input order"):
        outputs.check_fip(tmp_path / "fip.csv", records)


def test_fip_check_rejects_broken_rank_order(simulated, tmp_path):
    d, records = simulated
    proba, group, _ = records
    rows = np.loadtxt(d / "fip.csv", delimiter=",", skiprows=1)
    g0 = np.flatnonzero(group == 0)
    lo, hi = g0[np.argmin(proba[g0])], g0[np.argmax(proba[g0])]
    rows[[lo, hi], 1] = rows[[hi, lo], 1]
    lines = ["proba,new_proba,group"] + [
        f"{format(p, '.17g')},{format(q, '.17g')},{int(g)}" for p, q, g in rows]
    (tmp_path / "fip.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(outputs.CheckFailed, match="rank order"):
        outputs.check_fip(tmp_path / "fip.csv", records)


def test_madd_check_rejects_perturbed_value(simulated, tmp_path):
    d, records = simulated
    result = json.loads((d / "madd.json").read_text())
    result["madd"] += 1e-6
    (tmp_path / "madd.json").write_text(json.dumps(result))
    with pytest.raises(outputs.CheckFailed, match="madd"):
        outputs.check_madd(tmp_path / "madd.json", records, 20)


def test_pipeline_check(tmp_path):
    coursegen.generate(tmp_path / "course.csv", seed=5, rows=600)
    cli(tmp_path, "pipeline", str(tmp_path / "course.csv"), "--sensitive", "gender",
        "--m", "20", "--grid", "30")
    assert outputs.check_pipeline(tmp_path, 0.5, 30)["lambda_star"] >= 0.0
    metrics = json.loads((tmp_path / "test_metrics.json").read_text())
    metrics["after"]["fairness_loss"] = 1.5
    (tmp_path / "test_metrics.json").write_text(json.dumps(metrics))
    with pytest.raises(outputs.CheckFailed, match="outside"):
        outputs.check_pipeline(tmp_path, 0.5, 30)


def test_tracer_records_spans_and_tolerates_missing_names(simulated, tmp_path):
    d, _ = simulated
    original = maddpp_cli.read_records
    tracer = Tracer([("maddpp.cli", "main", "cli.main"),
                     ("maddpp.cli", "read_records", "io.read_records"),
                     ("maddpp.cli", "no_such_function", "io.gone"),
                     ("maddpp.no_such_module", "f", "x.gone"),
                     ("maddpp.transport", "FipMap.from_probas", "transport.from_probas")])
    with tracer:
        assert maddpp_cli.main(["--out-dir", str(tmp_path), "fip", str(d / "records.csv"),
                                "--lambda", "0.5", "--m", "20"]) == 0
    assert tracer.absent == ["maddpp.cli.no_such_function", "maddpp.no_such_module.f"]
    assert maddpp_cli.read_records is original
    assert isinstance(vars(maddpp_transport.FipMap)["from_probas"], classmethod)
    summary = summarize(tracer.spans)
    assert {name: row["calls"] for name, row in summary.items()} == {
        "cli.main": 1, "io.read_records": 1, "transport.from_probas": 1}
    main = summary["cli.main"]
    assert main["self_s"] == pytest.approx(
        main["s"] - summary["io.read_records"]["s"] - summary["transport.from_probas"]["s"])


def test_tracer_counts_madd_errors(tmp_path):
    (tmp_path / "bad.csv").write_text("proba,group,label\n")
    tracer = Tracer([("maddpp.cli", "read_records", "io.read_records")])
    with tracer:
        assert maddpp_cli.main(["--out-dir", str(tmp_path), "madd",
                                str(tmp_path / "bad.csv")]) != 0
    assert summarize(tracer.spans)["io.read_records"]["errors"] == 1


def test_course_generator_is_deterministic(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    coursegen.generate(a, seed=7, rows=2000)
    coursegen.generate(b, seed=7, rows=2000)
    coursegen.generate(c, seed=8, rows=2000)
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()
    assert len(a.read_text().splitlines()) == 2001


def test_course_vocabulary_matches_program():
    assert coursegen.ORDINAL_LEVELS == maddpp_model.ORDINAL_LEVELS


def test_layer_metrics_match_benchmark_spec():
    names = {m["name"] for m in run.spec_metrics(trace_on=True)}
    assert set(run._layer_metrics({}, run.WORKLOADS["paper-sweep"], 0.0, 0)) == names
