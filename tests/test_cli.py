import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maddpp
from maddpp.cli import main
from maddpp.errors import MaddError
from maddpp.io import read_records, write_records
from maddpp.model import LogisticModel
from maddpp.densities import Scores


def run(tmp_path, *argv):
    return main(["--out-dir", str(tmp_path), *argv])


class TestSimulateCommand:
    def test_writes_records_and_manifest(self, tmp_path):
        assert run(tmp_path, "simulate", "--n-g0", "50", "--n-g1", "40",
                   "--seed", "1") == 0
        records = read_records(tmp_path / "records.csv")
        assert len(records) == 90
        assert (records.group == 0).sum() == 50
        manifest = json.loads((tmp_path / "records.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["group_counts"] == {"g0": 50, "g1": 40}

    def test_rerun_is_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run(tmp_path, "simulate", "--n-g0", "5", "--n-g1", "5", "--seed", "1",
            "--out", str(out1))
        run(tmp_path, "simulate", "--n-g0", "5", "--n-g1", "5", "--seed", "1",
            "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_group_exits_nonzero(self, tmp_path, capsys):
        code = run(tmp_path, "simulate", "--n-g0", "0")
        assert code == 10
        assert "EmptyPopulation" in capsys.readouterr().err


class TestMaddCommand:
    def test_identical_groups_zero(self, tmp_path):
        recs = Scores(*zip(*([(0.2, g) for g in (0, 1)] +
                             [(0.7, g) for g in (0, 1)])))
        path = tmp_path / "r.csv"
        write_records(recs, path)
        assert run(tmp_path, "madd", str(path), "--m", "10") == 0
        result = json.loads((tmp_path / "madd.json").read_text())
        assert result["madd"] == 0.0

    def test_kde_curves_optional(self, tmp_path):
        recs = Scores(*zip(*([(0.2, 0)] * 3 + [(0.7, 1)] * 3)))
        path = tmp_path / "r.csv"
        write_records(recs, path)
        run(tmp_path, "madd", str(path), "--m", "10", "--kde-bandwidth", "0.05")
        result = json.loads((tmp_path / "madd.json").read_text())
        assert len(result["kde_g0"]) == len(result["kde_g1"]) > 0

    def test_disjoint_groups_two(self, tmp_path):
        recs = Scores(*zip(*([(0.1, 0)] * 5 + [(0.9, 1)] * 5)))
        path = tmp_path / "r.csv"
        write_records(recs, path)
        run(tmp_path, "madd", str(path), "--m", "10")
        result = json.loads((tmp_path / "madd.json").read_text())
        assert result["madd"] == pytest.approx(2.0)
        assert result["fairness_loss"] == pytest.approx(1.0)
        assert len(result["bins_g0"]) == 10


class TestFipCommand:
    def make_records(self, tmp_path, n=200, seed=0):
        rng = np.random.default_rng(seed)
        recs = Scores(*zip(*([(float(p), 0) for p in rng.random(n) * 0.6] +
                             [(float(p), 1) for p in rng.random(n) * 0.6 + 0.4])))
        path = tmp_path / "r.csv"
        write_records(recs, path)
        return path

    def test_lambda_zero_identity(self, tmp_path):
        path = self.make_records(tmp_path)
        m = 25
        assert run(tmp_path, "fip", str(path), "--lambda", "0", "--m", str(m)) == 0
        with open(tmp_path / "fip.csv") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert abs(float(row["new_proba"]) - float(row["proba"])) <= 1 / m + 1e-12

    def test_invalid_lambda_exit_code(self, tmp_path, capsys):
        path = self.make_records(tmp_path)
        assert run(tmp_path, "fip", str(path), "--lambda", "1.5") == 17
        assert "InvalidLambda" in capsys.readouterr().err

    def test_rank_preservation_in_output(self, tmp_path):
        path = self.make_records(tmp_path)
        run(tmp_path, "fip", str(path), "--lambda", "0.8", "--m", "20")
        with open(tmp_path / "fip.csv") as fh:
            rows = list(csv.DictReader(fh))
        for g in ("0", "1"):
            pairs = [(float(r["proba"]), float(r["new_proba"]))
                     for r in rows if r["group"] == g]
            pairs.sort()
            news = [p for _, p in pairs]
            assert all(b >= a - 1e-12 for a, b in zip(news, news[1:]))


class TestSweepCommand:
    def test_outputs(self, tmp_path):
        rng = np.random.default_rng(1)
        recs = [(float(p), 0, int(rng.random() < p))
                for p in rng.random(200) * 0.6]
        recs += [(float(p), 1, int(rng.random() < p))
                 for p in rng.random(200) * 0.6 + 0.4]
        recs = Scores(*zip(*recs))
        path = tmp_path / "r.csv"
        write_records(recs, path)
        assert run(tmp_path, "sweep", str(path), "--m", "20", "--grid", "21") == 0
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 21
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert 0.0 <= payload["lambda_star"] <= 1.0

    def test_missing_labels_exit_code(self, tmp_path, capsys):
        recs = Scores([0.4, 0.6], [0, 1])
        path = tmp_path / "r.csv"
        write_records(recs, path)
        assert run(tmp_path, "sweep", str(path)) == 19
        assert "MissingLabels" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [["--theta", "2"], ["--t", "0"], ["--grid", "0"],
                                        ["--grid", "-1"]])
    def test_invalid_objective_exit_code(self, tmp_path, capsys, option):
        path = tmp_path / "r.csv"
        write_records(Scores([0.4, 0.6], [0, 1], [0, 1]), path)
        assert run(tmp_path, "sweep", str(path), *option) == 24
        err = capsys.readouterr().err
        assert err.startswith("InvalidObjective: ") and err.count("\n") == 1


class TestSimulatedEndToEnd:
    def test_default_simulation_madd_and_sweep(self, tmp_path):
        assert run(tmp_path, "simulate", "--seed", "0") == 0
        records_csv = tmp_path / "records.csv"
        assert len(read_records(records_csv)) == 20_000

        assert run(tmp_path, "madd", str(records_csv)) == 0
        result = json.loads((tmp_path / "madd.json").read_text())
        assert result["madd"] == pytest.approx(1.196, abs=0.06)

        assert run(tmp_path, "sweep", str(records_csv)) == 0
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert payload["lambda_star"] >= 0.9
        assert payload["min_total_loss"] == pytest.approx(0.226, abs=0.02)


def write_flat_dataset(path, n=3000, seed=0, biased=True):
    """Synthetic course table; `biased` couples the sensitive column to the label."""
    rng = np.random.default_rng(seed)
    gender = rng.choice(["F", "M"], size=n)
    score = rng.normal(size=n)
    clicks = rng.integers(0, 500, n).astype(float)
    shift = (gender == "M") * (1.2 if biased else 0.0)
    z = 0.6 * score + shift - 0.6 + clicks / 1000
    proba = 1 / (1 + np.exp(-z))
    label = (rng.random(n) < proba).astype(int)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["gender", "score", "sum_click", "label"])
        for g, s, c, y in zip(gender, score, clicks, label):
            w.writerow([g, f"{s:.6f}", c, y])


class TestPipelineCommand:
    def test_biased_dataset_improves_fairness(self, tmp_path):
        data = tmp_path / "course.csv"
        write_flat_dataset(data, biased=True)
        assert run(tmp_path, "pipeline", str(data), "--sensitive", "gender",
                   "--m", "20", "--grid", "101") == 0
        metrics = json.loads((tmp_path / "test_metrics.json").read_text())
        # the group gap here is label-aligned, so some accuracy is spent
        assert (metrics["after"]["fairness_loss"]
                <= 0.5 * metrics["before"]["fairness_loss"])
        assert (metrics["after"]["accuracy_loss"]
                <= metrics["before"]["accuracy_loss"] + 0.10)
        assert (tmp_path / "model.json").exists()
        assert (tmp_path / "validation_sweep.csv").exists()
        manifest = json.loads((tmp_path / "pipeline.manifest.json").read_text())
        assert manifest["command"] == "pipeline"
        training = manifest["training"]
        assert training["l2"] == 1e-4 and training["gradient_norm"] <= 1e-9
        assert 0 < training["newton_steps"] <= 20
        # model.json keeps its format: the training outcome is not saved with it
        model = LogisticModel.load(tmp_path / "model.json")
        assert model.training == {}

    def test_independent_sensitive_column(self, tmp_path):
        data = tmp_path / "course.csv"
        write_flat_dataset(data, biased=False)
        assert run(tmp_path, "pipeline", str(data), "--sensitive", "gender",
                   "--m", "20", "--grid", "51") == 0
        metrics = json.loads((tmp_path / "test_metrics.json").read_text())
        assert metrics["before"]["fairness_loss"] < 0.25
        assert "lambda_star" in metrics

    def test_overflowing_numeric_column_exit_code(self, tmp_path):
        # finite cells whose square overflows: the std is not finite
        data = tmp_path / "course.csv"
        with open(data, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["gender", "score", "label"])
            w.writerows([["MF"[i % 3 == 0], ("-1e300", "1e300")[i % 2], i % 2]
                         for i in range(200)])
        src = str(Path(maddpp.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from maddpp.cli import main; sys.exit(main())",
             "--out-dir", str(tmp_path), "pipeline", str(data), "--sensitive", "gender"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 21, proc.stderr
        assert proc.stderr.startswith("EncodingError: column 'score': ")
        assert proc.stderr.count("\n") == 1 and "RuntimeWarning" not in proc.stderr

    def test_non_binary_sensitive_exit_code(self, tmp_path, capsys):
        data = tmp_path / "course.csv"
        rng = np.random.default_rng(0)
        with open(data, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["region", "score", "label"])
            for _ in range(30):
                w.writerow([rng.choice(["a", "b", "c"]),
                            f"{rng.normal():.4f}", rng.integers(0, 2)])
        assert run(tmp_path, "pipeline", str(data), "--sensitive", "region") == 21
        assert "EncodingError" in capsys.readouterr().err


class TestMalformedInput:
    LABELLED = "proba,group,label\n"
    COURSE = "gender,score,label\n"
    RECORDS = LABELLED + "0.2,0,1\n0.7,1,0\n"

    @pytest.mark.parametrize("argv, content, code, error, detail", [
        (["madd", "{input}"], LABELLED + "0.2,0,1\nabc,1,0\n", 11, "InvalidProbability",
         "row 2: proba 'abc' is not a number"),
        (["sweep", "{input}"], LABELLED + "0.2,0,x\n0.7,1,0\n", 11, "InvalidProbability",
         "row 1: label 'x' is not an integer"),
        (["fip", "{input}", "--lambda", "0.5"], LABELLED + "0.2,0.0,1\n0.7,1,0\n", 11,
         "InvalidProbability", "row 1: group '0.0' is not an integer"),
        (["madd", "{input}"], LABELLED + "0.2,0,1\n1.5,1,0\n", 11, "InvalidProbability",
         "row 2 has 1.5"),
        (["madd", "{input}"], "proba,group\n0.2,0\n0.7\n", 11, "InvalidProbability",
         "row 2 has 1 cells, expected 2"),
        (["madd", "{input}"], "proba,group,lable\n0.2,0,1\n0.7,1,0\n", 11,
         "InvalidProbability", "expected header proba,group or proba,group,label"),
        (["madd", "{input}"], None, 25, "UnreadableInput", "No such file or directory"),
        (["fip", "{input}", "--lambda", "0.5"], None, 25, "UnreadableInput",
         "No such file or directory"),
        (["sweep", "{input}"], None, 25, "UnreadableInput", "No such file or directory"),
        (["pipeline", "{input}", "--sensitive", "gender"], None, 25, "UnreadableInput",
         "No such file or directory"),
        (["pipeline", "{input}", "--sensitive", "gender"],
         b"\xff\xfegender,label\nF,0\nM,1\n", 25, "UnreadableInput", "can't decode byte 0xff"),
        (["pipeline", "{input}", "--sensitive", "gender"], COURSE + "F,1.5,0\n\nM,inf,1\n",
         21, "EncodingError", "column 'score', row 3: 'inf' is not a finite number"),
        (["pipeline", "{input}", "--sensitive", "gender"], COURSE + "F,nan,0\nM,2.5,1\n",
         21, "EncodingError", "column 'score', row 1: 'nan' is not a finite number"),
        (["madd", "{input}", "--out", "{tmp}/missing/x.json"], RECORDS, 26,
         "UnwritableOutput", "cannot write {tmp}/missing/x.json: No such file or directory"),
        (["fip", "{input}", "--lambda", "0.5", "--out", "{tmp}/missing/fip.csv"], RECORDS,
         26, "UnwritableOutput", "cannot write {tmp}/missing/fip.csv: No such file or directory"),
        (["sweep", "{input}", "--out", "{tmp}/missing/sweep"], RECORDS, 26,
         "UnwritableOutput", "cannot write {tmp}/missing/sweep.csv: No such file or directory"),
        # a second --out-dir overrides the one every row gets
        (["--out-dir", "{input}/out", "madd", "{input}"], RECORDS, 26,
         "UnwritableOutput", "cannot write {input}/out: Not a directory"),
        # options are checked before the input is read, so a missing file is not reached
        (["fip", "{input}", "--lambda", "2"], None, 17, "InvalidLambda",
         "lambda must be in [0, 1], got 2.0"),
        (["sweep", "{input}", "--m", "1"], None, 12, "InvalidBinCount",
         "m must be >= 2, got 1"),
        (["pipeline", "{input}", "--sensitive", "gender", "--m", "1"],
         COURSE + "F,1.5,0\nM,2.5,1\n", 12, "InvalidBinCount", "m must be >= 2, got 1"),
        (["madd", "{input}", "--m", "1"], None, 12, "InvalidBinCount", "m must be >= 2, got 1"),
        (["madd", "{input}", "--kde-bandwidth", "-1"], None, 14, "InvalidBandwidth",
         "bandwidth must be positive, got -1.0"),
        (["fip", "{input}", "--m", "1", "--lambda", "0.5"], None, 12, "InvalidBinCount",
         "m must be >= 2, got 1"),
        # files numpy's reader rejects, re-read by the row parser
        (["madd", "{input}"], LABELLED, 10, "EmptyPopulation", "no records"),
        (["madd", "{input}"], LABELLED.encode() + b"0.2,0,1\n0.7,1,0\xff\n", 25,
         "UnreadableInput", "can't decode byte 0xff"),
        (["fip", "{input}", "--lambda", "0.5"], LABELLED.encode() + b"0.2,0,1\n0.7,1,0\xff\n",
         25, "UnreadableInput", "can't decode byte 0xff"),
        (["sweep", "{input}"], LABELLED + "0.2,0,1\n0.7,1,\n", 19, "MissingLabels",
         "label required on every row"),
    ])
    def test_typed_error(self, tmp_path, capsys, argv, content, code, error, detail):
        path = tmp_path / "input.csv"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        argv = [arg.format(tmp=tmp_path, input=path) for arg in argv]
        assert run(tmp_path, *argv) == code
        err = capsys.readouterr().err
        assert err.startswith(f"{error}: ") and err.count("\n") == 1, err
        assert detail.format(tmp=tmp_path, input=path) in err
        # an encoding error names the column and row instead, an output error its
        # output, an option error the option's value
        if code not in (12, 14, 17, 21, 26):
            assert str(path) in err, err
        assert not (tmp_path / "model.json").exists()


def test_header_only_records_print_one_line(tmp_path):
    # numpy's reader warns on a file with no rows; the warning must not reach stderr
    path = tmp_path / "r.csv"
    path.write_text("proba,group,label\n")
    src = str(Path(maddpp.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from maddpp.cli import main; sys.exit(main())",
         "--out-dir", str(tmp_path), "madd", str(path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"})
    assert proc.returncode == 10
    assert proc.stderr == f"EmptyPopulation: {path}: no records\n"


def test_empty_label_cell_reads_as_unlabelled(tmp_path):
    # madd and fip accept it; sweep exits 19 (TestMalformedInput)
    path = tmp_path / "r.csv"
    path.write_text("proba,group,label\n0.2,0,1\n0.7,1,\n0.4,1,0\n")
    assert run(tmp_path, "madd", str(path), "--m", "10") == 0
    manifest = json.loads((tmp_path / "madd.manifest.json").read_text())
    assert manifest["group_counts"] == {"g0": 1, "g1": 2}
    assert run(tmp_path, "fip", str(path), "--lambda", "0.5", "--m", "10") == 0


def test_every_error_class_has_its_own_exit_code():
    codes = [cls.exit_code for cls in MaddError.__subclasses__()]
    assert len(set(codes)) == len(codes)
    assert min(codes) >= 10
