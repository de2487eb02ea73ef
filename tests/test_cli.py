import csv
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import maddpp
from maddpp.cli import main
from maddpp.errors import MaddError
from maddpp.io import read_records, write_records
from maddpp.densities import SIZE_LIMIT, Scores
from train_oracle import load_model


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

    def test_json_is_the_decision(self, tmp_path):
        # sweep.json holds lambda*, its loss and the config; the rows are in sweep.csv
        path = tmp_path / "r.csv"
        write_records(Scores([0.1, 0.4, 0.45, 0.6, 0.9], [0, 0, 1, 1, 1], [0, 1, 0, 1, 1]), path)
        assert run(tmp_path, "sweep", str(path), "--m", "4", "--grid", "11") == 0
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert list(payload) == ["lambda_star", "min_total_loss", "config"]
        assert payload["config"] == {"theta": 0.5, "threshold": 0.5, "m": 4, "grid_size": 11}
        with open(tmp_path / "sweep.csv") as fh:
            rows = [{k: float(v) for k, v in r.items()} for r in csv.DictReader(fh)]
        best = min(reversed(rows), key=lambda r: r["total_loss"])  # ties: the largest lambda
        assert payload["lambda_star"] == best["lambda"]
        assert payload["min_total_loss"] == best["total_loss"]

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
        model = load_model(tmp_path / "model.json")
        assert model.training == {}

    def test_independent_sensitive_column(self, tmp_path):
        data = tmp_path / "course.csv"
        write_flat_dataset(data, biased=False)
        assert run(tmp_path, "pipeline", str(data), "--sensitive", "gender",
                   "--m", "20", "--grid", "51") == 0
        metrics = json.loads((tmp_path / "test_metrics.json").read_text())
        assert metrics["before"]["fairness_loss"] < 0.25
        assert "lambda_star" in metrics

    def test_line_ends_bom_and_quotes_read_alike(self, tmp_path):
        # one table as LF, CRLF, BOM-first and fully quoted text; the quoted
        # copy goes to the csv.reader row loop, the others to the numpy reader
        data = tmp_path / "course.csv"
        write_flat_dataset(data, biased=True)
        with open(data, newline="") as fh:
            rows = list(csv.reader(fh))
        for k in range(3, len(rows), 41):
            rows[k][k % 4] = ""
        rows[7] = rows[7][:2]
        lf = "".join(",".join(row) + "\n" for row in rows)
        copies = {"lf": lf, "crlf": lf.replace("\n", "\r\n"), "bom": "\ufeff" + lf,
                  "quoted": "".join(",".join(f'"{c}"' for c in row) + "\n" for row in rows)}
        results = {}
        for name, text in copies.items():
            path = tmp_path / f"{name}.csv"
            path.write_bytes(text.encode())
            out = tmp_path / name
            with mock.patch.object(maddpp.model, "_read_rows",
                                   wraps=maddpp.model._read_rows) as row_loop:
                assert run(out, "pipeline", str(path), "--sensitive", "gender",
                           "--m", "20", "--grid", "101") == 0
            assert row_loop.called is (name == "quoted")
            manifest = json.loads((out / "pipeline.manifest.json").read_text())
            results[name] = ([(out / f).read_bytes() for f in (
                "model.json", "validation_sweep.csv", "validation_sweep.json",
                "test_metrics.json")], manifest["config"]["encodings"],
                manifest["config"]["dropped_rows"])
        assert results["lf"][2] == len(range(3, len(rows), 41)) + 1
        for name in copies:
            assert results[name] == results["lf"], name

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


@pytest.mark.parametrize("argv", [
    ["simulate", "--n-g0", "5", "--n-g1", "5", "--seed", "1"],
    ["madd", "{records}", "--m", "10"],
    ["fip", "{records}", "--lambda", "0.5", "--m", "10"],
    ["sweep", "{records}", "--m", "10", "--grid", "11"],
    ["pipeline", "{course}", "--sensitive", "gender", "--m", "20", "--grid", "11"],
], ids=lambda argv: argv[0])
def test_rerun_is_byte_identical(tmp_path, monkeypatch, argv):
    # each run in its own working directory, so the manifests name the same
    # relative outputs; only their timestamp lines may differ
    assert run(tmp_path, "simulate", "--n-g0", "60", "--n-g1", "40", "--seed", "3") == 0
    write_flat_dataset(tmp_path / "course.csv", n=400)
    argv = [arg.format(records=tmp_path / "records.csv", course=tmp_path / "course.csv")
            for arg in argv]
    runs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main(argv) == 0
        files = {}
        for path in Path().iterdir():
            data = path.read_bytes()
            if path.suffix == ".json":  # the one format of io.write_json
                assert data.decode() == json.dumps(json.loads(data), indent=2), path
            files[path.name] = re.sub(rb'\n  "timestamp": "[^"]*",', b"", data)
        runs.append(files)
    assert runs[0] == runs[1]
    assert any(name.endswith(".manifest.json") for name in runs[0]), runs[0]


def test_out_dir_is_created_only_when_used(tmp_path, monkeypatch):
    records = tmp_path / "r.csv"
    records.write_text(TestMalformedInput.RECORDS)
    # --out names the output, so --out-dir is neither created nor checked
    afile = tmp_path / "afile"
    afile.write_text("")
    ok = tmp_path / "ok.json"
    assert main(["--out-dir", str(afile), "madd", str(records), "--out", str(ok)]) == 0
    assert ok.is_file() and (tmp_path / "ok.manifest.json").is_file()
    assert main(["--out-dir", str(tmp_path / "new" / "deep"), "fip", str(records),
                 "--lambda", "0.5", "--out", str(tmp_path / "x.csv")]) == 0
    assert (tmp_path / "x.csv").is_file() and not (tmp_path / "new").exists()
    # the output directory comes from --out-dir alone, not from the environment
    monkeypatch.setenv("MADDPP_OUT_DIR", str(tmp_path / "envdir"))
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    assert main(["simulate", "--n-g0", "5", "--n-g1", "5"]) == 0
    assert (tmp_path / "work" / "records.csv").is_file()
    assert not (tmp_path / "envdir").exists()


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
        # the header is checked before a byte after it that does not decode
        (["pipeline", "{input}", "--sensitive", "nosuch"], COURSE.encode() + b"F,1.5,0\n\xff\n",
         21, "EncodingError", "sensitive column 'nosuch' not in features"),
        (["fip", "{input}", "--m", "1", "--lambda", "0.5"], None, 12, "InvalidBinCount",
         "m must be >= 2, got 1"),
        # files the bulk reader leaves to the row parser
        (["madd", "{input}"], LABELLED, 10, "EmptyPopulation", "no records"),
        (["madd", "{input}"], LABELLED.encode() + b"0.2,0,1\n0.7,1,0\xff\n", 25,
         "UnreadableInput", "can't decode byte 0xff"),
        (["fip", "{input}", "--lambda", "0.5"], LABELLED.encode() + b"0.2,0,1\n0.7,1,0\xff\n",
         25, "UnreadableInput", "can't decode byte 0xff"),
        (["sweep", "{input}"], LABELLED + "0.2,0,1\n0.7,1,\n", 19, "MissingLabels",
         "label required on every row"),
        # a row number counts blank lines, for a value out of range as for a bad cell
        (["madd", "{input}"], LABELLED + "\n0.2,0,1\n1.5,1,0\n", 11, "InvalidProbability",
         "row 3 has 1.5"),
        # numpy's generators take no negative seed; checked before any input is read
        (["simulate", "--seed", "-1", "--out", "{input}"], None, 27, "InvalidSeed",
         "seed must be >= 0, got -1"),
        (["pipeline", "{input}", "--sensitive", "gender", "--seed", "-1"], None, 27,
         "InvalidSeed", "seed must be >= 0, got -1"),
        # a BOM does not hide the first column's name
        (["pipeline", "{input}", "--sensitive", "gender"], "\ufeff" + COURSE + "F,inf,0\n", 21,
         "EncodingError", "column 'score', row 1: 'inf' is not a finite number"),
        # the header is checked before any row: a bad --sensitive before a bad label
        (["pipeline", "{input}", "--sensitive", "nosuch"], COURSE + "F,1.5,2\n", 21,
         "EncodingError", "sensitive column 'nosuch' not in features"),
        # the file holds both groups, but a split of it does not
        (["pipeline", "{input}", "--sensitive", "gender"], COURSE + "F,1.5,0\nM,2.5,1\n", 16,
         "EmptyGroup", "the validation split (0 of 2 rows) has no record of group 0"),
        (["pipeline", "{input}", "--sensitive", "gender", "--seed", "0"],
         COURSE + "F,1.5,0\nM,2.5,1\n" * 10, 16, "EmptyGroup",
         "the test split (3 of 20 rows) has no record of group 0"),
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
        if code not in (12, 17, 21, 26, 27):
            assert str(path) in err, err
        assert not (tmp_path / "model.json").exists()
        # and a run stopped by an option writes nothing, not even simulate's --out
        assert content is not None or not path.exists()


@pytest.mark.parametrize("argv, callee", [
    (["simulate", "--n-g0", "3000000000"], "sample"),
    (["madd", "{input}", "--m", "3000000000"], "build_density_vector"),
])
@pytest.mark.parametrize("message", [
    "Unable to allocate 22.4 GiB for an array with shape (3000000000,) and data type float64",
    ""])
def test_out_of_memory_prints_one_line(tmp_path, capsys, monkeypatch, argv, callee, message):
    def no_memory(*_args, **_kwargs):  # in place of the allocation, which never happens
        raise MemoryError(message)

    monkeypatch.setattr(maddpp.cli, callee, no_memory)
    path = tmp_path / "input.csv"
    path.write_text(TestMalformedInput.RECORDS)
    assert run(tmp_path, *[arg.format(input=path) for arg in argv]) == 28
    assert capsys.readouterr().err == f"OutOfMemory: {message or 'out of memory'}\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--n-g0", "{n}"],
    ["simulate", "--n-g1", "{n}"],
    ["madd", "{records}", "--m", "{n}"],
    ["fip", "{records}", "--lambda", "0.5", "--m", "{n}"],
    ["sweep", "{records}", "--m", "{n}"],
    ["sweep", "{records}", "--grid", "{n}"],
    ["pipeline", "{course}", "--sensitive", "gender", "--m", "{n}"],
    ["pipeline", "{course}", "--sensitive", "gender", "--grid", "{n}"],
], ids=lambda argv: "-".join(a.strip("-{}") for a in argv if a not in ("{records}", "{course}")))
@pytest.mark.parametrize("n", [SIZE_LIMIT, 2**62, 10**20], ids=["2^48", "2^62", "10^20"])
def test_size_no_array_can_hold_prints_one_line(tmp_path, capsys, argv, n):
    # refused before numpy sees it, which for some of these sizes raises
    # OverflowError or ValueError; and none of them is allocated
    records = tmp_path / "records.csv"
    records.write_text(TestMalformedInput.RECORDS)
    course = tmp_path / "course.csv"
    course.write_text(TestMalformedInput.COURSE + "F,1.5,0\nM,2.5,1\n" * 10)
    out = tmp_path / "out"
    argv = [arg.format(n=n, records=records, course=course) for arg in argv]
    assert main(["--out-dir", str(out), *argv]) == 28
    err = capsys.readouterr().err
    assert err.startswith(f"OutOfMemory: cannot allocate {n} ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["madd"], ["fip", "--lambda", "0.5"], ["sweep"]])
def test_one_group_records_exit_16(tmp_path, capsys, argv):
    path = tmp_path / "r.csv"
    path.write_text(TestMalformedInput.LABELLED + "0.2,1,1\n0.7,1,0\n")
    assert run(tmp_path, argv[0], str(path), *argv[1:]) == 16
    assert capsys.readouterr().err == "EmptyGroup: both groups must be non-empty\n"


def test_header_only_records_print_one_line(tmp_path):
    # a file with no rows prints one line, and no warning, on stderr
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


# codes of error classes that are gone, not to be reused
RETIRED_EXIT_CODES = {13, 14, 15, 20, 23}
# raised by the library alone: the CLI's readers build equal-length columns
LIBRARY_ONLY = {"LengthMismatch"}


def test_every_error_class_has_its_own_exit_code():
    codes = [cls.exit_code for cls in MaddError.__subclasses__()]
    assert len(set(codes)) == len(codes)
    assert min(codes) >= 10
    assert not RETIRED_EXIT_CODES & set(codes)


def test_readme_names_every_exit_code():
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    for cls in MaddError.__subclasses__():
        if cls.__name__ not in LIBRARY_ONLY:
            assert f"`{cls.__name__}` (code {cls.exit_code})" in readme, cls.__name__
    for code in RETIRED_EXIT_CODES:
        assert f"Code {code} is retired and not reused" in readme, code


# span targets of perfbench/run.py that name functions the package no
# longer has; its tracer skips them and lists them as absent
STALE_SPAN_TARGETS = {"maddpp.objective.generalized_inverse", "maddpp.model.loss_and_gradient",
                      "maddpp.cli.pool_density_vectors", "maddpp.transport.pool_density_vectors"}


def import_perfbench(monkeypatch, name):
    """A module of perfbench/, imported from its directory as it is."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module(name)


@pytest.fixture
def perfbench_run(monkeypatch):
    return import_perfbench(monkeypatch, "run")


def test_perfbench_span_targets_resolve(perfbench_run):
    # the tracer skips a target whose name no longer resolves, which would
    # leave its per-layer metric silently empty
    with perfbench_run.Tracer(perfbench_run.TARGETS) as tracer:
        pass
    assert set(tracer.absent) == STALE_SPAN_TARGETS, tracer.absent


def test_one_histogram_per_batch(tmp_path, perfbench_run):
    # seen through perfbench's tracer: each command histograms its batch
    # once, and madd and sweep take their losses from `densities.madd`
    assert run(tmp_path, "simulate", "--n-g0", "60", "--n-g1", "40", "--seed", "3") == 0
    records = str(tmp_path / "records.csv")
    for argv, madd_calls in ((["madd", records], 1),
                             (["fip", records, "--lambda", "0.5"], 0),
                             (["sweep", records, "--grid", "50"], 1)):
        with perfbench_run.Tracer(perfbench_run.TARGETS) as tracer:
            assert run(tmp_path, *argv) == 0
        calls = Counter(span[0] for span in tracer.spans)
        assert calls["densities.build_density_vector"] == 1, (argv[0], calls)
        assert calls["densities.madd"] >= madd_calls, (argv[0], calls)


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # every `maddpp` line of the README's CLI block, in order, in one
    # working directory; pipeline's course.csv is a small generated one
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("maddpp ")]
    assert [argv[3] for argv in lines] == ["simulate", "madd", "fip", "sweep", "pipeline"]
    monkeypatch.chdir(tmp_path)
    import_perfbench(monkeypatch, "coursegen").generate(tmp_path / "course.csv", seed=0,
                                                        rows=2000)
    for argv in lines:
        assert main(argv[1:]) == 0, argv
