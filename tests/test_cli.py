import argparse
import contextlib
import csv
import functools
import importlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maddpp
from maddpp.cli import build_parser, main
from maddpp.errors import MaddError
from maddpp.io import read_records, write_records
from maddpp.densities import SIZE_LIMIT, Scores
from train_oracle import load_model


def run(tmp_path, *argv):
    return main(["--out-dir", str(tmp_path), *argv])


# the environment of a subprocess under a UTF-8 locale and under an ASCII one
LOCALES = (("utf8", {"LC_ALL": "C.UTF-8"}),
           ("ascii", {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}))


class TestSimulateCommand:
    def test_writes_records_and_manifest(self, tmp_path):
        assert run(tmp_path, "simulate", "--n-g0", "50", "--n-g1", "40",
                   "--seed", "1") == 0
        records = read_records(tmp_path / "records.csv")
        assert len(records) == 90
        assert (records.group == 0).sum() == 50
        manifest = json.loads((tmp_path / "simulate.manifest.json").read_text())
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
        # model.json is the weights and bias on the encoded features alone:
        # the training outcome is not saved with it
        model_json = json.loads((tmp_path / "model.json").read_text())
        assert sorted(model_json) == ["bias", "feature_names", "weights"]
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
                "test_metrics.json")], manifest["encodings"],
                manifest["dropped_rows"])
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

    @staticmethod
    def pipeline_under_each_locale(tmp_path, *argv):
        """The manifest less its timestamp, and the bytes of every other output,
        of `pipeline *argv` in a subprocess under a UTF-8 and an ASCII locale."""
        src = str(Path(maddpp.__file__).resolve().parents[1])
        outputs = []
        for name, locale in LOCALES:
            out = tmp_path / name
            out.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "maddpp.cli", "pipeline", *argv], cwd=out,
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": src, **locale})
            assert proc.returncode == 0, (name, proc.stderr)
            manifest = json.loads((out / "pipeline.manifest.json").read_text())
            del manifest["timestamp"]
            outputs.append((manifest, {p.name: p.read_bytes() for p in out.iterdir()
                                       if p.name != "pipeline.manifest.json"}))
        assert set(outputs[0][1]) == set(OUTPUTS["pipeline"])
        return outputs

    def test_inputs_are_utf8_whatever_the_locale(self, tmp_path, monkeypatch):
        # the same course CSV, with one cell that is not ASCII, gives the same
        # outputs under an ASCII locale as under a UTF-8 one
        data = tmp_path / "course.csv"
        import_perfbench(monkeypatch, "coursegen").generate(data, seed=7, rows=2000)
        data.write_bytes(data.read_bytes().replace(b"region_03", "région_03".encode(), 1))
        outputs = self.pipeline_under_each_locale(tmp_path, str(data), "--sensitive", "gender")
        assert outputs[0] == outputs[1]

    def test_option_values_are_utf8_whatever_the_locale(self, tmp_path, monkeypatch):
        # a --sensitive and a --label-column that are not ASCII name their UTF-8
        # headers under an ASCII locale too, where argv is not decoded as UTF-8
        data = tmp_path / "course.csv"
        import_perfbench(monkeypatch, "coursegen").generate(data, seed=7, rows=2000)
        header, rest = data.read_bytes().split(b"\n", 1)
        header = header.replace(b"gender", "région".encode())
        header = header.replace(b"label", "réussi".encode())
        data.write_bytes(header + b"\n" + rest)
        # as bytes, which the test's own locale need not be able to encode
        outputs = self.pipeline_under_each_locale(
            tmp_path, str(data), "--sensitive", "région".encode(),
            "--label-column", "réussi".encode())
        assert outputs[0] == outputs[1]
        config = outputs[0][0]["config"]
        assert (config["sensitive"], config["label_column"]) == ("région", "réussi")

    def test_manifest_paths_are_utf8_whatever_the_locale(self, tmp_path):
        # a non-ASCII input and --out-dir are recorded as the same UTF-8 text
        # under an ASCII locale too, where argv is not decoded as UTF-8
        src = str(Path(maddpp.__file__).resolve().parents[1])
        manifests = []
        for name, locale in LOCALES:
            cwd = tmp_path / name
            cwd.mkdir()
            # as bytes, which the test's own locale need not be able to encode
            write_records(Scores([0.2, 0.7], [0, 1]), os.fsencode(cwd) + "/rec_é.csv".encode())
            proc = subprocess.run(
                [sys.executable, "-m", "maddpp.cli", "--out-dir", "oé".encode(), "madd",
                 "rec_é.csv".encode()], cwd=cwd, capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": src, **locale})
            assert proc.returncode == 0, (name, proc.stderr)
            with open(os.fsencode(cwd) + "/oé/madd.manifest.json".encode(), "rb") as fh:
                manifest = json.loads(fh.read().decode("utf-8"))
            del manifest["timestamp"]
            manifests.append(manifest)
        assert manifests[0] == manifests[1]
        assert (manifests[0]["inputs"], manifests[0]["outputs"]) == (["rec_é.csv"],
                                                                     ["oé/madd.json"])

    def test_manifest_path_not_utf8_is_replaced(self, tmp_path):
        # a path whose bytes are not UTF-8 is still recorded as valid JSON text
        path = os.fsencode(tmp_path) + b"/rec_\xff.csv"
        write_records(Scores([0.2, 0.7], [0, 1]), path)
        assert run(tmp_path, "madd", os.fsdecode(path)) == 0
        text = (tmp_path / "madd.manifest.json").read_bytes().decode("utf-8")
        assert "\\ud" not in text
        assert json.loads(text)["inputs"] == [os.fsdecode(tmp_path) + "/rec_\ufffd.csv"]

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


# the outputs of each command, in the order its manifest lists them
OUTPUTS = {
    "simulate": ["records.csv"],
    "madd": ["madd.json"],
    "fip": ["fip.csv"],
    "sweep": ["sweep.csv", "sweep.json"],
    "pipeline": ["model.json", "validation_sweep.csv", "validation_sweep.json",
                 "test_metrics.json"],
}


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
    # exactly these files, and the manifest names the others
    manifest = f"{argv[0]}.manifest.json"
    assert set(runs[0]) == {*OUTPUTS[argv[0]], manifest}, runs[0]
    assert json.loads(runs[0][manifest])["outputs"] == OUTPUTS[argv[0]]


def option_dests(command: str) -> set:
    """The dests of `command`'s options, read from the CLI's own parser."""
    [sub] = [action for action in build_parser()._actions
             if isinstance(action, argparse._SubParsersAction)]
    return {action.dest for action in sub.choices[command]._actions
            if action.option_strings and action.dest != "help"}


@pytest.mark.parametrize("argv", [
    ["simulate", "--n-g0", "5", "--n-g1", "7", "--seed", "2"],
    ["madd", "{records}", "--m", "10"],
    ["fip", "{records}", "--lambda", "0.5"],
    ["sweep", "{records}", "--theta", "0.25", "--m", "10", "--grid", "11"],
    ["pipeline", "{course}", "--sensitive", "gender", "--label-column", "final_result",
     "--m", "20", "--grid", "11"],
], ids=lambda argv: argv[0])
def test_manifest_config_is_the_parsed_options(tmp_path, argv):
    # every option of the command, defaults included, with its value as
    # parsed, and nothing else; pipeline's label column is not `label`
    assert run(tmp_path, "simulate", "--n-g0", "60", "--n-g1", "40", "--seed", "3") == 0
    course = tmp_path / "course.csv"
    write_flat_dataset(course, n=400)
    course.write_text(course.read_text().replace("label", "final_result", 1))
    argv = [arg.format(records=tmp_path / "records.csv", course=course) for arg in argv]
    out = tmp_path / "out"
    assert run(out, *argv) == 0
    manifest = json.loads((out / f"{argv[0]}.manifest.json").read_text())
    parsed = vars(build_parser().parse_args(argv))
    assert manifest["config"] == {dest: parsed[dest] for dest in option_dests(argv[0])}
    assert manifest["inputs"] == ([] if argv[0] == "simulate" else [argv[1]])


def test_out_dir_is_created_only_when_used(tmp_path, monkeypatch, capsys):
    records = tmp_path / "r.csv"
    records.write_text(TestMalformedInput.RECORDS)
    # a run stopped by a bad option creates no --out-dir
    assert main(["--out-dir", str(tmp_path / "new" / "deep"), "fip", str(records),
                 "--lambda", "2"]) == 17
    assert not (tmp_path / "new").exists()
    capsys.readouterr()
    # there is no per-command --out: it is refused before anything is written
    assert main(["--out-dir", str(tmp_path / "new"), "madd", str(records),
                 "--out", str(tmp_path / "x.json")]) == 29
    err = capsys.readouterr().err
    assert err.startswith("InvalidOption: ") and err.count("\n") == 1, err
    assert sorted(tmp_path.iterdir()) == [records]
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
        # a second --out-dir overrides the one every row gets
        (["--out-dir", "{input}/out", "fip", "{input}", "--lambda", "0.5"], RECORDS, 26,
         "UnwritableOutput", "cannot write {input}/out: Not a directory"),
        (["--out-dir", "{input}/out", "sweep", "{input}"], RECORDS, 26,
         "UnwritableOutput", "cannot write {input}/out: Not a directory"),
        (["--out-dir", "{input}", "simulate"], RECORDS, 26,
         "UnwritableOutput", "cannot write {input}: File exists"),
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
        # a header without a label column: sweep needs labels
        (["sweep", "{input}"], "proba,group\n0.2,0\n0.7,1\n", 19, "MissingLabels",
         "{input}: label required on every row"),
        # a row number counts blank lines, for a value out of range as for a bad cell
        (["madd", "{input}"], LABELLED + "\n0.2,0,1\n1.5,1,0\n", 11, "InvalidProbability",
         "row 3 has 1.5"),
        # numpy's generators take no negative seed; checked before any input is read
        (["simulate", "--seed", "-1"], None, 27, "InvalidSeed",
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
        # what argparse refuses is a typed error too, before any input is read
        (["madd", "{input}", "--m", "abc"], None, 29, "InvalidOption",
         "maddpp madd: argument --m: invalid int value: 'abc'"),
        (["madd", "{input}", "--nosuch"], None, 29, "InvalidOption",
         "maddpp: unrecognized arguments: --nosuch"),
        ([], None, 29, "InvalidOption", "maddpp: the following arguments are required: command"),
        # an option value whose bytes are not UTF-8 names no column
        (["pipeline", "{input}", "--sensitive", "r\udcffgion"], None, 29, "InvalidOption",
         "maddpp pipeline: argument --sensitive: invalid _utf8 value: 'r\\udcffgion'"),
        (["pipeline", "{input}", "--sensitive", "gender", "--label-column", "\udce9"], None,
         29, "InvalidOption", "argument --label-column: invalid _utf8 value: '\\udce9'"),
        # the course checks run in order: a bad label before a bad feature cell
        # above it, and that before a sensitive column that is not binary
        (["pipeline", "{input}", "--sensitive", "g"], "g,x,label\na,inf,1\nb,1,2\nc,2,0\n", 21,
         "EncodingError", "{input}: row 2: label must be 0 or 1, got '2'"),
        (["pipeline", "{input}", "--sensitive", "g"], "g,x,label\na,inf,1\nb,1,0\nc,2,0\n", 21,
         "EncodingError", "column 'x', row 1: 'inf' is not a finite number"),
        (["pipeline", "{input}", "--sensitive", "g"], "g,x,label\na,0.5,1\nb,1,0\nc,2,0\n", 21,
         "EncodingError", "sensitive column 'g' must be binary, found 3 distinct values"),
        # a bad label is refused even where another row's label is empty
        (["madd", "{input}"], LABELLED + "0.2,0,7\n0.7,1,\n0.4,0,0\n0.9,1,1\n", 11,
         "InvalidProbability", "{input}: label must be 0 or 1; row 1 has 7"),
        # under a label column an empty label is a bad cell like any other
        (["madd", "{input}"], LABELLED + "0.2,0,1\n0.7,1,\n", 11, "InvalidProbability",
         "{input}: row 2: label '' is not an integer"),
    ])
    def test_typed_error(self, tmp_path, capsys, argv, content, code, error, detail):
        path = tmp_path / "input.csv"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content, encoding="utf-8")
        argv = [arg.format(tmp=tmp_path, input=path) for arg in argv]
        assert run(tmp_path, *argv) == code
        err = capsys.readouterr().err
        assert err.startswith(f"{error}: ") and err.count("\n") == 1, err
        assert detail.format(tmp=tmp_path, input=path) in err
        # an encoding error names the column and row instead, an output error its
        # output, an option error the option's value
        if code not in (12, 17, 21, 26, 27, 29):
            assert str(path) in err, err
        # and a failed run writes no output and no manifest
        assert not (tmp_path / "model.json").exists()
        assert not (tmp_path / "records.csv").exists()
        assert not list(tmp_path.glob("*.manifest.json"))


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


@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_closed_stdout_pipe_prints_one_line(tmp_path, unbuffered):
    # the reader of stdout has gone before the summary line is written: buffered
    # or not, one typed error, and no report of the interpreter's final flush
    path = tmp_path / "r.csv"
    path.write_text("proba,group,label\n0.2,0,1\n0.7,1,0\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(maddpp.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from maddpp.cli import main; sys.exit(main())",
             "--out-dir", str(tmp_path), "madd", str(path)],
            stdout=w, stderr=subprocess.PIPE, text=True, timeout=120, env=env)
    finally:
        os.close(w)
    assert proc.returncode == 26, proc.stderr
    assert proc.stderr == "UnwritableOutput: cannot write standard output: Broken pipe\n"
    assert (tmp_path / "madd.json").is_file()
    assert (tmp_path / "madd.manifest.json").is_file()


ENTRY = "import sys; from maddpp.cli import main; sys.exit(main())"


def spawn(*args, code=ENTRY):
    """`python -c code *args` with the package on its path."""
    env = {**os.environ, "PYTHONPATH": str(Path(maddpp.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, timeout=120, env=env)


def test_spawned_runs_write_what_main_writes(tmp_path):
    # a CLI process skips the final collection at exit (`gc.freeze` at exit):
    # its outputs are the bytes an in-process `main` writes, its manifest the
    # same less the timestamp and the output directory
    assert run(tmp_path, "simulate", "--n-g0", "12000", "--n-g1", "8000", "--seed", "5") == 0
    records = tmp_path / "records.csv"
    for argv in (["madd", records], ["fip", records, "--lambda", "0.97"],
                 ["sweep", records, "--grid", "101"]):
        here, there = tmp_path / "main" / argv[0], tmp_path / "spawned" / argv[0]
        assert main(["--out-dir", str(here), *map(str, argv)]) == 0
        proc = spawn("--out-dir", there, *argv)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert sorted(p.name for p in here.iterdir()) == sorted(p.name for p in there.iterdir())
        for name in OUTPUTS[argv[0]]:
            assert (here / name).read_bytes() == (there / name).read_bytes(), name
        manifests = [json.loads((d / f"{argv[0]}.manifest.json").read_text()) for d in (here, there)]
        for manifest in manifests:
            del manifest["timestamp"]
            manifest["outputs"] = [Path(p).name for p in manifest["outputs"]]
        assert manifests[0] == manifests[1]
    # a refused input exits with its own code and one line
    path = tmp_path / "one_group.csv"
    path.write_text("proba,group,label\n0.2,1,1\n0.7,1,0\n")
    for argv in (["madd"], ["fip", "--lambda", "0.5"], ["sweep"]):
        proc = spawn("--out-dir", tmp_path / "bad", argv[0], path, *argv[1:])
        assert proc.returncode == 16
        assert proc.stderr == "EmptyGroup: both groups must be non-empty\n"


def test_main_registers_the_exit_hook_once(tmp_path):
    # however often `main` runs in a process, `gc.freeze` is one exit
    # callback, and it runs at exit before those registered before `main`
    path = tmp_path / "r.csv"
    path.write_text("proba,group,label\n0.2,0,1\n0.7,1,0\n")
    code = (
        "import atexit, gc, sys\n"
        "registered, register = [], atexit.register\n"
        "atexit.register = lambda f, *a: register(registered.append(f) or f, *a)\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "from maddpp.cli import main\n"
        "codes = [main(['--out-dir', sys.argv[1], 'madd', sys.argv[2]]) for _ in range(3)]\n"
        "print(codes, registered.count(gc.freeze))\n")
    proc = spawn(tmp_path, path, code=code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[0, 0, 0] 1", "frozen True"]


@pytest.mark.skipif(shutil.which("bash") is None, reason="the smoke script needs bash")
def test_smoke_script(tmp_path):
    # the command-line checks that CI runs on the installed `maddpp` script,
    # here through `python -m maddpp.cli`
    env = {**os.environ, "MADDPP": f"{sys.executable} -m maddpp.cli", "PYTHON": sys.executable,
           "PYTHONPATH": str(Path(maddpp.__file__).resolve().parents[1])}
    proc = subprocess.run(["bash", str(Path(__file__).with_name("smoke.sh"))], cwd=tmp_path,
                          capture_output=True, text=True, timeout=600, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_empty_label_cell_is_refused(tmp_path, capsys):
    # the header alone says whether records are labelled: madd and fip refuse
    # an empty label cell under a label column, and read the same rows under
    # `proba,group`; sweep exits 19 on the latter (TestMalformedInput)
    path = tmp_path / "r.csv"
    path.write_text("proba,group,label\n0.2,0,1\n0.7,1,\n0.4,1,0\n")
    for argv in (["madd"], ["fip", "--lambda", "0.5"]):
        assert run(tmp_path, argv[0], str(path), "--m", "10", *argv[1:]) == 11
        assert capsys.readouterr().err == (
            f"InvalidProbability: {path}: row 2: label '' is not an integer\n")
    assert sorted(tmp_path.iterdir()) == [path]
    path.write_text("proba,group\n0.2,0\n0.7,1\n0.4,1\n")
    assert run(tmp_path, "madd", str(path), "--m", "10") == 0
    manifest = json.loads((tmp_path / "madd.manifest.json").read_text())
    assert manifest["group_counts"] == {"g0": 1, "g1": 2}
    assert run(tmp_path, "fip", str(path), "--lambda", "0.5", "--m", "10") == 0


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("name", ["madd.json", "madd.manifest.json"])
def test_failed_write_names_its_output(tmp_path, capsys, name):
    # an output opened fine, whose write fails later, is named all the same:
    # the last one placed, which is the manifest once madd.json is written
    path = tmp_path / "r.csv"
    path.write_text("proba,group,label\n0.2,0,1\n0.7,1,0\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / name).symlink_to("/dev/full")
    assert run(out, "madd", str(path)) == 26
    assert capsys.readouterr().err == (
        f"UnwritableOutput: cannot write {out / name}: No space left on device\n")
    assert (out / "madd.json").is_file() == (name != "madd.json")


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
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    readme = " ".join(readme.split())
    for cls in MaddError.__subclasses__():
        if cls.__name__ not in LIBRARY_ONLY:
            assert f"`{cls.__name__}` (code {cls.exit_code})" in readme, cls.__name__
    for code in RETIRED_EXIT_CODES:
        assert f"Code {code} is retired and not reused" in readme, code


# span targets of perfbench/run.py that name functions the package no
# longer has; its tracer skips them and lists them as absent
STALE_SPAN_TARGETS = {"maddpp.objective.generalized_inverse", "maddpp.model.loss_and_gradient",
                      "maddpp.cli.pool_density_vectors", "maddpp.transport.pool_density_vectors",
                      "maddpp.cli.accuracy_loss", "maddpp.cli.fairness_loss",
                      "maddpp.cli.encode"}


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
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("maddpp ")]
    assert [argv[3] for argv in lines] == ["simulate", "madd", "fip", "sweep", "pipeline"]
    monkeypatch.chdir(tmp_path)
    import_perfbench(monkeypatch, "coursegen").generate(tmp_path / "course.csv", seed=0,
                                                        rows=2000)
    for argv in lines:
        assert main(argv[1:]) == 0, argv


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # the README's python block, as written, in an empty working directory
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    monkeypatch.chdir(tmp_path)
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})


# what `main` may return: success, or the exit code of a documented error class
DOCUMENTED_EXITS = {0} | {cls.exit_code for cls in MaddError.__subclasses__()
                          if cls.__name__ not in LIBRARY_ONLY}
ERROR_NAMES = {cls.exit_code: cls.__name__ for cls in MaddError.__subclasses__()}
# each command's options, mostly in range; sizes stay at most 1,000, or else
# reach SIZE_LIMIT, which is refused before anything is allocated
SIZE = st.one_of(st.integers(2, 1000), st.integers(2, 1000), st.integers(-3, 1),
                 st.integers(SIZE_LIMIT, 2**64)).map(str)
FRACTION = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-0.5, 1.5),
                     st.sampled_from(["nan", "inf", "-0"])).map(str)
# seeds near 0 as often as large ones, so a negative seed is drawn too
SEED = st.one_of(st.integers(0, 2**40), st.integers(-3, 3)).map(str)
COLUMN = st.sampled_from(["gender", "score", "sum_click", "label", "proba", "nosuch"])
OPTIONS = {
    "simulate": {"--n-g0": SIZE, "--n-g1": SIZE, "--seed": SEED},
    "madd": {"--m": SIZE},
    "fip": {"--lambda": FRACTION, "--m": SIZE},
    "sweep": {"--theta": FRACTION, "--t": FRACTION, "--m": SIZE, "--grid": SIZE},
    "pipeline": {"--sensitive": COLUMN, "--label-column": COLUMN, "--theta": FRACTION,
                 "--t": FRACTION, "--m": SIZE, "--grid": SIZE, "--seed": SEED},
}
JUNK = st.text("abc019.,-e ", max_size=4)
RARELY = st.sampled_from([False] * 4 + [True])
# the records files of `valid_inputs`
RECORDS = st.sampled_from(["records", "one_group", "unlabelled"])


@functools.cache
def valid_inputs() -> dict:
    """The bytes of a small labelled records CSV, of a small course CSV, and
    of two records CSVs that only some commands accept: one whose records
    are all of group 0, and one with no labels."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        rng = np.random.default_rng(0)
        proba = rng.random(100)
        label = (rng.random(100) < proba).astype(int)
        inputs = {}
        for name, scores in (("records", Scores(proba, np.arange(100) % 2, label)),
                             ("one_group", Scores(proba, np.zeros(100, dtype=int), label)),
                             ("unlabelled", Scores(proba, np.arange(100) % 2))):
            write_records(scores, path)
            inputs[name] = path.read_bytes()
        write_flat_dataset(path, n=300)
        return {**inputs, "course": path.read_bytes()}


@st.composite
def cli_runs(draw):
    """An input file's bytes (valid, truncated or corrupt) and an argv whose
    "{input}" and "{dir}" name that file and the directory it is in."""
    command = draw(st.sampled_from(list(OPTIONS))) if not draw(RARELY) else None
    data = valid_inputs()[("course" if command == "pipeline" else draw(RECORDS))
                          if not draw(RARELY) else draw(st.sampled_from(list(valid_inputs())))]
    at = draw(st.integers(0, len(data)))
    damage = draw(st.sampled_from(["valid", "valid", "truncated", "corrupt"]))
    if damage == "truncated":
        data = data[:at]
    elif damage == "corrupt":
        data = data[:at] + draw(st.binary(min_size=1, max_size=8)) + data[at + 8:]
    out = "{dir}/out" if not draw(RARELY) else draw(st.sampled_from(["{input}", "{input}/out"]))
    argv = ["--out-dir", out]
    if command is not None:
        argv.append(command)
        if command != "simulate" and not draw(RARELY):
            argv.append("{input}" if not draw(RARELY) else draw(st.sampled_from(["{dir}",
                                                                                 "{dir}/missing"])))
        options = [option for option in OPTIONS[command] if draw(st.booleans())
                   or option in ("--lambda", "--sensitive") and not draw(RARELY)]
        junk = draw(st.sampled_from(options)) if options and draw(RARELY) else None
        for option in options:
            argv += [option, draw(JUNK if option == junk else OPTIONS[command][option])]
    if draw(RARELY):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.one_of(JUNK, st.just("--nosuch"))))
    return data, argv


@settings(max_examples=600, deadline=None, derandomize=True)
@given(cli_runs())
def test_main_never_leaks_a_traceback(run_case):
    # any argv of the five commands on a valid, truncated or corrupt input
    # ends in success or a documented error, with at most one stderr line
    data, argv = run_case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(data)
        argv = [arg.format(input=path, dir=tmp) for arg in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert code in DOCUMENTED_EXITS, (code, err)
    assert "Traceback" not in err and err.count("\n") == (code != 0), err
    if code:
        assert err.startswith(f"{ERROR_NAMES[code]}: "), err
