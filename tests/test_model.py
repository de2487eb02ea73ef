import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maddpp import model
from maddpp.errors import EmptyPopulation, EncodingError, InvalidRatios, NotTrained
from maddpp.model import (
    LogisticModel,
    Standardizer,
    encode,
    gradient,
    hessian,
    load_dataset,
    split,
    train,
)
from train_oracle import loss


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


class TestLoadAndEncode:
    def test_binary_lexicographic(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["gender", "score", "label"],
                  [["M", "1.0", "1"], ["F", "2.0", "0"]])
        ds = load_dataset(path, sensitive="gender")
        X, y, rules = encode(ds)
        assert rules["gender"].startswith("categorical")
        assert X[0, 0] == 1.0 and X[1, 0] == 0.0  # F < M lexicographically
        np.testing.assert_array_equal(y, [1, 0])

    def test_known_ordinal_levels(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["age", "label"],
                  [["35-55", "1"], ["0-35", "0"], ["55<=", "1"]])
        ds = load_dataset(path, sensitive="age")
        X, _, rules = encode(ds)
        assert rules["age"] == "ordinal"
        np.testing.assert_array_equal(X[:, 0], [1, 0, 2])

    def test_unknown_category_raises(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["age", "label"], [["banana", "1"], ["0-35", "0"]])
        ds = load_dataset(path, sensitive="age")
        with pytest.raises(EncodingError):
            encode(ds)

    def test_missing_rows_dropped_and_counted(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["gender", "score", "label"],
                  [["M", "1.0", "1"], ["F", "", "0"], ["F", "3.0", "1"]])
        ds = load_dataset(path, sensitive="gender")
        assert ds.dropped_rows == 1
        assert len(ds.labels) == 2

    def test_label_error_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["gender", "label"], [["M", "1"], ["F", ""], ["F", "2"]])
        with pytest.raises(EncodingError, match=r"row 3: label must be 0 or 1, got '2'"):
            load_dataset(path, sensitive="gender")

    def test_repeated_column_name_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["gender", "score", "score", "label"], [["M", "1", "2", "1"]])
        with pytest.raises(EncodingError, match="repeated column name"):
            load_dataset(path, sensitive="gender")

    def test_non_finite_numeric_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["gender", "score", "label"],
                  [["M", "1.0", "1"], ["F", "", "0"], ["F", "-inf", "1"]])
        with pytest.raises(EncodingError, match=r"column 'score', row 3: '-inf'"):
            encode(load_dataset(path, sensitive="gender"))

    def test_non_binary_sensitive(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["region", "label"],
                  [["a", "1"], ["b", "0"], ["c", "1"]])
        ds = load_dataset(path, sensitive="region")
        with pytest.raises(EncodingError):
            ds.sensitive_groups()


def dictreader_load(path):
    """The row handling of csv.DictReader: (feature columns, labels, dropped)."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        features = [c for c in reader.fieldnames if c != "label"]
        rows, dropped = [], 0
        for raw in reader:
            if any(raw[c] is None or raw[c] == "" for c in reader.fieldnames):
                dropped += 1
            else:
                rows.append(raw)
    return ({c: [r[c] for r in rows] for c in features},
            [int(r["label"]) for r in rows], dropped)


CELLS = st.sampled_from(["", "a", "b", "1.5", "-2", " "])


@st.composite
def course_rows(draw):
    """Rows of 0 to 5 cells under a 3-column header, the label third."""
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = draw(st.lists(CELLS, max_size=5))
        if len(row) > 2:
            row[2] = draw(st.sampled_from(["0", "1", ""]))
        rows.append(row)
    return rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(course_rows())
def test_load_matches_dictreader(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("course") / "d.csv"
    write_csv(path, ["g", "x", "label"], rows)
    columns, labels, dropped = dictreader_load(path)
    if not labels:
        with pytest.raises(EmptyPopulation):
            load_dataset(path, sensitive="g")
        return
    with mock.patch.object(model, "CHUNK_ROWS", 3):  # rows cross chunk boundaries
        ds = load_dataset(path, sensitive="g")
    assert ds.feature_names == ["g", "x"]
    assert ds.columns == columns
    assert ds.labels.tolist() == labels
    assert ds.dropped_rows == dropped


class TestStandardizer:
    def test_constant_column_maps_to_zeros(self):
        X = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        s = Standardizer.fit(X)
        out = s.transform(X)
        np.testing.assert_allclose(out[:, 0], 0.0)
        assert abs(out[:, 1].mean()) < 1e-12

    def test_mask_leaves_columns_untouched(self):
        X = np.column_stack([np.arange(10.0), np.arange(10.0)])
        s = Standardizer.fit(X, columns=np.array([True, False]))
        out = s.transform(X)
        np.testing.assert_allclose(out[:, 1], X[:, 1])


class TestSplit:
    def test_exact_division(self):
        tr, va, te = split(100, seed=0)
        assert (len(tr), len(va), len(te)) == (70, 15, 15)

    def test_remainder_to_train(self):
        tr, va, te = split(101, seed=0)
        assert (len(tr), len(va), len(te)) == (71, 15, 15)

    def test_deterministic(self):
        a = split(57, seed=3)
        b = split(57, seed=3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_partition_is_disjoint_and_complete(self):
        tr, va, te = split(83, seed=1)
        union = np.sort(np.concatenate([tr, va, te]))
        np.testing.assert_array_equal(union, np.arange(83))

    def test_bad_ratios(self):
        with pytest.raises(InvalidRatios):
            split(10, ratios=(0.5, 0.4, 0.2))


class TestTrain:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            X = rng.normal(size=(20, 5))
            y = rng.integers(0, 2, 20).astype(float)
            w = rng.normal(size=5)
            b = float(rng.normal())
            l2 = 1e-4
            gw, gb = gradient(w, b, X, y, l2)
            step = 1e-5
            for j in range(5):
                wp, wm = w.copy(), w.copy()
                wp[j] += step
                wm[j] -= step
                fd = (loss(wp, b, X, y, l2) - loss(wm, b, X, y, l2)) / (2 * step)
                assert abs(gw[j] - fd) / max(abs(fd), 1e-8) <= 1e-5
            fd = (loss(w, b + step, X, y, l2) - loss(w, b - step, X, y, l2)) / (2 * step)
            assert abs(gb - fd) / max(abs(fd), 1e-8) <= 1e-5

    def test_hessian_matches_finite_differences_of_gradient(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            X = rng.normal(size=(20, 4))
            y = rng.integers(0, 2, 20).astype(float)
            w = rng.normal(size=4)
            b = float(rng.normal())
            h = hessian(w, b, X, 1e-4)
            step = 1e-6
            for j in range(5):
                e = np.zeros(5)
                e[j] = step
                gp = np.append(*gradient(w + e[:4], b + e[4], X, y, 1e-4))
                gm = np.append(*gradient(w - e[:4], b - e[4], X, y, 1e-4))
                np.testing.assert_allclose(h[:, j], (gp - gm) / (2 * step),
                                           rtol=1e-6, atol=1e-9)

    def test_separable_toy_set(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        model = train(X, y, standardize=False)
        assert loss(model.weights, model.bias, X, y, 1e-4) < 0.1

    def test_constant_labels(self):
        X = np.array([[0.5], [0.1], [0.9]])
        y = np.array([1, 1, 1])
        model = train(X, y, standardize=False)
        assert model.bias > 0
        assert np.all(model.predict_proba(X) > 0.9)

    def test_loss_non_increasing(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 3))
        y = (X[:, 0] + rng.normal(size=200) > 0).astype(float)
        w = np.zeros(3)
        b = 0.0
        prev = np.inf
        for _ in range(200):
            value = loss(w, b, X, y, 1e-4)
            assert value <= prev + 1e-12
            prev = value
            gw, gb = gradient(w, b, X, y, 1e-4)
            w -= 0.1 * gw
            b -= 0.1 * gb


class TestPredict:
    def test_zero_model_gives_half(self):
        model = LogisticModel(weights=np.zeros(3), bias=0.0, trained=True)
        np.testing.assert_allclose(model.predict_proba(np.ones((4, 3))), 0.5)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=4)
        model = LogisticModel(weights=w, bias=0.0, trained=True)
        x = rng.normal(size=(1, 4))
        p_plus = model.predict_proba(x)[0]
        p_minus = model.predict_proba(-x)[0]
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_positive_weight_feature(self):
        model = LogisticModel(weights=np.array([2.0]), bias=0.0, trained=True)
        p = model.predict_proba(np.array([[0.1], [0.5], [0.9]]))
        assert np.all(np.diff(p) > 0)

    def test_untrained_raises(self):
        with pytest.raises(NotTrained):
            LogisticModel().predict_proba(np.ones((1, 2)))

    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 3))
        y = (X[:, 0] > 0).astype(float)
        model = train(X, y, feature_names=["a", "b", "c"])
        path = tmp_path / "model.json"
        model.save(path)
        loaded = LogisticModel.load(path)
        np.testing.assert_allclose(loaded.predict_proba(X), model.predict_proba(X))
        assert loaded.feature_names == ["a", "b", "c"]
