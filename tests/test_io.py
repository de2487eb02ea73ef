import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maddpp.densities import Scores
from maddpp.errors import MissingLabels
from maddpp.cli import main
from maddpp.io import read_records, write_records
from maddpp.objective import ObjectiveConfig, default_lambda_grid, sweep
from maddpp.transport import fip

EXTREMES = [0.0, 1.0, 5e-324, float(np.nextafter(1.0, 0.0))]


@st.composite
def scores(draw):
    n = draw(st.integers(1, 30))
    size = {"min_size": n, "max_size": n}
    proba = draw(st.lists(st.one_of(st.sampled_from(EXTREMES), st.floats(0.0, 1.0)), **size))
    group = draw(st.lists(st.integers(0, 1), **size))
    label = draw(st.one_of(st.none(), st.lists(st.integers(0, 1), **size)))
    return Scores(proba, group, label)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scores())
@example(Scores(EXTREMES, [0, 1, 0, 1], [1, 0, 0, 1]))
@example(Scores(EXTREMES, [1, 0, 1, 0]))
def test_records_csv_round_trip(tmp_path_factory, s):
    path = tmp_path_factory.mktemp("records") / "r.csv"
    write_records(s, path)
    back = read_records(path)
    assert np.array_equal(back.proba, s.proba)
    assert np.array_equal(back.group, s.group)
    assert (back.label is None) == (s.label is None)
    assert s.label is None or np.array_equal(back.label, s.label)


def test_any_empty_label_reads_as_unlabelled(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("proba,group,label\n0.2,0,1\n0.7,1,\n")
    assert read_records(path).label is None
    with pytest.raises(MissingLabels):
        read_records(path, require_labels=True)


def test_two_column_header_and_blank_lines(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("proba,group\n0.2,0\n\n0.7,1\n")
    s = read_records(path)
    assert s.proba.tolist() == [0.2, 0.7] and s.group.tolist() == [0, 1] and s.label is None


def csv_writer_bytes(path, header, rows):
    """What `csv.writer` writes for these rows, floats as format(p, ".17g")."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([format(c, ".17g") if isinstance(c, float) else c for c in row]
                    for row in rows)
    return path.read_bytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scores())
@example(Scores(EXTREMES, [0, 1, 0, 1], [1, 0, 0, 1]))
@example(Scores(EXTREMES, [1, 0, 1, 0]))
def test_writers_match_csv_writer(tmp_path_factory, s):
    d = tmp_path_factory.mktemp("writers")
    proba, group = s.proba.tolist(), s.group.tolist()
    labels = [""] * len(s) if s.label is None else s.label.tolist()
    write_records(s, d / "records.csv")
    assert (d / "records.csv").read_bytes() == csv_writer_bytes(
        d / "expected.csv", ["proba", "group", "label"], zip(proba, group, labels))
    if 0 < sum(group) < len(s):  # fip needs both groups
        assert main(["--out-dir", str(d), "fip", str(d / "records.csv"), "--lambda", "0.5",
                     "--m", "10"]) == 0
        remapped = fip(s, 0.5, 10).tolist()
        assert (d / "fip.csv").read_bytes() == csv_writer_bytes(
            d / "expected.csv", ["proba", "new_proba", "group"], zip(proba, remapped, group))
    if 0 < sum(group) < len(s) and s.label is not None:
        assert main(["--out-dir", str(d), "sweep", str(d / "records.csv"), "--m", "10",
                     "--grid", "7"]) == 0
        result = sweep(s, ObjectiveConfig(m=10, lambda_grid=default_lambda_grid(7)))
        assert (d / "sweep.csv").read_bytes() == csv_writer_bytes(
            d / "expected.csv", ["lambda", "accuracy_loss", "fairness_loss", "total_loss"],
            result.rows())
