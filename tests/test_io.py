import csv
import os
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import maddpp.io
from maddpp.densities import Scores
from maddpp.errors import InvalidProbability, MaddError, MissingLabels
from maddpp.cli import main
from maddpp.io import read_records, read_rows, write_records
from maddpp.objective import ObjectiveConfig, default_lambda_grid, sweep
from maddpp.simulate import SimulationSpec, sample
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
    write_records(s, d / "records.csv")
    if s.label is None:  # no label column
        expected = csv_writer_bytes(d / "expected.csv", ["proba", "group"], zip(proba, group))
    else:
        expected = csv_writer_bytes(d / "expected.csv", ["proba", "group", "label"],
                                    zip(proba, group, s.label.tolist()))
    assert (d / "records.csv").read_bytes() == expected
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


def outcome(read, path, require_labels):
    """What `read` makes of `path`: each column's dtype and bits, or the error."""
    try:
        s = read(path, require_labels)
    except MaddError as exc:
        return type(exc), str(exc)
    return [None if a is None else (a.dtype.str, a.view(np.int64).tolist())
            for a in (s.proba, s.group, s.label)]


def assert_agrees_with_row_parser(path):
    for require_labels in (False, True):
        assert (outcome(read_records, path, require_labels)
                == outcome(read_rows, path, require_labels))


LABELLED = b"proba,group,label\n"
# files the C reader takes, files it rejects, and files both parsers reject
ODD_FILES = {
    "plain": LABELLED + b"0.2,0,1\n0.7,1,0\n",
    "two_columns": b"proba,group\n0.2,0\n0.7,1\n",
    "crlf": b"proba,group,label\r\n0.2,0,1\r\n0.7,1,0\r\n",
    "lone_cr": b"proba,group,label\r0.2,0,1\r0.7,1,0\r",
    "blank_lines": LABELLED + b"\n0.2,0,1\n\r\n\n0.7,1,0\n\n",
    "no_final_newline": LABELLED + b"0.2,0,1\n0.7,1,0",
    "plus_signs": LABELLED + b"+0.2,+0,+1\n0.7,1,0\n",
    "padded": LABELLED + b" 0.2 , 0 , 1 \n\t0.7,1\t,0\n",
    "nbsp_padded": LABELLED + "\xa00.2,0,1\u2003\n0.7,1,0\n".encode(),
    "leading_zeros": LABELLED + b"00.2,00,01\n.7,1,0\n",
    "negative_zero": LABELLED + b"-0.0,-0,0\n0.7,1,0\n",
    "exponents": LABELLED + b"2E-1,0,1\n1e-400,1,0\n5e-324,0,0\n",
    "long_digits": LABELLED + b"0.1000000000000000055511151231257827021181583404541015625,0,1\n",
    "nan": LABELLED + b"0.2,0,1\nnan,1,0\n",
    "negative_nan": LABELLED + b"-nan,1,0\n",
    "inf": LABELLED + b"inf,1,0\n",
    "infinity": LABELLED + b"0.2,0,1\n-Infinity,1,0\n",
    "float_group": LABELLED + b"0.2,1.0,1\n",
    "float_group_two_columns": b"proba,group\n0.2,0\n0.7,1.0\n",
    "exponent_group": LABELLED + b"0.2,1e0,1\n",
    "float_label": LABELLED + b"0.2,1,1.0\n",
    "underscore_proba": LABELLED + b"1_0,0,1\n",
    "underscore_group": LABELLED + b"0.2,0_1,1\n",
    "hex_proba": LABELLED + b"0x1p-3,0,1\n",
    "arabic_digit": LABELLED + "\u0661,0,1\n".encode(),
    "group_two": LABELLED + b"0.2,0,1\n0.7,2,0\n",
    "label_minus_one": LABELLED + b"0.2,0,-1\n",
    "proba_above_one": LABELLED + b"0.2,0,1\n1.5,1,0\n",
    "not_a_number": LABELLED + b"0.2,0,1\nabc,1,0\n",
    "blank_line_then_proba_above_one": LABELLED + b"\n0.2,0,1\n\r\n1.5,1,0\n",
    "blank_lines_then_group_two": LABELLED + b"\n\n0.2,2,1\n",
    "quoted_cell": LABELLED + b'"0.2",0,1\n0.7,"1",0\n',
    "quoted_header": b'"proba",group,label\n0.2,0,1\n',
    "comment_line": LABELLED + b"0.2,0,1\n#x\n0.7,1,0\n",
    "hash_cell": LABELLED + b"0.2,0,1 # note\n",
    "trailing_comma": LABELLED + b"0.2,0,1,\n",
    "short_row": LABELLED + b"0.2,0,1\n0.7,1\n",
    "three_cells_under_two": b"proba,group\n0.2,0,1\n",
    "whitespace_line": LABELLED + b"0.2,0,1\n   \n0.7,1,0\n",
    "group_2_pow_63": LABELLED + b"0.2,9223372036854775808,1\n",
    "group_below_int64": LABELLED + b"0.2,-9223372036854775809,1\n",
    "group_2_pow_64": LABELLED + b"0.2,18446744073709551616,1\n",
    "empty_label": LABELLED + b"0.2,0,1\n0.7,1,\n",
    "all_labels_empty": LABELLED + b"0.2,0,\n0.7,1,\n",
    "empty_proba": LABELLED + b",0,1\n",
    "nul_byte": LABELLED + b"0.2,0,1\x00\n",
    "byte_0xff": LABELLED + b"0.2,0,1\n0.7,1,0\xff\n",
    "byte_0xff_in_header": b"proba,group,label\xff\n0.2,0,1\n",
    "bom": b"\xef\xbb\xbfproba,group,label\n0.2,0,1\n",
    "header_only": LABELLED,
    "header_only_no_newline": b"proba,group,label",
    "header_and_blank_lines": LABELLED + b"\n\r\n\n",
    "misspelt_header": b"proba,group,lable\n0.2,0,1\n",
    "padded_header": b" proba,group,label \n0.2,0,1\n",
    "empty_file": b"",
}


@pytest.mark.parametrize("content", ODD_FILES.values(), ids=ODD_FILES.keys())
def test_agrees_with_row_parser_on_odd_files(tmp_path, content):
    path = tmp_path / "r.csv"
    path.write_bytes(content)
    assert_agrees_with_row_parser(path)


def test_well_formed_files_skip_the_row_parser(tmp_path, monkeypatch):
    def row_parser_called(*_):
        raise AssertionError("fell back to the row parser")

    sim = sample(SimulationSpec(n_g0=300, n_g1=200, seed=3))
    write_records(sim, tmp_path / "sim.csv")
    write_records(Scores(sim.proba, sim.group), tmp_path / "unlabelled.csv")
    oracle = read_rows(tmp_path / "sim.csv")
    monkeypatch.setattr(maddpp.io, "_parse_rows", row_parser_called)
    s = read_records(tmp_path / "sim.csv")
    assert s.proba.tobytes() == oracle.proba.tobytes()
    assert s.group.tobytes() == oracle.group.tobytes()
    assert s.label.tobytes() == oracle.label.tobytes()
    unlabelled = read_records(tmp_path / "unlabelled.csv")
    assert unlabelled.proba.tobytes() == oracle.proba.tobytes() and unlabelled.label is None
    for name in ("plain", "two_columns", "crlf", "blank_lines", "plus_signs", "padded"):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(ODD_FILES[name])
        read_records(path)


# names that np.loadtxt, given a path, would decompress
SUFFIXED_NAMES = ["r.csv.gz", "r.csv.bz2", "r.csv.xz", "r.csv.lzma"]


@pytest.mark.parametrize("name", SUFFIXED_NAMES)
@pytest.mark.parametrize("content", ["plain", "empty_label", "byte_0xff"])
def test_names_do_not_change_how_a_file_reads(tmp_path, name, content):
    path = tmp_path / name
    path.write_bytes(ODD_FILES[content])
    assert_agrees_with_row_parser(path)


def read_through_pipe(content):
    """`read_records` of `content` fed through a pipe, as `<(zcat r.csv.gz)`
    gives: an input that can be read only once."""
    r, w = os.pipe()

    def feed():
        with os.fdopen(w, "wb") as fh:
            fh.write(content)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return read_records(f"/dev/fd/{r}")
    finally:
        os.close(r)  # a writer still blocked then fails rather than hangs
        writer.join()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
@pytest.mark.parametrize("label", ["1", ""])  # the C reader's rows, the row parser's
@pytest.mark.parametrize("n", [3, 3000])  # within, and well past, one read buffer
def test_reads_every_row_of_a_pipe(tmp_path, n, label):
    content = LABELLED + b"".join(b"0.%d,%d,%s\n" % (i, i % 2, label.encode())
                                  for i in range(1, n + 1))
    (tmp_path / "r.csv").write_bytes(content)
    s = read_through_pipe(content)
    expected = read_rows(tmp_path / "r.csv")
    assert len(s) == n
    assert s.proba.tobytes() == expected.proba.tobytes()
    assert (s.label is None) == (label == "")


# cells one defect away from a well-formed file
ODD_CELLS = ["", " 1 ", "+1", "01", "1.0", "1e0", "1_0", "nan", "-nan", "inf", "-0.0",
             "1e-400", '"1"', "#x", "0x1p-3", "\xa01", "\u0661", "2", "-1", str(2**63),
             "abc", "1\x00"]


@st.composite
def records_files(draw):
    """Bytes of a records file: well-formed rows under a drawn header, with
    perhaps odd cells, extra or missing cells, blank lines and a bad byte."""
    header = draw(st.sampled_from(["proba,group,label"] * 4 + ["proba,group"] * 2 +
                                  ["proba,group,lable", '"proba",group,label']))
    width = header.count(",") + 1
    n = draw(st.integers(0, 12))
    rows = [[repr(draw(st.floats(0.0, 1.0)))] + draw(st.lists(
        st.sampled_from(["0", "1"]), min_size=width - 1, max_size=width - 1))
        for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            row = rows[draw(st.integers(0, n - 1))]
            col = draw(st.integers(0, width))  # width: one cell too many
            cell = draw(st.sampled_from(ODD_CELLS))
            row[col:col + 1] = [cell] if draw(st.booleans()) else []
    lines = [header] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " "])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    content = end.join(lines) + draw(st.sampled_from([end, ""]))
    return content.encode() + draw(st.sampled_from([b""] * 7 + [b"\xff"]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(records_files())
def test_agrees_with_row_parser_on_generated_files(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("oracle") / "r.csv"
    path.write_bytes(content)
    assert_agrees_with_row_parser(path)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
@pytest.mark.parametrize("cell, detail", [("1.5", "row 3 has 1.5"),
                                          ("abc", "row 3: proba 'abc' is not a number")])
def test_bad_values_and_bad_cells_name_the_same_row(tmp_path, cell, detail):
    # row 3 of the file, counting the blank line, whichever reader finds the fault
    content = LABELLED + b"\n0.2,0,1\n" + cell.encode() + b",1,0\n"
    path = tmp_path / "r.csv"
    path.write_bytes(content)
    for read in (read_records, read_rows, lambda _: read_through_pipe(content)):
        with pytest.raises(InvalidProbability) as exc:
            read(path)
        assert detail in str(exc.value)
