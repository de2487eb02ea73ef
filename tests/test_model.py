import csv
import itertools
import json
import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maddpp.io
from maddpp import model
from maddpp.errors import EmptyPopulation, EncodingError, MaddError, UnreadableInput
from maddpp.model import (
    ORDINAL_LEVELS,
    LogisticModel,
    _scaling,
    _sigmoid,
    gradient,
    hessian,
    load_dataset,
    load_rows,
    split,
    train,
)
from train_oracle import load_model, loss, standardized_fit


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
        X, y, groups, rules, dropped = load_dataset(path, sensitive="gender")
        assert rules["gender"].startswith("categorical")
        assert X[0, 0] == 1.0 and X[1, 0] == 0.0  # F < M lexicographically
        np.testing.assert_array_equal(y, [1, 0])
        np.testing.assert_array_equal(groups, [1, 0])
        assert dropped == 0

    def test_known_ordinal_levels(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["age", "gender", "label"],
                  [["35-55", "M", "1"], ["0-35", "F", "0"], ["55<=", "F", "1"]])
        X, _, _, rules, _ = load_dataset(path, sensitive="gender")
        assert rules["age"] == "ordinal"
        np.testing.assert_array_equal(X[:, 0], [1, 0, 2])

    def test_unknown_category_raises(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["age", "label"], [["banana", "1"], ["0-35", "0"]])
        with pytest.raises(EncodingError, match="unknown category in column 'age': 'banana'"):
            load_dataset(path, sensitive="age")

    def test_missing_rows_dropped_and_counted(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["gender", "score", "label"],
                  [["M", "1.0", "1"], ["F", "", "0"], ["F", "3.0", "1"]])
        X, y, groups, _, dropped = load_dataset(path, sensitive="gender")
        assert dropped == 1
        assert len(y) == len(groups) == X.shape[0] == 2

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
            load_dataset(path, sensitive="gender")

    def test_non_binary_sensitive(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["region", "label"],
                  [["a", "1"], ["b", "0"], ["c", "1"]])
        with pytest.raises(EncodingError, match="^sensitive column 'region' must be binary, "
                                                "found 3 distinct values$"):
            load_dataset(path, sensitive="region")


# each file fixes the error before it: a bad label is named before a bad
# feature cell above it, and that before a sensitive column that is not binary
ORDERED_ERRORS = [
    ("a,inf,1\nb,1,2\nc,2,0\n", "{path}: row 2: label must be 0 or 1, got '2'"),
    ("a,inf,1\nb,1,0\nc,2,0\n", "column 'x', row 1: 'inf' is not a finite number"),
    ("a,0.5,1\nb,1,0\nc,2,0\n", "sensitive column 'g' must be binary, found 3 distinct values"),
]


@pytest.mark.parametrize("rows, message", ORDERED_ERRORS, ids=["label", "feature", "sensitive"])
@pytest.mark.parametrize("block", [8, maddpp.io.BLOCK_BYTES])
def test_checks_run_in_order(tmp_path, rows, message, block):
    path = tmp_path / "d.csv"
    path.write_bytes(b"g,x,label\n" + rows.encode())
    for load in (load_dataset, load_rows):
        with mock.patch.object(maddpp.io, "BLOCK_BYTES", block), \
                pytest.raises(EncodingError) as exc:
            load(path, sensitive="g")
        assert str(exc.value) == message.format(path=path)


def table(path, fast=True, sensitive="g", label_column="label"):
    """The table `load_dataset` (fast) or `load_rows` reads from `path`
    before encoding it: (header, each column's (cells, codes), the kept rows'
    numbers, the dropped row count)."""
    return maddpp.io.read_csv(
        path, lambda lines: model._check_header(lines, path, sensitive, label_column),
        model._read_rows, model._read_blocks if fast else None)


def decoded(read):
    """A `table` as each column's name and cells in row order, the row
    numbers, and the dropped count and its type, after checking its
    factorization: distinct cells, each used, one intp code per kept row."""
    header, columns, row_numbers, dropped = read
    cells_in_rows = []
    for name, (cells, codes) in zip(header, columns, strict=True):
        assert len(set(cells)) == len(cells)
        assert codes.dtype == np.intp and codes.shape == row_numbers.shape
        assert np.unique(codes).tolist() == list(range(len(cells)))
        cells_in_rows.append((name, [cells[c] for c in codes.tolist()]))
    assert row_numbers.dtype == np.intp
    return cells_in_rows, row_numbers.tolist(), type(dropped), dropped


def caught(f):
    """f(), or the type and message of the MaddError it raises."""
    try:
        return f()
    except MaddError as exc:
        return type(exc), str(exc)


def arrays(loaded):
    """`load_dataset`'s arrays as plain values: dtypes, shapes, bytes, lists."""
    X, y, groups, rules, dropped = loaded
    return (X.dtype.str, X.shape, X.tobytes(), y.dtype.str, y.tolist(),
            groups.dtype.str, groups.tolist(), rules, type(dropped), dropped)


def outcome(load, path, sensitive="g", label_column="label"):
    """The table `load`'s reader reads from `path` (`decoded`) and what
    `load` makes of it (`arrays`), or the error each raises."""
    fast = load is load_dataset
    return (caught(lambda: decoded(table(path, fast, sensitive, label_column))),
            caught(lambda: arrays(load(path, sensitive, label_column))))


def dictreader_load(path):
    """The row handling of csv.DictReader, less a UTF-8 BOM: (each column's
    cells in row order by name, the row number of each kept row, dropped)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        rows, numbers, dropped = [], [], 0
        for raw in reader:
            if any(raw[c] is None or raw[c] == "" for c in reader.fieldnames):
                dropped += 1
            else:
                rows.append(raw)
                numbers.append(reader.line_num - 1)  # one physical line per row here
    return {c: [r[c] for r in rows] for c in reader.fieldnames}, numbers, dropped


# plain cells; the last ones differ only after byte 8 or 16, or parse as
# numbers by float() alone, or sort apart from their case order
CELLS = st.sampled_from(["", "a", "b", "1.5", "-2", " ", "1_000", " 2 ", "١", "é", "E", "z",
                         "abcdefgh1", "abcdefgh2", "abcdefghijklmnop1", "abcdefghijklmnop2"])


@st.composite
def course_files(draw):
    """Course CSV text under a g, x, label header in some order: rows of 0 to 5
    cells, blank and whitespace lines, LF or CRLF line ends, maybe a BOM, a
    last line without its end, or a quoted cell holding a comma."""
    header = draw(st.permutations(["g", "x", "label"]))
    label = header.index("label")
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        row = draw(st.lists(CELLS, max_size=5))
        if len(row) > label:
            row[label] = draw(st.sampled_from(["0", "1", ""]))
        lines.append(",".join(row))
    if len(lines) > 1 and draw(st.integers(0, 9)) == 0:
        lines[-1] += ',"c,d"'  # to the row loop, past the header's width or not
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return "\ufeff" * draw(st.booleans()) + text


@settings(max_examples=300, deadline=None, derandomize=True)
@given(course_files(), st.sampled_from([8, 16, 32, 48, maddpp.io.BLOCK_BYTES]))
def test_load_matches_dictreader(tmp_path_factory, text, block):
    path = tmp_path_factory.mktemp("course") / "d.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(maddpp.io, "BLOCK_BYTES", block):  # rows cross block boundaries
        got = outcome(load_dataset, path)
    assert got == outcome(load_rows, path)
    columns, numbers, dropped = dictreader_load(path)
    read, loaded = got
    assert read == (list(columns.items()), numbers, int, dropped)
    labels, sensitive = columns.pop("label"), columns["g"]
    if not labels:
        assert loaded == (EmptyPopulation, f"no usable rows in {path}")
        return
    if not set(labels) <= {"0", "1"}:  # the quoted cell in the label column
        assert loaded[0] is EncodingError and "label must be 0 or 1, got 'c,d'" in loaded[1]
        return
    if len(set(sensitive)) != 2:
        assert loaded == (EncodingError, "sensitive column 'g' must be binary, "
                                         f"found {len(set(sensitive))} distinct values")
        return
    X, y, groups, rules, dropped_rows = load_dataset(path, sensitive="g")
    assert list(rules) == list(columns) and dropped_rows == dropped
    assert y.tolist() == [int(c) for c in labels]
    assert groups.tolist() == [sorted(set(sensitive)).index(c) for c in sensitive]
    for j, cells in enumerate(columns.values()):  # no cell here is a non-finite number
        try:
            expected = [float(c) for c in cells]
        except ValueError:
            expected = [sorted(set(cells)).index(c) for c in cells]
        assert X[:, j].tolist() == expected


BOM = b"\xef\xbb\xbf"
HEADER = b"g,x,label\n"
# name: (file, whether the numpy reader reads it, not the row loop)
ODD_FILES = {
    "crlf": (b"g,x,label\r\nM,1.5,1\r\nF,2,0\r\n", True),
    "lone_cr": (HEADER + b"M,1.5,1\rF,2,0\n", False),
    "cr_in_cell": (HEADER + b"M,1\r5,1\nF,2,0\n", False),
    "cr_at_end": (HEADER + b"M,1.5,1\nF,2,0\r", True),
    "quote": (HEADER + b'M,"1.5",1\nF,2,0\n', False),
    "quoted_comma": (HEADER + b'M,"1,5",1\nF,2,0\n', False),
    "quote_past_width": (HEADER + b'M,1.5,1,"x\ny"\nF,2,0\n', False),
    "nul": (HEADER + b"M,1\x005,1\nF,2,0\n", False),
    "undecodable": (HEADER + b"M,1.5,1\nF,2\xff,0\n", False),
    "undecodable_past_width": (HEADER + b"M,1.5,1,\xc3\nF,2,0\n", False),
    "surrogate": (HEADER + b"M,1.5,1\nF\xed\xa0\x80,2,0\n", False),
    "bom": (BOM + HEADER + b"M,1.5,1\nF,2,0\n", True),
    "bom_label_first": (BOM + b"label,g,x\n1,M,1.5\n0,F,2\n", True),
    "bom_quoted_header": (BOM + b'"g",x,label\nM,1.5,1\nF,2,0\n', True),
    "quoted_header_over_two_lines": (b'"g\nh",x,label\nM,1.5,1\nF,2,0\n', True),
    "lone_cr_header": (b"g,x,label\rM,1.5,1\nF,2,0\n", True),
    "undecodable_header": (b"g,x\xff,label\nM,1.5,1\n", True),
    "bom_only": (BOM, True),
    "two_boms": (BOM + BOM + HEADER + b"M,1.5,1\nF,2,0\n", True),
    "blank_lines": (HEADER + b"\nM,1.5,1\n\r\n\nF,2,0\n\n", True),
    "whitespace_lines": (HEADER + b" \nM,1.5,1\n\t\nF,2,0\n", True),
    "short_rows": (HEADER + b"M,1.5\nM,1.5,1\nF\nF,2,0\n", True),
    "extra_cells": (HEADER + b"M,1.5,1,,x\nF,2,0,9\n", True),
    "empty_cells": (HEADER + b",1.5,1\nM,,1\nM,1.5,\nF,2,0\nM,3,1\n,,\n", True),
    "no_trailing_lf": (HEADER + b"M,1.5,1\nF,2,0", True),
    "header_only": (HEADER, True),
    "header_only_no_lf": (b"g,x,label", True),
    "empty": (b"", True),
    "blank_header": (b"\n" + HEADER + b"M,1.5,1\n", True),
    "repeated_name": (b"g,x,x,label\nM,1,2,1\n", True),
    "no_sensitive": (b"h,x,label\nM,1,1\n", True),
    "no_label": (b"g,x,y\nM,1,1\n", True),
    "bad_label": (HEADER + b"M,1,1\nF,2,0\n\nF,3,2\nM,4,x\n", True),
    "label_first": (b"label,g,x\n1,M,1.5\n0,F,2\n", True),
    "non_ascii": ("g,x,label\né,z,1\nE,Z,0\ne,ß,1\nÄ,日本,0\nz,é,1\n".encode(), True),
    "long_cells": (HEADER + b"".join(b"%s,%s,%d\n" % (g, x, i % 2) for i, (g, x) in enumerate(
        [(b"F", b"abcdefgh1"), (b"M", b"abcdefgh2"), (b"F", b"abcdefghijklmnop1"),
         (b"M", b"abcdefghijklmnop2"), (b"F", b"abcdefgh"), (b"M", b"abcdefghijklmnopq"),
         (b"F", b"abcdefgh2"), (b"M", b"abcdefghijklmnop"), (b"F", b"zzzzzzzzijklmnop1"),
         (b"M", b"ijklmnopabcdefgh")])), True),
    "numbers_for_float_alone": (HEADER + "M,1_000,1\nF, 2 ,0\nM,١,1\nF,+3e0,0\n".encode(), True),
    "not_finite": (HEADER + b"M,1,1\nF,,0\nF,-inf,1\n", True),
    "field_over_limit": (HEADER + b"M,1,1\nF," + b"7" * (csv.field_size_limit() + 1)
                         + b",0\n", False),
}


@pytest.mark.parametrize("block", [8, maddpp.io.BLOCK_BYTES])
@pytest.mark.parametrize("name", ODD_FILES)
def test_odd_files_match_the_row_loop(tmp_path, name, block):
    content, numpy_reader = ODD_FILES[name]
    path = tmp_path / "d.csv"
    path.write_bytes(content)
    with mock.patch.object(maddpp.io, "BLOCK_BYTES", block), \
            mock.patch.object(model, "_read_rows", wraps=model._read_rows) as row_loop:
        got = outcome(load_dataset, path)
    assert got == outcome(load_rows, path)
    assert row_loop.called is not numpy_reader


def test_bom_leaves_the_first_column_its_name(tmp_path):
    for name, sensitive in (("bom", "g"), ("bom_label_first", "g"), ("two_boms", "\ufeffg")):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(ODD_FILES[name][0])
        X, y, groups, rules, _ = load_dataset(path, sensitive=sensitive)
        assert list(rules) == [sensitive, "x"] and groups.tolist() == [1, 0]
        assert y.tolist() == [1, 0] and X[:, 1].tolist() == [1.5, 2.0]


def test_header_is_checked_before_any_row(tmp_path):
    # a missing sensitive column is named before a bad label below it, and
    # before a byte below it that does not decode, wherever that byte lies:
    # in the first 8 KiB, past them, past the first block
    path = tmp_path / "d.csv"
    for load, offset in itertools.product((load_dataset, load_rows), (0, 2**13, 2**20)):
        rows = b"M,1,1\n" * (offset // 6)
        path.write_bytes(HEADER + rows + b"M,1,2\n")
        with pytest.raises(EncodingError, match="^sensitive column 'nosuch' not in features$"):
            load(path, sensitive="nosuch")
        with pytest.raises(EncodingError, match="^sensitive column 'label' not in features$"):
            load(path, sensitive="label")
        path.write_bytes(HEADER + rows + b"\xff\n")
        with pytest.raises(EncodingError, match="^sensitive column 'nosuch' not in features$"):
            load(path, sensitive="nosuch")
        with pytest.raises(UnreadableInput, match="can't decode byte 0xff"):
            load(path, sensitive="g")


def test_header_ends_at_a_lone_cr(tmp_path):
    # as csv.reader's lines do; the rows after it are plain, and read in numpy
    path = tmp_path / "d.csv"
    path.write_bytes(ODD_FILES["lone_cr_header"][0])
    for load in (load_dataset, load_rows):
        assert outcome(load, path)[0][0] == [("g", ["M", "F"]), ("x", ["1.5", "2"]),
                                             ("label", ["1", "0"])]
    assert outcome(load_dataset, path) == outcome(load_rows, path)


def test_rows_across_block_boundaries(tmp_path):
    # blocks of 16 bytes, doubled for the longer lines: the blank lines move
    # the rows, the LF after a CR and the end of the file across the blocks'
    # edges one byte at a time
    rows = "é,abcdefghijklmnop1,1\r\nF,2,0\nM,,1\nM,abcdefghijklmnop2,0\n\nF,1_000,1"
    path = tmp_path / "d.csv"
    for shift in range(48):
        path.write_bytes(("g,x,label\n" + "\n" * shift + rows).encode())
        with mock.patch.object(maddpp.io, "BLOCK_BYTES", 16), \
                mock.patch.object(model, "_read_rows", side_effect=AssertionError):
            got = outcome(load_dataset, path)
        assert got == outcome(load_rows, path)
        assert got[0][1] == [shift + k for k in (1, 2, 4, 6)]


@pytest.mark.parametrize("content", [
    ODD_FILES["long_cells"][0],
    HEADER + b"M,abcdefghi,1\nF,abcdefghij,0\n",  # the first a prefix of the second
    HEADER + b"M,abcdefghi,1\nF,abcdefghj,0\n",  # the same length
], ids=["long_cells", "prefix", "same_length"])
def test_hash_collision_goes_to_the_row_loop(tmp_path, content):
    # with no mixing, every cell of a column with a cell over 8 bytes hashes to 0
    path = tmp_path / "d.csv"
    path.write_bytes(content)
    with mock.patch.object(model, "_MIX", np.uint64(0)), \
            mock.patch.object(model, "_read_rows", wraps=model._read_rows) as row_loop:
        got = outcome(load_dataset, path)
    assert row_loop.called
    assert got == outcome(load_rows, path)


def test_pipes_go_to_the_row_loop(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(HEADER + "M,é,1\nF,2,0\n".encode())
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    with mock.patch.object(model, "_read_rows", wraps=model._read_rows) as row_loop:
        for read in (table, lambda p: load_dataset(p, sensitive="g")):
            writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
            writer.start()
            got.append(read(fifo))
            writer.join(timeout=60)
            assert not writer.is_alive()
        assert row_loop.call_count == 2
    assert decoded(got[0])[0] == [("g", ["M", "F"]), ("x", ["é", "2"]), ("label", ["1", "0"])]
    assert arrays(got[1]) == arrays(load_rows(path, sensitive="g"))


def test_load_memory_is_bounded(tmp_path):
    # the reading step's codes and row numbers grow in place to an estimate
    # of their final size and are cut to it at the end, and a block's
    # temporaries are O(BLOCK_BYTES); the encoding step allocates X and one
    # column (a column's values), as y and groups are codes it already holds.
    # The file repeats one set of rows, so its distinct cells are the same at
    # every size.  Allowed: a slack of 64 KiB
    rng = np.random.default_rng(5)
    rows = "".join(f"{'MF'[g]},{a},{s:.1f},{r},{y}\n" for g, a, s, r, y in zip(
        rng.integers(0, 2, 4000), rng.choice(ORDINAL_LEVELS["age"], 4000),
        rng.normal(68, 14, 4000), rng.choice(["north", "south-west", "east"], 4000),
        rng.integers(0, 2, 4000))).encode()
    path = tmp_path / "course.csv"

    def overheads(blocks):
        """The peak memory of the reading step and of the encoding step
        beyond what each returns."""
        path.write_bytes(b"gender,age,mean_score,region,label\n"
                         + rows * (blocks * maddpp.io.BLOCK_BYTES // len(rows)))
        tracemalloc.start()
        try:
            header, columns, row_numbers, dropped = table(path, sensitive="gender")
            held = [codes for _, codes in columns] + [row_numbers]
            read = tracemalloc.get_traced_memory()[1] - sum(a.nbytes for a in held)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            X, *_ = model._arrays(path, "label", "gender", header, columns, row_numbers, dropped)
            column = row_numbers.size * np.dtype(float).itemsize
            return read, tracemalloc.get_traced_memory()[1] - before - X.nbytes - column
        finally:
            tracemalloc.stop()

    (read4, encode4), (read16, encode16) = overheads(4), overheads(16)
    assert read16 - read4 <= 2**16
    assert max(encode4, encode16) <= 2**16


def test_long_cell_costs_its_own_length(tmp_path):
    # one 64 KiB cell among 3,000 short rows in one block: keying every row
    # by as many words as the longest cell would take 3,000 x 8 KiB words
    # (190 MB); each row is keyed by its own words, in 1.9 MB
    path = tmp_path / "d.csv"
    path.write_bytes(HEADER + b"M,%s,1\n" % (b"ab" * 2**15) + b"F,2,0\nM,3,1\n" * 1500)
    tracemalloc.start()
    try:
        read, loaded = table(path), load_dataset(path, sensitive="g")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells, row_numbers, _, _ = decoded(read)
    assert cells[1] == ("x", ["ab" * 2**15] + ["2", "3"] * 1500)
    assert row_numbers == list(range(1, 3002))
    assert peak < 2**22
    assert arrays(loaded) == arrays(load_rows(path, sensitive="g"))


class TestScaling:
    def test_constant_column_maps_to_zeros(self):
        X = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        mean, std = _scaling(X, np.array([True, True]), ["c", "x"])
        out = (X - mean) / std
        np.testing.assert_allclose(out[:, 0], 0.0)
        assert abs(out[:, 1].mean()) < 1e-12

    def test_mask_leaves_columns_untouched(self):
        X = np.column_stack([np.arange(10.0), np.arange(10.0)])
        mean, std = _scaling(X, np.array([True, False]), ["a", "b"])
        assert (mean[1], std[1]) == (0.0, 1.0)
        np.testing.assert_allclose(((X - mean) / std)[:, 1], X[:, 1])

    def test_overflowing_column_raises_from_train(self):
        X = np.array([[1.0, 1e308], [2.0, 1.5e308]])
        with pytest.raises(EncodingError, match="column 'big': values too large to scale"):
            train(X, np.array([0, 1]), {"small": "numeric", "big": "numeric"})


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
        model = train(X, y, {"x": "ordinal"})  # an ordinal column is not scaled
        assert loss(model.weights, model.bias, X, y, 1e-4) < 0.1

    def test_constant_labels(self):
        X = np.array([[0.5], [0.1], [0.9]])
        y = np.array([1, 1, 1])
        model = train(X, y, {"x": "ordinal"})
        assert model.bias > 0
        assert np.all(model.predict_proba(X) > 0.9)

    def test_only_numeric_columns_are_standardized(self, monkeypatch, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["gender", "age", "score", "label"],
                  [["M", "0-35", "40.5", "1"], ["F", "55<=", "71.0", "0"],
                   ["F", "35-55", "62.5", "1"], ["M", "35-55", "55.0", "0"]])
        X, y, _, rules, _ = load_dataset(path, sensitive="gender")
        assert list(rules.values()) == ["categorical['F', 'M']", "ordinal", "numeric"]
        mean, std = _scaling(X, np.array([False, False, True]), list(rules))
        assert mean.tolist() == [0.0, 0.0, X[:, 2].mean()]
        assert std.tolist() == [1.0, 1.0, X[:, 2].std()]
        model, Xs, w, b = standardized_fit(monkeypatch, X, y, rules=rules)
        np.testing.assert_array_equal(Xs, (X - mean) / std)  # the codes as they are
        assert model.feature_names == ["gender", "age", "score"]
        assert np.abs(model.predict_proba(X) - _sigmoid(Xs @ w + b)).max() <= 1e-15

    def test_large_mean_over_std_stays_near_the_standardized_fit(self, monkeypatch):
        # the folded logit rounds mean @ (w / std) on a scale of |mean / std|
        rng = np.random.default_rng(12)
        z = rng.normal(size=2000)
        X = np.column_stack([1e6 + z, rng.integers(0, 3, 2000)])
        assert abs(X[:, 0].mean() / X[:, 0].std()) == pytest.approx(1e6, rel=0.1)
        y = (z + rng.normal(size=2000) > 0).astype(float)
        model, Xs, w, b = standardized_fit(monkeypatch, X, y,
                                           rules={"score": "numeric", "band": "ordinal"})
        assert np.abs(model.predict_proba(X) - _sigmoid(Xs @ w + b)).max() <= 1e-9

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


def unscaled_model(weights):
    """A model with bias 0 on len(weights) features."""
    return LogisticModel(weights=np.asarray(weights, dtype=float), bias=0.0,
                         feature_names=[f"x{j}" for j in range(len(weights))],
                         training={})


class TestPredict:
    def test_zero_model_gives_half(self):
        model = unscaled_model(np.zeros(3))
        np.testing.assert_allclose(model.predict_proba(np.ones((4, 3))), 0.5)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=4)
        model = unscaled_model(w)
        x = rng.normal(size=(1, 4))
        p_plus = model.predict_proba(x)[0]
        p_minus = model.predict_proba(-x)[0]
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_positive_weight_feature(self):
        model = unscaled_model([2.0])
        p = model.predict_proba(np.array([[0.1], [0.5], [0.9]]))
        assert np.all(np.diff(p) > 0)

    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 3))
        y = (X[:, 0] > 0).astype(float)
        model = train(X, y, {"a": "numeric", "b": "numeric", "c": "numeric"})
        path = tmp_path / "model.json"
        model.save(path)
        with open(path) as fh:
            assert sorted(json.load(fh)) == ["bias", "feature_names", "weights"]
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.predict_proba(X), model.predict_proba(X))
        assert loaded.feature_names == ["a", "b", "c"]
