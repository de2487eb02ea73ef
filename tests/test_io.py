import csv
import io
import itertools
import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import maddpp.io
import maddpp.model
from maddpp.densities import Scores
from maddpp.errors import InvalidProbability, MaddError, UnreadableInput
from maddpp.cli import main
from maddpp.io import read_records, read_rows, write_records
from maddpp.objective import ObjectiveConfig, default_lambda_grid, sweep
from maddpp.simulate import sample
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


def test_any_empty_label_is_refused(tmp_path):
    # the header alone says whether records are labelled; under a label
    # column an empty cell is a bad cell like any other
    path = tmp_path / "r.csv"
    path.write_text("proba,group,label\n0.2,0,1\n0.7,1,\n")
    for read in (read_records, read_rows):
        with pytest.raises(InvalidProbability, match=r": row 2: label '' is not an integer$"):
            read(path)


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
            zip(*(c.tolist() for c in result.columns())))


def formatter_corpus() -> np.ndarray:
    """Every odd j / 2**b for b = 14..19 (exact decimal ties among them), the
    floats next to 10**-k and 1e-4, the values Python's formatter writes,
    and seeded uniforms, also raised to the 8th power."""
    dyadic = [np.arange(1, 2**b, 2) / 2**b for b in range(14, 20)]
    powers = np.array([10.0**-k for k in range(6)] + [1e-4])
    near = [np.nextafter(powers, 0.0), powers, np.nextafter(powers, 1.0)]
    edges = np.array([0.0, -0.0, 1.0, 1 - 2**-53, 5e-324, 2.2250738585072014e-308])
    uniform = np.random.default_rng(11).random(500_000)
    return np.concatenate(dyadic + near + [edges, uniform, uniform**8])


def test_float_cells_are_python_format_17g(tmp_path):
    x = formatter_corpus()
    assert 26215 / 2**18 in x  # a tie: format gives 0.10000228881835938
    maddpp.io.write_columns(tmp_path / "x.csv", ["x"], x)
    got = (tmp_path / "x.csv").read_bytes()
    expected = list(map(format, x.tolist(), itertools.repeat(".17g")))
    if got != "\r\n".join(["x", *expected, ""]).encode():
        cells = got.decode().split("\r\n")
        wrong = [(v, a, b) for v, a, b in zip(x.tolist(), cells[1:], expected) if a != b]
        pytest.fail(f"{len(cells) - 2} cells for {x.size} values, first wrong: {wrong[:5]}")


BLOCK = maddpp.io.BLOCK_ROWS


def block_scores(n: int, seed: int = 12) -> Scores:
    """n labelled records with both groups from n = 2 on, some at 0.0 and 1.0."""
    rng = np.random.default_rng(seed)
    proba = rng.random(n)
    proba[::997], proba[1::1009] = 0.0, 1.0
    group = rng.integers(0, 2, n)
    group[:2] = [0, 1][:n]
    return Scores(proba, group, rng.integers(0, 2, n))


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_writers_match_csv_writer_across_blocks(tmp_path, n):
    s = block_scores(n)
    write_records(s, tmp_path / "records.csv")
    assert (tmp_path / "records.csv").read_bytes() == csv_writer_bytes(
        tmp_path / "expected.csv", ["proba", "group", "label"],
        zip(s.proba.tolist(), s.group.tolist(), s.label.tolist()))
    s = block_scores(max(n, 2))  # fip needs both groups
    write_records(s, tmp_path / "records.csv")
    assert main(["--out-dir", str(tmp_path), "fip", str(tmp_path / "records.csv"),
                 "--lambda", "0.5", "--m", "10"]) == 0
    assert (tmp_path / "fip.csv").read_bytes() == csv_writer_bytes(
        tmp_path / "expected.csv", ["proba", "new_proba", "group"],
        zip(s.proba.tolist(), fip(s, 0.5, 10).tolist(), s.group.tolist()))
    s = block_scores(100)
    write_records(s, tmp_path / "records.csv")
    assert main(["--out-dir", str(tmp_path), "sweep", str(tmp_path / "records.csv"),
                 "--m", "10", "--grid", str(n)]) == 0
    result = sweep(s, ObjectiveConfig(m=10, lambda_grid=default_lambda_grid(n)))
    assert (tmp_path / "sweep.csv").read_bytes() == csv_writer_bytes(
        tmp_path / "expected.csv", ["lambda", "accuracy_loss", "fairness_loss", "total_loss"],
        zip(*(c.tolist() for c in result.columns())))


def test_write_memory_is_bounded(tmp_path):
    # a block's text and temporaries are O(BLOCK_ROWS), whatever the row count
    def peak(n):
        s = block_scores(n)
        tracemalloc.start()
        try:
            maddpp.io.write_columns(tmp_path / "w.csv", ["proba", "group", "label"],
                                    s.proba, s.group, s.label)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert abs(peak(16 * BLOCK) - peak(4 * BLOCK)) <= 2**20


def outcome(read, path):
    """What `read` makes of `path`: each column's dtype and bits, or the error."""
    try:
        s = read(path)
    except MaddError as exc:
        return type(exc), str(exc)
    return [None if a is None else (a.dtype.str, a.view(np.int64).tolist())
            for a in (s.proba, s.group, s.label)]


def assert_agrees_with_row_parser(path):
    assert outcome(read_records, path) == outcome(read_rows, path)


LABELLED = b"proba,group,label\n"
# cells whose bulk value Q + R / 5**19 (see read_records) is a rounding tie:
# the first five round wrongly unless float() reads them
TIE_CELLS = ["0.00000500", "0.000003385", "0.0305530500", "0.02522997890", "0.7540504260500",
             "0.0000161", "0.00004157"]
# proba cells next to the bulk path's grammar, on and next to 2**-k
PROBA_CELLS = ["0", "1", "0.0", "1.0", "0.", "0.0000000000000000000", "5.0000000000000002e-05",
               "0.5", "0.25", "0.49999999999999994", "0.50000000000000011", "0.24999999999999997",
               "0.0000019073486328125", "0.99999999999999989", "0.9999999999999999999",
               "0e12", *TIE_CELLS]


def cells_file(cells: list[str]) -> bytes:
    """A labelled records file of these proba cells, both groups and labels."""
    return LABELLED + b"".join(b"%s,%d,%d\n" % (c.encode(), i % 2, i // 2 % 2)
                               for i, c in enumerate(cells))


# files the bulk path takes, files it leaves to the row parser, and files
# both parsers reject
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
    "format_17g": cells_file([format(x, ".17g") for x in
                              (0.1, 1 / 3, 0.012345678901234568, 0.0012345678901234567,
                               0.00012345678901234567, 2**-20, 1 - 2**-53)]),
    "digits_1_to_19": cells_file(["0." + "9876543210123456789"[:k] for k in range(1, 20)]
                                 + ["0." + "0" * (k - 1) + "7" for k in range(1, 20)]),
    "digits_20_and_more": cells_file(["0." + "1" * 20, "0." + "3" * 21, "0.5" + "0" * 29,
                                      "0.10000000000000000555111512312578270211815834045"]),
    "proba_cells": cells_file(PROBA_CELLS),
    "cr_inside_a_row": LABELLED + b"0.2\r,0,1\n0.7,1,0\n",
    "colon_among_digits": LABELLED + b"0.2,0,1\n0.12:4,1,0\n",  # ":" is "0" + 10
    "slash_among_digits": LABELLED + b"0.2,0,1\n0.1/,1,0\n",  # "/" is "0" - 1
    "cell_over_csv_field_limit": LABELLED + b"0." + b"1" * csv.field_size_limit() + b",0,1\n",
    "bad_label_then_empty_label": LABELLED + b"0.2,0,7\n0.7,1,\n0.4,0,0\n0.9,1,1\n",
    "range_fault_before_parse_fault": LABELLED + b"0.2,0,1\n1.5,1,0\n0.4,0,0\nabc,1,1\n",
    "parse_fault_before_range_fault": LABELLED + b"0.2,0,1\nabc,1,0\n0.4,0,0\n0.9,1,2\n",
}


@pytest.mark.parametrize("content", ODD_FILES.values(), ids=ODD_FILES.keys())
def test_agrees_with_row_parser_on_odd_files(tmp_path, content):
    path = tmp_path / "r.csv"
    path.write_bytes(content)
    assert_agrees_with_row_parser(path)


def test_well_formed_files_skip_the_row_parser(tmp_path, monkeypatch):
    def row_parser_called(*_):
        raise AssertionError("fell back to the row parser")

    sim = sample(n_g0=300, n_g1=200, seed=3)
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
    blocks = block_scores(4 * BLOCK + 1)  # several read blocks
    write_records(blocks, tmp_path / "blocks.csv")
    s = read_records(tmp_path / "blocks.csv")
    assert s.proba.tobytes() == blocks.proba.tobytes()
    assert s.group.tobytes() == blocks.group.tobytes()
    assert s.label.tobytes() == blocks.label.tobytes()
    for name in ("plain", "two_columns", "crlf", "blank_lines", "plus_signs", "padded"):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(ODD_FILES[name])
        read_records(path)


def test_tie_cells_are_read_by_float(tmp_path, monkeypatch):
    parsed = []
    original = maddpp.io._cells

    def spy(buf, starts, ends, parse):
        values = original(buf, starts, ends, parse)
        parsed.extend(buf[i:j].tobytes().decode() for i, j in zip(starts, ends))
        return values

    monkeypatch.setattr(maddpp.io, "_cells", spy)
    path = tmp_path / "r.csv"
    cells = ["0.5", *TIE_CELLS, "0.12345678901234567", "0.0012345678901234567"]
    path.write_bytes(cells_file(cells))
    assert read_records(path).proba.tolist() == [float(c) for c in cells]
    assert parsed == TIE_CELLS  # and no other cell
    # without float() the bulk value would be wrong for the first five
    digits = np.array([int(c[2:].ljust(19, "0")) for c in TIE_CELLS], np.uint64)
    q, r = np.divmod(digits, 5**19)
    bulk = (q + r / 5.0**19) * 2.0**-19
    assert (bulk != [float(c) for c in TIE_CELLS]).tolist() == [True] * 5 + [False] * 2


ROW = b"0.12345678901234567,0,1\r\n"  # 25 bytes, under a 32-byte block
# the last row of a file read in blocks, well-formed or not
LAST_ROWS = {"well_formed": b"0.5,1,0\r\n", "no_final_newline": b"0.5,1,0",
             "final_cr": b"0.5,1,0\r", "quote": b'"0.5",1,0\r\n', "lone_cr": b"0.5\r1,0\n",
             "extra_comma": b"0.5,1,0,\n", "bad_cell": b"abc,1,0\n", "empty_label": b"0.5,1,\n",
             "group_two": b"0.5,2,0\n", "proba_above_one": b"1.5,1,0\n"}


@pytest.mark.parametrize("last", LAST_ROWS.values(), ids=LAST_ROWS.keys())
def test_rows_across_block_boundaries(tmp_path, monkeypatch, last):
    # blocks of 32 bytes; the blank lines put every byte of a row, the LF
    # after a CR and the end of the file on a block's first byte in turn
    monkeypatch.setattr(maddpp.io, "BLOCK_BYTES", 32)
    path = tmp_path / "r.csv"
    for shift in range(2 * len(ROW)):
        path.write_bytes(LABELLED + b"\n" * shift + ROW * 5 + b"0.7,1,1\n" + last)
        assert_agrees_with_row_parser(path)
        if last in (LAST_ROWS["well_formed"], LAST_ROWS["no_final_newline"]):
            with monkeypatch.context() as m:
                m.setattr(maddpp.io, "_parse_rows", None)  # no call to the row parser
                assert read_records(path).proba.tolist() == [0.12345678901234567] * 5 + [0.7, 0.5]


def test_read_memory_is_bounded(tmp_path):
    # the columns are allocated once; the blocks and their temporaries are
    # O(BLOCK_ROWS), give or take a block's row count (64 KiB)
    def peak(n):
        write_records(block_scores(n), tmp_path / "r.csv")
        tracemalloc.start()
        try:
            s = read_records(tmp_path / "r.csv")
            output = s.proba.nbytes + s.group.nbytes + s.label.nbytes
            return tracemalloc.get_traced_memory()[1], output
        finally:
            tracemalloc.stop()

    (small, small_out), (large, large_out) = peak(4 * BLOCK), peak(16 * BLOCK)
    assert large - small <= large_out - small_out + 2**16


def test_long_line_is_read_in_numpy(tmp_path, monkeypatch):
    # a line longer than a block doubles the block, however long the line
    monkeypatch.setattr(maddpp.io, "BLOCK_BYTES", 8)
    monkeypatch.setattr(maddpp.io, "_parse_rows", None)  # no call to the row parser
    cell = "0." + "1" * 300
    path = tmp_path / "r.csv"
    path.write_bytes(cells_file(["0.5", cell, "0.25"]))
    assert read_records(path).proba.tolist() == [0.5, float(cell), 0.25]


def test_file_that_grows_while_read(tmp_path, monkeypatch):
    # the rows past the size the file had when it was opened are read too,
    # each block's rows having room made for them as they come
    class GrowingFile(io.FileIO):
        def readinto(self, b):
            got = super().readinto(b)
            if got and self.tell() < 4096:
                with open(self.name, "ab") as fh:
                    fh.write(b"0.5,1,0\n" * 100)
            return got

    path = tmp_path / "r.csv"
    path.write_bytes(ODD_FILES["plain"])
    monkeypatch.setattr(maddpp.io, "BLOCK_BYTES", 64)
    monkeypatch.setattr(maddpp.io, "_parse_rows", None)  # no call to the row parser
    monkeypatch.setattr(maddpp.io, "open_input", lambda p: io.TextIOWrapper(
        io.BufferedReader(GrowingFile(p)), newline=""))
    s = read_records(path)
    assert s.proba[:2].tolist() == [0.2, 0.7] and len(s) > 2
    assert s.proba[2:].tolist() == [0.5] * (len(s) - 2)
    assert (path.stat().st_size - len(LABELLED)) // 8 == len(s)


def test_columns_are_resized_a_few_times_per_read(tmp_path, monkeypatch):
    # `grow` makes room for the rest of the file, estimated from the bytes
    # read so far, so a read of many blocks resizes its columns a few times,
    # not at every block
    resized = []

    def spy(arrays, n):
        resized.append(n)
        return original(arrays, n)

    original = maddpp.io.resize
    monkeypatch.setattr(maddpp.io, "resize", spy)
    monkeypatch.setattr(maddpp.model, "resize", spy)
    monkeypatch.setattr(maddpp.io, "BLOCK_BYTES", 256)
    monkeypatch.setattr(maddpp.io, "_parse_rows", None)  # no call to the row parser
    monkeypatch.setattr(maddpp.model, "_read_rows", None)  # nor to the row loop
    records, course = tmp_path / "r.csv", tmp_path / "course.csv"
    write_records(block_scores(1000), records)
    course.write_bytes(b"g,x,label\n" + b"M,1.5,1\nF,2,0\n" * 1000)
    for path, read in ((records, read_records),
                       (course, lambda p: maddpp.model.load_dataset(p, sensitive="g"))):
        assert path.stat().st_size >= 30 * 256
        resized.clear()
        read(path)
        assert 2 <= len(resized) <= 3, resized


@pytest.mark.parametrize("block", [8, maddpp.io.BLOCK_BYTES])
@pytest.mark.parametrize("body", [LABELLED + b"0.5,0,1\n0.25,1,0\n",
                                  b"proba,group\n0.5,0\n0.25,1\n"], ids=["labelled", "unlabelled"])
def test_one_leading_bom_is_dropped(tmp_path, monkeypatch, body, block):
    # in the numpy reader and in the row loop alike, on the header's first
    # read and on its second, after the numpy reader hands the file over
    monkeypatch.setattr(maddpp.io, "BLOCK_BYTES", block)
    plain, bom, quoted = (tmp_path / f"{name}.csv" for name in ("plain", "bom", "quoted"))
    plain.write_bytes(body)
    bom.write_bytes(b"\xef\xbb\xbf" + body)
    quoted.write_bytes(b"\xef\xbb\xbf" + body.replace(b"\n0.5,", b'\n"0.5",'))
    for read in (read_records, read_rows):
        def unnamed(path):  # the outcome, the file's name left out of an error
            return [x.replace(str(path), "r.csv") if isinstance(x, str) else x
                    for x in outcome(read, path)]
        expected = unnamed(plain)
        for path, row_parser in ((bom, read is read_rows), (quoted, True)):
            with mock.patch.object(maddpp.io, "_parse_rows", wraps=maddpp.io._parse_rows) as spy:
                assert unnamed(path) == expected
            assert spy.called is row_parser


@pytest.mark.parametrize("read", [read_records, read_rows])
def test_only_one_bom_is_dropped(tmp_path, read):
    path = tmp_path / "r.csv"
    path.write_bytes(b"\xef\xbb\xbf" * 2 + LABELLED + b"0.5,0,1\n")
    with pytest.raises(InvalidProbability, match=r"got '\\ufeffproba,group,label'$"):
        read(path)
    path.write_bytes(b"\xef\xbb\xbf")  # a BOM alone reads as an empty file
    with pytest.raises(InvalidProbability, match="expected header proba,group or "
                                                 "proba,group,label, got ''$"):
        read(path)
    path.write_bytes(b"")
    with pytest.raises(InvalidProbability, match="got ''$"):
        read(path)


@pytest.mark.parametrize("offset", [0, 2**13, 2**20])  # in the first 8 KiB, past it, past a block
@pytest.mark.parametrize("read", [read_records, read_rows])
def test_header_is_checked_before_any_row(tmp_path, read, offset):
    # a bad header is named before a byte after it that does not decode
    path = tmp_path / "r.csv"
    path.write_bytes(b"proba,group,lable\n" + b"0.2,0,1\n" * (offset // 8) + b"\xff\n")
    with pytest.raises(InvalidProbability, match="expected header proba,group or"):
        read(path)
    path.write_bytes(LABELLED + b"0.2,0,1\n" * (offset // 8) + b"\xff\n")
    with pytest.raises(UnreadableInput, match="can't decode byte 0xff"):
        read(path)


def test_header_ends_at_a_lone_cr(tmp_path):
    # as csv.reader's lines do; the rows after it are plain, and read in numpy
    path = tmp_path / "r.csv"
    path.write_bytes(b"proba,group,label\r0.2,0,1\n0.7,1,0\n")
    for read in (read_records, read_rows):
        assert read(path).proba.tolist() == [0.2, 0.7]


# names that a reader given a path may decompress (np.loadtxt does)
SUFFIXED_NAMES = ["r.csv.gz", "r.csv.bz2", "r.csv.xz", "r.csv.lzma"]


@pytest.mark.parametrize("name", SUFFIXED_NAMES)
@pytest.mark.parametrize("content", ["plain", "empty_label", "byte_0xff"])
def test_names_do_not_change_how_a_file_reads(tmp_path, name, content):
    path = tmp_path / name
    path.write_bytes(ODD_FILES[content])
    assert_agrees_with_row_parser(path)


def read_through_pipe(content, read=read_records):
    """`read` of `content` fed through a pipe, as `<(zcat r.csv.gz)` gives:
    an input that can be read only once."""
    r, w = os.pipe()

    def feed():
        with os.fdopen(w, "wb") as fh:
            fh.write(content)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return read(f"/dev/fd/{r}")
    finally:
        os.close(r)  # a writer still blocked then fails rather than hangs
        writer.join()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
@pytest.mark.parametrize("label", ["1", ""])  # a label column, and none
@pytest.mark.parametrize("n", [3, 3000])  # within, and well past, one read buffer
def test_reads_every_row_of_a_pipe(tmp_path, n, label):
    header, tail = (LABELLED, b"," + label.encode()) if label else (b"proba,group\n", b"")
    content = header + b"".join(b"0.%d,%d%s\n" % (i, i % 2, tail) for i in range(1, n + 1))
    (tmp_path / "r.csv").write_bytes(content)
    s = read_through_pipe(content)
    expected = read_rows(tmp_path / "r.csv")
    assert len(s) == n
    assert s.proba.tobytes() == expected.proba.tobytes()
    assert (s.label is None) == (label == "")


def test_read_csv_hands_the_file_to_the_row_reader(tmp_path, monkeypatch):
    # a block reader that raises RowLoop after two blocks hands the file to
    # the row reader, which reads it from the first line after the header
    # again: what the row reader returns is the result
    monkeypatch.setattr(maddpp.io, "BLOCK_BYTES", 32)
    head, body = b"a,b\r\n", b"".join(b"%d,x\r\n" % i for i in range(40))
    calls = []

    def header(lines):
        calls.append("header")
        return next(csv.reader(lines))

    def fast(raw, names):
        calls.append("fast")
        for k, _ in enumerate(maddpp.io.blocks(raw)):
            if k == 2:
                raise maddpp.io.RowLoop
        raise AssertionError("the file ended first")

    def rows(fh, names):
        calls.append("rows")
        table.append((names, fh.read()))
        return table[-1]

    table = []
    path = tmp_path / "t.csv"
    path.write_bytes(head + body)
    assert maddpp.io.read_csv(path, header, rows, fast) is table[0]
    assert table == [(["a", "b"], body.decode())]
    assert calls == ["header", "fast", "header", "rows"]
    if os.path.isdir("/dev/fd"):  # a pipe cannot be read twice, so `fast` never reads one
        calls.clear()
        read = read_through_pipe(head + body, lambda p: maddpp.io.read_csv(p, header, rows, fast))
        assert read is table[1] and read[1] == body.decode()
        assert calls == ["header", "rows"]


# cells one defect away from a well-formed file
ODD_CELLS = ["", " 1 ", "+1", "01", "1.0", "1e0", "1_0", "nan", "-nan", "inf", "-0.0",
             "1e-400", '"1"', "#x", "0x1p-3", "\xa01", "\u0661", "2", "-1", str(2**63),
             "abc", "1\x00", "0.1:", "0./"]


proba_cells = st.one_of(st.floats(0.0, 1.0).map(repr),
                        st.floats(0.0, 1.0).map(lambda x: format(x, ".17g")),
                        st.text("0123456789", min_size=1, max_size=30).map("0.".__add__),
                        st.sampled_from(PROBA_CELLS))


@st.composite
def records_files(draw):
    """Bytes of a records file: well-formed rows under a drawn header, with
    perhaps odd cells, extra or missing cells, blank lines and a bad byte."""
    header = draw(st.sampled_from(["proba,group,label"] * 4 + ["proba,group"] * 2 +
                                  ["proba,group,lable", '"proba",group,label']))
    width = header.count(",") + 1
    n = draw(st.integers(0, 12))
    rows = [[draw(proba_cells)] + draw(st.lists(
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
@given(records_files(), st.sampled_from([8, 16, 32, 48, maddpp.io.BLOCK_BYTES]))
def test_agrees_with_row_parser_on_generated_files(tmp_path_factory, content, block):
    path = tmp_path_factory.mktemp("oracle") / "r.csv"
    path.write_bytes(content)
    with mock.patch.object(maddpp.io, "BLOCK_BYTES", block):
        assert_agrees_with_row_parser(path)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
@pytest.mark.parametrize("block", [8, maddpp.io.BLOCK_BYTES])
@pytest.mark.parametrize("name, detail", [
    ("bad_label_then_empty_label", "label must be 0 or 1; row 1 has 7"),
    ("range_fault_before_parse_fault", "proba must be finite and in [0, 1]; row 2 has 1.5"),
    ("parse_fault_before_range_fault", "row 2: proba 'abc' is not a number"),
    ("empty_label", "row 2: label '' is not an integer"),
    ("all_labels_empty", "row 1: label '' is not an integer"),
])
def test_first_bad_row_in_file_order(tmp_path, monkeypatch, name, detail, block):
    # whatever the faults and whichever reader meets them, the first in file order
    monkeypatch.setattr(maddpp.io, "BLOCK_BYTES", block)
    content = ODD_FILES[name]
    path = tmp_path / "r.csv"
    path.write_bytes(content)
    assert_agrees_with_row_parser(path)
    for read in (read_records, read_rows, lambda _: read_through_pipe(content)):
        with pytest.raises(InvalidProbability) as exc:
            read(path)
        assert str(exc.value).endswith(f": {detail}"), str(exc.value)


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
