"""Records CSV schema shared by the simulated and real pipelines.

The header is exactly `proba,group,label` or `proba,group`: proba as a
decimal with 17 significant digits (lossless float round trip), group in
{0, 1}, label in {0, 1} or empty when absent.  A file with any empty label
cell reads as unlabelled.  `write_records` writes unlabelled scores under
`proba,group`, which `read_records` reads with numpy's C reader.
"""

from __future__ import annotations

import bisect
import csv

import numpy as np

from .densities import Scores
from .errors import EmptyPopulation, InvalidProbability, MissingLabels, UnreadableInput

HEADER = ["proba", "group", "label"]
# the C reader's row type for each exact header line
BODY_DTYPES = {
    "proba,group": [("proba", np.float64), ("group", np.int64)],
    "proba,group,label": [("proba", np.float64), ("group", np.int64), ("label", np.int64)],
}


def open_input(path):
    """Open a text input for reading; an OS-level failure becomes UnreadableInput."""
    try:
        return open(path, newline="")
    except OSError as exc:
        raise UnreadableInput(f"cannot read {path}: {exc.strerror or exc}") from None


def write_columns(path, header: list[str], row_format: str, *columns: list) -> None:
    """Write the header, then `row_format.format(*cells)` for each row of the
    columns: the bytes `csv.writer` writes for cells that need no quoting,
    when `row_format` ends in CRLF as the header line does."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(map(row_format.format, *columns))


def write_records(scores: Scores, path) -> None:
    """Write `scores` as a records CSV; unlabelled ones without a label column."""
    columns = [scores.proba.tolist(), scores.group.tolist()]
    if scores.label is None:
        write_columns(path, HEADER[:2], "{:.17g},{}\r\n", *columns)
    else:
        write_columns(path, HEADER, "{:.17g},{},{}\r\n", *columns, scores.label.tolist())


def read_records(path, require_labels: bool = False) -> Scores:
    """Read a records CSV into `Scores`, exactly as `read_rows` would.

    The file is opened once.  A regular file of plain numeric cells under an
    exact header line goes through one `np.loadtxt` call on the open handle;
    the row parser reads anything else from the start, and accepts it or
    raises the typed error naming the bad header, row or cell.  It also
    re-reads a file whose values fail `Scores` validation, since only it
    knows where the blank lines were that the error's row number counts.
    """
    import os
    import stat

    with open_input(path) as fh:
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # a pipe cannot be read twice
            body = _load_body(fh)
            if body is not None:
                label = body["label"].copy() if "label" in body.dtype.names else None
                try:
                    return _scores(path, body["proba"].copy(), body["group"].copy(), label,
                                   require_labels)
                except InvalidProbability:
                    pass
            fh.seek(0)
        return _parse_rows(fh, path, require_labels)


def _load_body(fh):
    """The rows of `fh` under its header line as one structured array, or
    None if `np.loadtxt` does not take them all."""
    import warnings

    try:
        dtype = BODY_DTYPES[fh.readline().rstrip("\r\n")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns when there are no rows
            return np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    # not an exact header, a cell or row loadtxt rejects, no rows, or bytes
    # that do not decode (a UnicodeDecodeError is a ValueError)
    except (KeyError, ValueError, UserWarning):
        return None


def read_rows(path, require_labels: bool = False) -> Scores:
    """Row-by-row records parser (`csv.reader`, then `float()`/`int()` per
    cell): the fallback of `read_records` and the reference it must match."""
    with open_input(path) as fh:
        return _parse_rows(fh, path, require_labels)


def _parse_rows(fh, path, require_labels: bool) -> Scores:
    proba, group, label = [], [], []
    blanks = []  # the number of records before each blank line
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
        if header not in (HEADER, HEADER[:2]):
            raise InvalidProbability(
                f"{path}: expected header proba,group or proba,group,label, "
                f"got {','.join(header or [])!r}")
        width = len(header)
        labelled = width == 3
        for row_number, row in enumerate(reader, 1):
            if len(row) != width:
                if not row:
                    blanks.append(len(proba))
                    continue
                raise InvalidProbability(f"{path}: row {row_number} has {len(row)} "
                                         f"cells, expected {width}")
            proba.append(float(row[0]))
            group.append(int(row[1]))
            if labelled:
                label.append(int(row[2]) if row[2] else None)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise UnreadableInput(f"cannot read {path}: {exc}") from None
    except ValueError:  # from float() or int() on a cell of `row`
        raise InvalidProbability(_bad_cell(path, row_number, row)) from None
    if not proba:
        raise EmptyPopulation(f"{path}: no records")
    label = np.array(label) if labelled and None not in label else None
    return _scores(path, np.array(proba), np.array(group), label, require_labels, blanks)


def _scores(path, proba, group, label, require_labels: bool, blanks=()) -> Scores:
    """Validated `Scores` of parsed columns; errors name `path`, and the row
    of a bad value counts the blank lines before it, as a parse error does."""
    if label is None and require_labels:
        raise MissingLabels(f"{path}: label required on every row")
    try:
        return Scores(proba, group, label)
    except InvalidProbability as exc:
        row = exc.row + bisect.bisect_left(blanks, exc.row)
        msg = str(exc).replace(f"row {exc.row} has", f"row {row} has")
        raise InvalidProbability(f"{path}: {msg}") from None


def _bad_cell(path, row_number: int, row: list) -> str:
    """Name the cell of `row` that `read_rows` failed to parse."""
    for name, parse, cell in zip(HEADER, (float, int, int), row):
        try:
            if cell or name != "label":  # an empty label is allowed
                parse(cell)
        except ValueError:
            kind = "a number" if parse is float else "an integer"
            return f"{path}: row {row_number}: {name} {cell!r} is not {kind}"
