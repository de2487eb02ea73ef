"""Records CSV schema shared by the simulated and real pipelines.

The header is exactly `proba,group,label` or `proba,group`: proba as a
decimal with 17 significant digits (lossless float round trip), group in
{0, 1}, label in {0, 1} or empty when absent.  A file with any empty label
cell reads as unlabelled.
"""

from __future__ import annotations

import csv

import numpy as np

from .densities import Scores
from .errors import EmptyPopulation, InvalidProbability, MissingLabels, UnreadableInput

HEADER = ["proba", "group", "label"]


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
    labels = [""] * len(scores) if scores.label is None else scores.label.tolist()
    write_columns(path, HEADER, "{:.17g},{},{}\r\n", scores.proba.tolist(),
                  scores.group.tolist(), labels)


def read_records(path, require_labels: bool = False) -> Scores:
    proba, group, label = [], [], []
    with open_input(path) as fh:
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
                        continue  # blank line
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
    if not labelled or None in label:
        if require_labels:
            raise MissingLabels(f"{path}: label required on every row")
        label = None
    try:
        return Scores(np.array(proba), np.array(group),
                      None if label is None else np.array(label))
    except InvalidProbability as exc:
        raise InvalidProbability(f"{path}: {exc}") from None


def _bad_cell(path, row_number: int, row: list) -> str:
    """Name the cell of `row` that `read_records` failed to parse."""
    for name, parse, cell in zip(HEADER, (float, int, int), row):
        try:
            if cell or name != "label":  # an empty label is allowed
                parse(cell)
        except ValueError:
            kind = "a number" if parse is float else "an integer"
            return f"{path}: row {row_number}: {name} {cell!r} is not {kind}"
