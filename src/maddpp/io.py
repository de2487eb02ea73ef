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
# rows per block of `write_columns`; a block's text is one (rows, width) matrix
BLOCK_ROWS = 16384
_POW5 = 5 ** np.arange(22, dtype=np.uint64)
# "0000" to "9999" as uint32, then again with trailing zeros as padding
_QUAD = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1)
_QUAD = _QUAD.reshape(-1, 4)
_QUADS = np.stack([_QUAD, _QUAD * ~np.logical_and.accumulate(_QUAD[:, ::-1] == 48, 1)[:, ::-1]]
                  ).view(np.uint32).ravel()


def open_input(path):
    """Open a text input for reading; an OS-level failure becomes UnreadableInput."""
    try:
        return open(path, newline="")
    except OSError as exc:
        raise UnreadableInput(f"cannot read {path}: {exc.strerror or exc}") from None


def write_columns(path, header: list[str], *columns: np.ndarray) -> None:
    """Write the header, then a line per row of the 1-d `columns`: the bytes
    `csv.writer` writes for them, floats as `format(x, ".17g")`, integers in
    decimal.  Each block of BLOCK_ROWS rows is one (rows, width) matrix of
    zero-padded ASCII; one compress drops the padding, one write writes it."""
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        for start in range(0, len(columns[0]), BLOCK_ROWS):
            cells = [_text(c[start:start + BLOCK_ROWS]) for c in columns]
            rows = len(cells[0])
            comma = np.full((rows, 1), ord(","), np.uint8)
            crlf = np.broadcast_to(np.frombuffer(b"\r\n", np.uint8), (rows, 2))
            text = np.concatenate([x for c in cells for x in (c, comma)][:-1] + [crlf],
                                  axis=1).ravel()
            fh.write(text[text != 0])


def write_records(scores: Scores, path) -> None:
    """Write `scores` as a records CSV; unlabelled ones without a label column."""
    columns = [scores.proba, scores.group] + ([] if scores.label is None else [scores.label])
    write_columns(path, HEADER[:len(columns)], *columns)


def _text(column: np.ndarray) -> np.ndarray:
    """The cells of `column` as the rows of a zero-padded ASCII matrix: floats
    in [1e-4, 1) and integers 0-9 built in numpy, the rest (0.0, 1.0, -0.0,
    subnormals, ...) by Python's `format`, one at a time."""
    if column.dtype.kind == "f":
        column = column.astype(np.float64, copy=False)
        fast = (column >= 1e-4) & (column < 1.0)
        text, spec = _fraction_text(np.where(fast, column, 0.5)), ".17g"
    else:
        fast = (column >= 0) & (column <= 9)
        text, spec = (np.where(fast, column, 0) + 48).astype(np.uint8)[:, None], "d"
    slow = np.flatnonzero(~fast)
    if slow.size:
        cells = np.array([format(v, spec).encode() for v in column[slow].tolist()])
        cells = cells.view(np.uint8).reshape(slow.size, -1)
        text = np.pad(text, ((0, 0), (0, max(0, cells.shape[1] - text.shape[1]))))
        text[slow] = 0
        text[slow, :cells.shape[1]] = cells
    return text


def _fraction_text(x: np.ndarray) -> np.ndarray:
    """`format(v, ".17g")` for each v in [1e-4, 1) of `x`, as the rows of a
    zero-padded (n, 22) ASCII matrix.

    Python's formatter rounds correctly, so its 17 digits are D, the integer
    nearest v * 10**(16 - e), ties to even, where e is the exponent that puts
    D in [10**16, 10**17).  e = floor(log10 v) may be one off near a power of
    ten, which D out of that range shows.  A D rounded up to 10**17 is 10**16
    at e + 1.  Then v = 0.F, the 20 digits F = D * 10**(e + 4) being written
    four at a time from a table, trailing zeros as padding.
    """
    mant, exp = np.frexp(x)
    m = (mant * 2.0**53).astype(np.uint64)  # x = m * 2**(exp - 53)
    e = np.floor(np.log10(x)).astype(np.int64)
    d, up = _scaled(m, exp, e)
    off = (d >= 10**17).astype(np.int64) - (d < 10**16)
    fix = np.flatnonzero(off)
    e[fix] += off[fix]
    d[fix], up[fix] = _scaled(m[fix], exp[fix], e[fix])
    d = (d + up).astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    d_hi, d_lo = np.divmod(d, 10**8)  # F = hi * 10**8 + lo, each in int64
    hi, lo = np.divmod(d_lo * 10 ** (e + 4), 10**8)
    hi += d_hi * 10 ** (e + 4)
    text = np.empty((len(x), 6), np.uint32)  # 2 unused bytes, "0.", F
    text.view(np.uint8)[:, 2:4] = (ord("0"), ord("."))
    tail = np.full(len(x), 10**4)  # the stripped table while only zeros follow
    quads = [hi // 10**8, hi // 10**4 % 10**4, hi % 10**4, lo // 10**4, lo % 10**4]
    for j in range(5, 0, -1):
        text[:, j] = _QUADS[quads[j - 1] + tail]
        tail *= quads[j - 1] == 0
    return text.view(np.uint8)[:, 2:]


def _scaled(m, exp, e):
    """floor(m * 2**(exp - 53) * 10**(16 - e)) for the 53-bit integers m, and
    whether it rounds up, half to even: the up to 102-bit m * 5**(16 - e),
    shifted right by s = 37 - exp + e, as 64-bit halves from 32-bit limbs."""
    s = (37 - exp + e).astype(np.uint64)
    p = _POW5[16 - e]
    m0, m1, p0, p1 = m & 0xFFFFFFFF, m >> 32, p & 0xFFFFFFFF, p >> 32
    mid = m0 * p1 + m1 * p0
    lo = m0 * p0 + (mid << 32)  # mod 2**64
    hi = m1 * p1 + (mid >> 32) + (lo < m0 * p0)
    q = (hi << (64 - s)) | (lo >> s)
    rest, half = lo & ((1 << s) - 1), np.uint64(1) << (s - 1)
    return q, (rest > half) | ((rest == half) & ((q & 1) == 1))


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
