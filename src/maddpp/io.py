"""Records CSV schema shared by the simulated and real pipelines.

The header is exactly `proba,group,label` or `proba,group`: proba as a
decimal with 17 significant digits (lossless float round trip), group in
{0, 1}, label in {0, 1} or empty when absent.  A file with any empty label
cell reads as unlabelled.  `write_records` writes unlabelled scores under
`proba,group`.  Both directions run in numpy, one block at a time, and give
exactly what Python's own `format`, `float()` and `int()` give: the writer
from exact integer arithmetic, the reader from an exact or correctly
rounded division and an exactly known rounding error (`read_records`),
with `float()` itself for the rare tie and for every other cell.
"""

from __future__ import annotations

import bisect
import csv

import numpy as np

from .densities import Scores
from .errors import EmptyPopulation, InvalidProbability, MissingLabels, UnreadableInput

HEADER = ["proba", "group", "label"]
# rows per block of `write_columns`, whose text is one (rows, width) matrix;
# `read_records` reads blocks of BLOCK_ROWS * 16 bytes
BLOCK_ROWS = 16384
_HEADERS = {",".join(HEADER[:width]).encode(): width for width in (2, 3)}
# for k digits, three little-endian words of 0xff bytes over the first k
_KEEP = (np.arange(24) < np.arange(21)[:, None]).astype(np.uint8) * np.uint8(0xFF)
_KEEP = _KEEP.view("<u8")
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

    The file is opened once.  A regular file is read in binary blocks by
    `_read_columns`; the row parser reads anything that returns None from
    the start, and accepts it or raises the typed error naming the bad
    header, row or cell.  It also re-reads a file whose values fail `Scores`
    validation, since only it knows where the blank lines were that the
    error's row number counts.

    A proba cell `0.` + k digits (1 <= k <= 19) is the integer S of its
    digits zero-padded to 19, over 10**19 = 5**19 * 2**19.  float() gives
    S / 10**19 correctly rounded, which is round(S / 5**19) * 2**-19, as
    scaling by a power of two commutes with rounding here.  With
    Q, R = divmod(S, 5**19), Q < 2**19 and R, 5**19 < 2**53 are exact
    doubles, so r = R / 5**19 is correctly rounded, and s = Q + r rounds
    once more, its error known exactly by Fast2Sum (Q >= r).  For Q = 0,
    s = r.  For Q >= 1, every rounding midpoint at or above 1 is a multiple
    of 2**-53, hence of ulp(r), and so is Q + r, while S / 5**19 lies within
    ulp(r) / 2 of Q + r: unless Q + r is itself a midpoint (a tie, which
    goes to float()), both round to the same double s.
    """
    import os
    import stat

    with open_input(path) as fh:
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # a pipe cannot be read twice
            columns = _read_columns(fh)
            if columns is not None:
                try:
                    return _scores(path, *columns, require_labels)
                except InvalidProbability:
                    pass
            fh.seek(0)
        return _parse_rows(fh, path, require_labels)


def _read_columns(fh):
    """proba, group and label (None without a label column) of the text file
    `fh`, read in blocks of about BLOCK_ROWS rows from its binary buffer, or
    None where the row parser must read it: a locale encoding other than
    UTF-8, a header that is not exactly one of the two, no rows, a quote, a
    CR not followed by LF, a row without one cell per column, a cell that
    float()/int() rejects, a group or label other than 0 or 1 (an empty
    label too), bytes that do not decode, a line longer than a block or
    than `csv.field_size_limit()`, or more rows than were counted."""
    import codecs

    if codecs.lookup(fh.encoding).name != "utf-8":
        return None
    raw, size = fh.buffer, BLOCK_ROWS * 16
    buf = np.zeros(size + 32, np.uint8)  # the tail pads the digit windows
    view = memoryview(buf)
    lines = 0  # a bound on the rows, so that each column is allocated once
    while got := raw.readinto(view[:size]):
        lines += np.count_nonzero(buf[:got] == 10)
    raw.seek(0)
    columns, n, carry = [], 0, 0
    while True:
        got = raw.readinto(view[carry:size])
        end = carry + got
        if not got:  # the end of the file; a last line without its LF counts
            if not end:
                break
            buf[end] = 10  # a CR before it ends a line, as for csv
            end += 1
        nl = np.flatnonzero(buf[:end] == 10)
        if not nl.size:
            if end == size:  # a line longer than a block
                return None
            carry = end
            continue
        lo = 0
        if not columns:  # the header line
            width = _HEADERS.get(buf[:nl[0]].tobytes().removesuffix(b"\r"))
            if width is None:
                return None
            columns = [np.empty(lines, t) for t in (np.float64, np.int64, np.int64)[:width]]
            lo, nl = nl[0] + 1, nl[1:]
        if nl.size:
            rows = _parse_block(buf, lo, nl, [c[n:] for c in columns])
            if rows is None:
                return None
            n, lo = n + rows, nl[-1] + 1
        carry = end - lo
        buf[:carry] = buf[lo:end]
        if not got:
            break
    if not n:
        return None
    return columns[0][:n], columns[1][:n], columns[2][:n] if width == 3 else None


def _parse_block(buf, lo, nl, columns):
    """Parse the lines of buf[lo:nl[-1] + 1], whose LFs are at `nl`, into the
    heads of `columns`: the number of rows, or None as `_read_columns`."""
    width = len(columns)
    text = buf[lo:nl[-1] + 1]
    if (text == 34).any():  # a quote
        return None
    crlf = buf[nl - 1] == 13  # for an LF at 0, buf[-1]: padding, never written
    if np.count_nonzero(text == 13) != np.count_nonzero(crlf):  # a lone CR
        return None
    starts = np.concatenate(([lo], nl[:-1] + 1))
    ends = nl - crlf
    rows = ends > starts  # blank lines are skipped
    starts, ends = starts[rows], ends[rows]
    n = starts.size
    commas = np.flatnonzero(text == 44) + lo
    if commas.size != n * (width - 1):
        return None
    if n > columns[0].size:  # more rows than LFs were counted: the file grew
        return None
    if not n:
        return 0
    # the commas counted for each row lie in its line, so each line has width - 1
    commas = commas.reshape(n, width - 1)
    if not ((commas[:, 0] >= starts) & (commas[:, -1] < ends)).all():
        return None
    if (ends - starts).max() > csv.field_size_limit():
        return None
    bounds = [starts - 1, *commas.T, ends]  # cell j lies between bounds j and j + 1
    a, b = bounds[0] + 1, bounds[1]
    digits = np.clip(b - a - 2, 0, 20)  # of a cell "0." + digits
    # the bytes after "0." less "0", as three little-endian words, the bytes
    # beyond the cell's digits masked to 0; a digit is a byte d <= 9, which
    # neither d nor d + 6 has a high nibble for (the lowest other byte,
    # which no lower byte borrows from or carries into, has one)
    d = _bytes(buf, 24)[a + 2].view("<u8").reshape(n, 3) - 0x3030303030303030
    d &= _KEEP.take(digits, axis=0)
    fast = ((digits > 0) & (digits < 20) & (buf[a] == ord("0")) & (buf[a + 1] == ord("."))
            & ((d | d + 0x0606060606060606) & 0xF0F0F0F0F0F0F0F0 == 0).all(1))
    # S, the digits zero-padded to 19, eight per word: pairs, quads, octets
    d = d * (10 << 8 | 1) >> 8 & 0x00FF00FF00FF00FF
    d = d * (100 << 16 | 1) >> 16 & 0x0000FFFF0000FFFF
    d = d * (10000 << 32 | 1) >> 32
    q, r = np.divmod(d[:, 0] * 10**11 + d[:, 1] * 10**3 + d[:, 2] // 10**5, 5**19)
    r = r / 5.0**19
    s = q + r
    err = r - (s - q)  # Fast2Sum: s + err == q + r exactly
    tie = (err != 0) & ((s + 2 * err) - s == 2 * err)  # s + 2 * err is a double
    columns[0][:n] = s * 2.0**-19
    slow = np.flatnonzero(~fast | tie)
    values = _cells(buf, a[slow], b[slow], float)
    if values is None:
        return None
    columns[0][slow] = values
    for j in range(1, width):
        a, b = bounds[j] + 1, bounds[j + 1]
        value = buf[a] - ord("0")
        columns[j][:n] = value
        slow = np.flatnonzero((b - a != 1) | (value > 1))
        values = _cells(buf, a[slow], b[slow], int)
        if values is None or not set(values) <= {0, 1}:
            return None
        columns[j][slow] = values
    return n


def _bytes(buf, size):
    """The `size` bytes from each offset of `buf`, as one void item each."""
    return np.ndarray((buf.size - size + 1,), f"V{size}", buf, strides=(1,))


def _cells(buf, starts, ends, parse):
    """`parse` of the text of each cell buf[start:end], or None if one does
    not decode or parse (a UnicodeDecodeError is a ValueError)."""
    try:
        return [parse(buf[i:j].tobytes().decode())
                for i, j in zip(starts.tolist(), ends.tolist())]
    except ValueError:
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
