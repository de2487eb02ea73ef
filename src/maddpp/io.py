"""Records CSV schema shared by the simulated and real pipelines.

The header is exactly `proba,group,label` or `proba,group`: proba as a
decimal with 17 significant digits (lossless float round trip), group and
label in {0, 1}, so the header alone says whether records are labelled.
`write_records` writes unlabelled scores under `proba,group`.  Both
directions run in numpy, one block at a time, and give exactly what
Python's own `format`, `float()` and `int()` give: the writer from exact
integer arithmetic, the reader from an exact or correctly rounded division
and an exactly known rounding error (`read_records`), with `float()` itself
for the rare tie and for every other cell.  Each row, its label too, is
checked as it is read: the error names the first bad one by its row.

`read_csv` and `blocks` are how both this reader and the course CSV
reader (`model.load_dataset`) read a file: the header line on its own,
then plain blocks of whole lines in numpy, or else a csv.reader row loop.
"""

from __future__ import annotations

import csv
import json
import os
import stat

import numpy as np

from .densities import Scores
from .errors import EmptyPopulation, InvalidProbability, UnreadableInput

HEADER = ["proba", "group", "label"]
# rows per block of `write_columns`, whose text is one (rows, width) matrix
BLOCK_ROWS = 16384
# bytes per block of `blocks`, the reader of both the records and the course CSV
BLOCK_BYTES = 1 << 19
# the bytes a block's buffer holds past its end: `_parse_block` reads 24
# bytes from 2 bytes past a cell's start, which may be the block's last byte
_PAD = 32
# for k digits, three little-endian words of 0xff bytes over the first k
_KEEP = (np.arange(24) < np.arange(21)[:, None]).astype(np.uint8) * np.uint8(0xFF)
_KEEP = _KEEP.view("<u8")
_POW5 = 5 ** np.arange(22, dtype=np.uint64)
_POW10 = 10 ** np.arange(4, dtype=np.uint64)
# "0000" to "9999" as uint32, then again with trailing zeros as padding
_QUAD = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1)
_QUAD = _QUAD.reshape(-1, 4)
_QUADS = np.stack([_QUAD, _QUAD * ~np.logical_and.accumulate(_QUAD[:, ::-1] == 48, 1)[:, ::-1]]
                  ).view(np.uint32).ravel()


class RowLoop(Exception):
    """Only the row reader may read this file: raised by a block reader, caught by `read_csv`."""


def open_input(path):
    """Open a text input for reading as UTF-8, whatever the locale; an
    OS-level failure becomes UnreadableInput."""
    try:
        return open(path, newline="", encoding="utf-8")
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


def write_json(path, obj) -> None:
    """Write `obj` as JSON indented by 2: every JSON file the CLI writes."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)


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
    d += up
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    # F = hi * 10**8 + lo; numpy's `//` by a constant multiplies, its `%` divides
    d_hi = d // 10**8
    scale = _POW10.take(e + 4)
    lo = (d - d_hi * 10**8) * scale
    hi = lo // 10**8
    lo -= hi * 10**8
    hi += d_hi * scale
    text = np.empty((len(x), 6), np.uint32)  # 2 unused bytes, "0.", F
    text.view(np.uint8)[:, 2:4] = (ord("0"), ord("."))
    tail = np.full(len(x), 10**4, np.uint64)  # the stripped table while only zeros follow
    top, mid = hi // 10**8, lo // 10**4
    hi_lo = hi - top * 10**8
    second = hi_lo // 10**4
    quads = [top, second, hi_lo - second * 10**4, mid, lo - mid * 10**4]
    for j in range(5, 0, -1):
        text[:, j] = _QUADS.take((quads[j - 1] + tail).view(np.int64))  # no index cast
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
    low = m0 * p0
    lo = low + (mid << 32)  # mod 2**64
    hi = m1 * p1 + (mid >> 32) + (lo < low)
    q = (hi << (64 - s)) | (lo >> s)
    rest, half = lo & ((1 << s) - 1), np.uint64(1) << (s - 1)
    return q, (rest > half) | ((rest == half) & ((q & 1) == 1))


def read_csv(path, header, rows, fast=None):
    """What the row reader `rows`, or where it can the block reader `fast`
    that gives the same result, makes of the CSV file `path`.

    `header(lines)` takes csv.reader's first row from the file's lines, each
    read through its line end and no further and decoded on its own
    (`_lines`), the first less one leading UTF-8 BOM ("" for an empty file),
    and checks it before any byte after it is read.  `fast(raw, head)` reads
    the rest of a regular file from its binary buffer, in `blocks`.  Where
    it raises RowLoop (caught here and nowhere else), and for a pipe,
    `rows(fh, head)` reads the rest of the text file, from the top again for
    the former.  Every file is decoded as UTF-8 whatever the locale; an
    undecodable byte, or a csv.Error, is an UnreadableInput.
    """
    def lines():
        text = _lines(fh)
        yield next(text, "").removeprefix("\ufeff")
        yield from text

    with open_input(path) as fh:
        try:
            head = header(lines())
            # a pipe cannot be read twice
            if fast is not None and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                try:
                    return fast(fh.buffer, head)
                except RowLoop:
                    fh.seek(0)
                    header(lines())
            return rows(fh, head)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise UnreadableInput(f"cannot read {path}: {exc}") from None


def _lines(fh):
    """The lines of the text file `fh`, which has read nothing yet, each read
    from its binary buffer through its line end (an LF, a CR LF or a lone
    CR, where `open(newline="")` ends a line) and not a byte further, and
    decoded on its own."""
    raw, line = fh.buffer, b""
    while chunk := raw.peek():  # the buffered bytes; a read when there are none
        if line.endswith(b"\r"):  # the line ends here, with the LF if one follows
            yield (line + raw.read(int(chunk[0] == 10))).decode(fh.encoding, fh.errors)
            line = b""
            continue
        ends = [i for i in (chunk.find(b"\n"), chunk.find(b"\r")) if i >= 0]
        line += raw.read(min(ends, default=len(chunk) - 1) + 1)
        if line.endswith(b"\n"):
            yield line.decode(fh.encoding, fh.errors)
            line = b""
    if line:
        yield line.decode(fh.encoding, fh.errors)


def blocks(raw):
    """The rest of the binary file `raw` in blocks of whole lines, about
    BLOCK_BYTES at a time (more for a longer line), while they are plain
    (`_plain`): (text, starts, ends, buf, rest) for each.  Line i of the
    block `text` is text[starts[i]:ends[i]], its line end left out; `buf`
    holds text and _PAD bytes more, unset (for `windows`); `rest` is the
    bytes still to read per byte read.  A last line without its LF gets
    one.  At a block that is not plain, RowLoop is raised."""
    left = os.fstat(raw.fileno()).st_size - raw.tell()  # the bytes to read, as of now
    size, carry, read = BLOCK_BYTES, 0, 0
    buf = np.empty(size + _PAD, np.uint8)
    while True:
        got = raw.readinto(memoryview(buf)[carry:size])
        end = carry + got
        if not got:  # the end of the file; a CR before the LF added here ends a line, as for csv
            if not end:
                return
            buf[end] = 10
            end += 1
        nl = np.flatnonzero(buf[carry:end] == 10) + carry
        if nl.size:
            stop = int(nl[-1]) + 1
            text = buf[:stop]
            starts = np.concatenate(([0], nl[:-1] + 1))
            ends = nl - (text[nl - 1] == 13)  # for an LF at 0, text[-1]: the last LF
            if not _plain(text, starts, ends, nl):
                raise RowLoop
            read += stop
            yield text, starts, ends, buf, max(left - read, 0) / read
            carry = end - stop
            buf[:carry] = buf[stop:end]
        else:
            carry = end
            if end == size:
                size *= 2
                buf = np.concatenate([buf[:end], np.empty(size + _PAD - end, np.uint8)])
        if not got:
            return


def _plain(text, starts, ends, nl) -> bool:
    """Whether csv.reader reads each line text[starts[i]:ends[i]] of `text`,
    whose LFs are at `nl`, as the text between its commas: no quote or NUL,
    no CR but before an LF, valid UTF-8, and no line longer than
    `csv.field_size_limit()`."""
    if text.min() == 0 or (text == ord('"')).any():
        return False
    if np.count_nonzero(text == 13) != np.count_nonzero(ends != nl):  # a lone CR
        return False
    if (ends - starts).max() > csv.field_size_limit():
        return False
    if text.max() >= 128:  # the lines are whole, so no character is cut
        try:
            text.tobytes().decode()
        except UnicodeDecodeError:
            return False
    return True


def windows(buf: np.ndarray, dtype: str) -> np.ndarray:
    """An item of `dtype` at each offset of `buf` that has room for one: the
    items overlap, and a gather of them reads cells in place."""
    return np.ndarray((buf.size - np.dtype(dtype).itemsize + 1,), dtype, buf, strides=(1,))


def grow(arrays: list, n: int, k: int, rest: float) -> None:
    """Room in the 1-d `arrays` for k rows after their first n.  Where they
    lack it, room for the rows of the rest of the file too, at `rest` times
    the rows so far, and for an eighth of k more."""
    if n + k > arrays[0].size:
        resize(arrays, n + k + int((n + k) * rest) + k // 8)


def resize(arrays: list, n: int) -> None:
    """Each of the 1-d `arrays` resized to n rows, in place: they own their
    data, and no view of them is left."""
    for array in arrays:
        array.resize(n, refcheck=False)


def read_records(path) -> Scores:
    """Read a records CSV into `Scores`, exactly as `read_rows` would.

    The file is opened once (`read_csv`).  A regular file is read in binary
    blocks by `_read_columns`, and the row parser reads any file from the
    start where it raises RowLoop.  Either accepts the file or the typed
    error names the bad header, row or cell.

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
    return _read(path, _read_columns)


def read_rows(path) -> Scores:
    """Row-by-row records parser (`csv.reader`, then `float()`/`int()` per
    cell): the fallback of `read_records` and the reference it must match."""
    return _read(path)


def _read(path, fast=None) -> Scores:
    """`Scores` of the records CSV `path`, labelled if its header has a label
    column, whose rows the reader checked as it read them; errors name `path`."""
    proba, group, label = read_csv(path, lambda lines: _width(lines, path),
                                   lambda fh, width: _parse_rows(fh, path, width), fast)
    if not proba.size:
        raise EmptyPopulation(f"{path}: no records")
    return Scores(proba, group, label)


def _width(lines, path) -> int:
    """The number of columns of the header, csv.reader's first row of `lines`."""
    header = next(csv.reader(lines), None)
    if header not in (HEADER, HEADER[:2]):
        raise InvalidProbability(f"{path}: expected header proba,group or proba,group,label, "
                                 f"got {','.join(header or [])!r}")
    return len(header)


def _read_columns(raw, width: int):
    """proba, group and label (None without a label column) of the binary
    file `raw`, past its header, read in `blocks`; RowLoop where the row
    parser must read it: a block that is not plain, a row without one cell
    per column, or a cell that float()/int() rejects or reads out of range."""
    columns = [np.empty(0, t) for t in (np.float64, np.int64, np.int64)[:width]]
    n = 0
    for text, starts, ends, buf, rest in blocks(raw):
        grow(columns, n, starts.size, rest)
        rows = ends > starts  # blank lines are skipped
        _parse_block(text, starts[rows], ends[rows], buf, [c[n:] for c in columns])
        n += int(np.count_nonzero(rows))
    resize(columns, n)
    return columns[0], columns[1], columns[2] if width == 3 else None


def _parse_block(text, starts, ends, buf, columns) -> None:
    """Parse the rows text[starts[i]:ends[i]] into the heads of `columns`;
    RowLoop where `_read_columns` hands the file to the row parser."""
    n, width = starts.size, len(columns)
    commas = np.flatnonzero(text == 44)
    if commas.size != n * (width - 1):
        raise RowLoop
    # the commas counted for each row lie in its line, so each line has width - 1
    commas = commas.reshape(n, width - 1)
    if not ((commas[:, 0] >= starts) & (commas[:, -1] < ends)).all():
        raise RowLoop
    bounds = [starts - 1, *commas.T, ends]  # cell j lies between bounds j and j + 1
    a, b = bounds[0] + 1, bounds[1]
    digits = np.clip(b - a - 2, 0, 20)  # of a cell "0." + digits
    # the bytes after "0." less "0", as three little-endian words, the bytes
    # beyond the cell's digits masked to 0; a digit is a byte d <= 9, which
    # neither d nor d + 6 has a high nibble for (the lowest other byte,
    # which no lower byte borrows from or carries into, has one)
    d = windows(buf, "V24")[a + 2].view("<u8").reshape(n, 3) - 0x3030303030303030
    d &= _KEEP.take(digits, axis=0)
    fast = ((digits > 0) & (digits < 20) & (text[a] == ord("0")) & (text[a + 1] == ord("."))
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
    values = _cells(text, a[slow], b[slow], float)
    if not all(0 <= v <= 1 for v in values):  # NaN too
        raise RowLoop
    columns[0][slow] = values
    for j in range(1, width):
        a, b = bounds[j] + 1, bounds[j + 1]
        value = text[a] - ord("0")
        columns[j][:n] = value
        slow = np.flatnonzero((b - a != 1) | (value > 1))
        values = _cells(text, a[slow], b[slow], int)
        if not set(values) <= {0, 1}:
            raise RowLoop
        columns[j][slow] = values


def _cells(text, starts, ends, parse):
    """`parse` of the text of each cell text[start:end]; RowLoop if one does
    not parse."""
    try:
        return [parse(text[i:j].tobytes().decode())
                for i, j in zip(starts.tolist(), ends.tolist())]
    except ValueError:
        raise RowLoop from None


def _parse_rows(fh, path, width: int):
    """What `_read_columns` returns, read by csv.reader from the text file
    `fh`, past its header, each row checked as it is read: its columns, or
    the error naming the first bad row (`_bad_cell`), in file order."""
    proba, group, label = [], [], []
    for row_number, row in enumerate(csv.reader(fh), 1):
        if len(row) != width:
            if not row:  # a blank line
                continue
            raise InvalidProbability(f"{path}: row {row_number} has {len(row)} "
                                     f"cells, expected {width}")
        try:
            p, g, y = float(row[0]), int(row[1]), int(row[2]) if width == 3 else 0
            ok = 0.0 <= p <= 1.0 and g in (0, 1) and y in (0, 1)  # NaN fails
        except ValueError:
            ok = False
        if not ok:
            raise InvalidProbability(_bad_cell(path, row_number, row))
        proba.append(p)
        group.append(g)
        label.append(y)
    label = np.array(label) if width == 3 else None
    return np.array(proba), np.array(group), label


def _bad_cell(path, row_number: int, row: list) -> str:
    """Name the first cell of `row` that `_parse_rows` refuses, an empty label
    too: one that float()/int() rejects, or a value out of range, as `Scores` words it."""
    for name, parse, cell in zip(HEADER, (float, int, int), row):
        try:
            value = parse(cell)
        except ValueError:
            kind = "a number" if parse is float else "an integer"
            return f"{path}: row {row_number}: {name} {cell!r} is not {kind}"
        if not (0 <= value <= 1 if parse is float else value in (0, 1)):
            bounds = "finite and in [0, 1]" if parse is float else "0 or 1"
            return f"{path}: {name} must be {bounds}; row {row_number} has {value}"
