"""Minimal logistic classifier and dataset handling for flat course CSVs.

The post-processor only needs predicted probabilities, so the trainer is a
small, deterministic Newton solver (iteratively reweighted least squares)
for mean cross-entropy plus an L2 penalty on the weights: zero
initialization, run to the optimum, no external learner.

A course CSV is read into factorized columns: each column's distinct cells
in sorted order, and one integer code per kept row.  `load_dataset` reads a
plain file in numpy, a block of whole lines at a time; `load_rows`, the
`csv.reader` row loop, reads every other file and is the reference the
numpy reader must match.  `encode` converts each distinct cell once.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EmptyPopulation, EncodingError, TrainingDiverged
from .io import blocks, grow, read_csv, resize, windows, write_json

# Known ordinal level orders for the course-data bands; anything else falls
# back to numeric parsing or sorted-unique ranks (recorded in the manifest).
ORDINAL_LEVELS = {
    "age": ["0-35", "35-55", "55<="],
    "highest_education": [
        "No Formal quals",
        "Lower Than A Level",
        "A Level or Equivalent",
        "HE Qualification",
        "Post Graduate Qualification",
    ],
    "poverty": [
        "0-10%", "10-20%", "20-30%", "30-40%", "40-50%",
        "50-60%", "60-70%", "70-80%", "80-90%", "90-100%",
    ],
}


@dataclass
class TabularDataset:
    """Flat feature table with a binary label and a designated sensitive column.

    Each column is factorized: its distinct cells in sorted order, and for
    each kept row the index of its cell among them.
    """

    feature_names: list[str]
    columns: dict[str, tuple[list[str], np.ndarray]]  # feature name -> (cells, codes)
    labels: np.ndarray         # 0 or 1, one per kept row
    sensitive: str
    row_numbers: np.ndarray    # file row of each kept row (1 = first after the header)
    dropped_rows: int          # rows removed for missing values at ingestion

    def sensitive_groups(self) -> np.ndarray:
        """0/1 group tags from the sensitive column (lexicographic order)."""
        levels, codes = self.columns[self.sensitive]
        if len(levels) != 2:
            raise EncodingError(
                f"sensitive column {self.sensitive!r} must be binary, "
                f"found {len(levels)} distinct values")
        return (codes == 1).astype(int)


# rows per slice of `hessian`'s weight block
CHUNK_ROWS = 4096
# the first k bytes of a little-endian word, k = 0..8
_FIRST_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)
_MIX = np.uint64(0x9E3779B97F4A7C15)


def load_dataset(path, sensitive: str, label_column: str = "label") -> TabularDataset:
    """Read a flat course CSV into factorized columns, exactly as `load_rows` would.

    The header is checked before any byte after it is read: it must name
    the label column and the sensitive column (another one), and no name
    twice.  One leading UTF-8 BOM is dropped.  Blank lines are skipped; a
    row shorter than the header or with an empty cell among its first
    len(header) cells is dropped and counted; cells past the header's width
    are ignored.  A row's number counts every line after the header, blank
    ones too.

    A regular file in a UTF-8 locale is read once (`io.read_csv`), in
    binary blocks of whole lines (`_read_blocks`): each plain block is cut
    into rows and factorized column by column.  Any other file, or one
    with a block that is not plain, goes to `load_rows`' row loop from the
    top.
    """
    return _load(path, sensitive, label_column, _read_blocks)


def load_rows(path, sensitive: str, label_column: str = "label") -> TabularDataset:
    """Row-by-row course CSV reader (`csv.reader`): the fallback of
    `load_dataset` and the reference it must match."""
    return _load(path, sensitive, label_column)


def _load(path, sensitive: str, label_column: str, fast=None) -> TabularDataset:
    table = read_csv(path, lambda lines: _check_header(lines, path, sensitive, label_column),
                     _read_rows, fast)
    return _dataset(path, label_column, sensitive, *table)


def _check_header(lines, path, sensitive: str, label_column: str) -> list[str]:
    """The header, csv.reader's first row of `lines` less one leading BOM, if
    it names the label and the sensitive column, each name once."""
    first = next(lines, "")
    header = next(csv.reader(itertools.chain([first.removeprefix("\ufeff")], lines)))
    if label_column not in header:
        raise EncodingError(f"label column {label_column!r} missing from {path}")
    if len(set(header)) != len(header):
        raise EncodingError(f"{path}: repeated column name in header {header}")
    if sensitive not in header or sensitive == label_column:
        raise EncodingError(f"sensitive column {sensitive!r} not in features")
    return header


def _read_rows(fh, header: list[str]):
    """The header, each column's (distinct cells, first seen first; the code
    of each kept row), the kept rows' numbers and the dropped row count of
    the text file `fh`, past its header, read by csv.reader."""
    width = len(header)
    seen = [{} for _ in header]
    codes = [[] for _ in header]
    row_numbers, dropped = [], 0
    for row_number, row in enumerate(csv.reader(fh), 1):
        if len(row) < width or "" in row[:width]:
            if row:  # a blank line is skipped, not counted
                dropped += 1
            continue
        for ids, column, cell in zip(seen, codes, row):
            column.append(ids.setdefault(cell, len(ids)))
        row_numbers.append(row_number)
    return (header, [(list(ids), np.array(c, np.intp)) for ids, c in zip(seen, codes)],
            np.array(row_numbers, np.intp), dropped)


def _read_blocks(raw, header: list[str]):
    """What `_read_rows` returns, read from the binary file `raw`, past its
    header, in `io.blocks`; or None where `_read_rows` must read it: at the
    first block that is not plain, or two distinct cells of a column with
    the same hash."""
    width = len(header)
    seen = [{} for _ in header]
    codes = [np.empty(0, np.intp) for _ in header]
    row_numbers = np.empty(0, np.intp)
    n = dropped = line = 0  # line: the lines before this block
    for block in blocks(raw):
        if block is None:
            return None
        text, starts, ends, buf, rest = block
        nonblank = ends > starts  # a blank line is skipped, not counted
        commas = np.flatnonzero(text == ord(","))
        first = np.searchsorted(commas, starts)  # of each line's commas
        count = np.diff(first, append=commas.size)
        rows = np.flatnonzero(nonblank & (count >= width - 1))
        # cell j of a row lies between bounds j and j + 1: the comma before
        # it, or the byte before the line; the comma after it, or the line end
        f = first[rows]
        cut = np.append(commas, 0)  # f + width - 1 may index past the commas
        bounds = [starts[rows] - 1, *(cut[f + j] for j in range(width - 1)),
                  np.where(count[rows] >= width, cut[f + width - 1], ends[rows])]
        full = np.logical_and.reduce([b - a > 1 for a, b in zip(bounds, bounds[1:])])
        if not full.all():  # a row with an empty cell is dropped
            rows, bounds = rows[full], [b[full] for b in bounds]
        k = rows.size
        grow([row_numbers, *codes], n, k, rest)
        dropped += int(np.count_nonzero(nonblank)) - k
        row_numbers[n:n + k] = line + 1 + rows
        line += starts.size
        if not k:
            continue
        words = windows(buf, "<u8")
        for ids, column, a, b in zip(seen, codes, bounds, bounds[1:]):
            a = a + 1
            distinct = _distinct(words, a, b)
            if distinct is None:
                return None
            rep, inv = distinct
            new = [text[i:j].tobytes() for i, j in zip(a[rep].tolist(), b[rep].tolist())]
            column[n:n + k] = np.array([ids.setdefault(c, len(ids)) for c in new], np.intp)[inv]
        n += k
    resize([row_numbers, *codes], n)
    return (header, [([c.decode() for c in ids], c) for ids, c in zip(seen, codes)],
            row_numbers, dropped)


def _distinct(words: np.ndarray, a: np.ndarray, b: np.ndarray):
    """(a row with each distinct cell, each row's index among those) for the
    nonempty cells text[a:b], with `words` the 8 bytes at each offset of the
    text, or None if two distinct cells have the same hash.

    Up to 8 bytes, a cell's key is its bytes, zero-padded (no cell holds a
    NUL).  If any cell is longer, each cell's key is the sum of its own
    8-byte words, word j times _MIX ** (j + 1) mod 2**64, so that a row costs
    only its own cell's length; each row's words are then checked against
    those of its representative.
    """
    size = b - a
    long = size.max() > 8
    if not long:
        key = _word(words, a, size)
    else:
        count = (size + 7) // 8  # each cell's words
        first = np.cumsum(count) - count
        j = np.arange(first[-1] + count[-1]) - np.repeat(first, count)
        at, left = np.repeat(a, count) + 8 * j, np.repeat(size, count) - 8 * j
        word = _word(words, at, left)
        key = np.add.reduceat(word * np.cumprod(np.full(count.max(), _MIX))[j], first)
    inv = np.unique(key, return_inverse=True)[1]
    rep = np.empty(inv.max() + 1, np.intp)
    rep[inv] = np.arange(inv.size)
    if long:
        twin = rep[inv]
        if ((size[twin] != size).any()
                or (_word(words, at + np.repeat(a[twin] - a, count), left) != word).any()):
            return None
    return rep, inv


def _word(words: np.ndarray, at: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The up to 8 bytes of text[at:at + size] as zero-padded words."""
    return words[at] & _FIRST_BYTES[np.minimum(size, 8)]


def _dataset(path, label_column: str, sensitive: str, header: list[str], columns: list,
             row_numbers: np.ndarray, dropped: int) -> TabularDataset:
    """The dataset of a table read by `_read_rows` or `_read_blocks`."""
    if not row_numbers.size:
        raise EmptyPopulation(f"no usable rows in {path}")
    columns = dict(zip(header, (_sort_cells(*c) for c in columns)))
    levels, codes = columns.pop(label_column)
    bad = np.array([cell not in ("0", "1") for cell in levels])
    if bad.any():
        k = _first(bad, codes)
        raise EncodingError(f"{path}: row {row_numbers[k]}: label must be 0 or 1, "
                            f"got {levels[codes[k]]!r}")
    np.take([int(c) for c in levels], codes, out=codes, mode="clip")  # the labels, in place
    return TabularDataset(feature_names=[c for c in header if c != label_column],
                          columns=columns, labels=codes, sensitive=sensitive,
                          row_numbers=row_numbers, dropped_rows=dropped)


def _sort_cells(cells: list[str], codes: np.ndarray):
    """`cells` sorted, and `codes` renumbered in place to match."""
    order = sorted(range(len(cells)), key=cells.__getitem__)
    rank = np.empty(len(order), np.intp)
    rank[order] = np.arange(len(order))
    np.take(rank, codes, out=codes, mode="clip")  # unbuffered: no temporary of all rows
    return [cells[k] for k in order], codes


def _first(bad: np.ndarray, codes: np.ndarray) -> int:
    """The first row whose code is marked in `bad`, a mask over the cells."""
    return int(np.argmax(bad[codes]))


def _cell_values(name: str, levels: list[str], codes: np.ndarray):
    """The number each distinct cell of a column stands for, and the encoding rule."""
    try:
        return np.array([float(v) for v in levels]), "numeric"
    except ValueError:
        pass
    if name in ORDINAL_LEVELS:
        order = ORDINAL_LEVELS[name]
        unknown = np.array([v not in order for v in levels])
        if unknown.any():
            cell = levels[codes[_first(unknown, codes)]]
            raise EncodingError(f"unknown category in column {name!r}: "
                                f"{cell!r} is not in list")
        return np.array([float(order.index(v)) for v in levels]), "ordinal"
    return np.arange(float(len(levels))), f"categorical{levels}"


def encode(dataset: TabularDataset) -> tuple[np.ndarray, np.ndarray, dict]:
    """Design matrix, labels, and the per-column encoding report.

    Binary and ordinal columns become small integer codes; columns that
    parse as numbers are kept as-is and must be finite.  Each distinct cell
    is converted once, and each row takes its cell's number.  `train`
    standardizes the numeric columns, so their statistics come from the
    training split only.
    """
    X = np.empty((dataset.labels.size, len(dataset.feature_names)))
    rules = {}
    for j, name in enumerate(dataset.feature_names):
        levels, codes = dataset.columns[name]
        values, rules[name] = _cell_values(name, levels, codes)
        bad = ~np.isfinite(values)
        if bad.any():
            k = _first(bad, codes)
            raise EncodingError(f"column {name!r}, row {dataset.row_numbers[k]}: "
                                f"{levels[codes[k]]!r} is not a finite number")
        X[:, j] = values[codes]
    return X, dataset.labels.copy(), rules


@dataclass
class Standardizer:
    """Zero-mean unit-variance scaling with train-split statistics only."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray, columns: np.ndarray, names: list[str]) -> "Standardizer":
        """Scale the features of the boolean mask `columns`; the others pass
        through (mean 0, std 1).

        A scaled column whose mean or std overflows raises EncodingError,
        naming it from `names`, the feature names in column order.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            mean = X.mean(axis=0)
            std = X.std(axis=0)
            bad = np.flatnonzero(columns & ~(np.isfinite(mean) & np.isfinite(std)))
            if bad.size:
                k = int(bad[0])
                raise EncodingError(f"column {names[k]!r}: values too large "
                                    f"to scale (mean {mean[k]}, std {std[k]})")
            std = np.where(std ** 2 < 1e-12, 1.0, std)  # variance floor for constant columns
        return cls(mean=np.where(columns, mean, 0.0), std=np.where(columns, std, 1.0))

    def transform(self, X: np.ndarray) -> np.ndarray:
        scaled = X - self.mean
        scaled /= self.std  # in place: one n x d temporary, not two
        return scaled


def split(n: int, seed: int):
    """Seeded shuffle then a contiguous 70/15/15 partition into train,
    validation and test indices; train takes the rows the rounding leaves."""
    if n == 0:
        raise EmptyPopulation("cannot split an empty dataset")
    perm = np.random.default_rng(seed).permutation(n)
    n_val = n_test = int(0.15 * n)
    n_train = n - n_val - n_test
    return (perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:])


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


@dataclass(frozen=True, eq=False)
class LogisticModel:
    """A fitted model, as `train` returns it: weights on the features, in the
    order of `feature_names`, as `standardizer` scales them."""

    weights: np.ndarray
    bias: float
    feature_names: list[str]
    standardizer: Standardizer
    # how `train` ended (newton_steps, gradient_norm, l2); not saved to model.json
    training: dict

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p = _sigmoid(self.standardizer.transform(X) @ self.weights + self.bias)
        return np.clip(p, 1e-12, 1.0 - 1e-12)

    def save(self, path):
        write_json(path, {
            "feature_names": self.feature_names,
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "standardizer": {
                "mean": self.standardizer.mean.tolist(),
                "std": self.standardizer.std.tolist(),
            },
        })


def gradient(weights: np.ndarray, bias: float, X: np.ndarray, y: np.ndarray,
             l2: float) -> tuple[np.ndarray, float]:
    """Exact gradient of mean binary cross-entropy plus l2 * ||w||^2 with
    respect to (weights, bias); the bias is not penalized."""
    resid = _sigmoid(X @ weights + bias) - y
    return X.T @ resid / X.shape[0] + 2.0 * l2 * weights, float(resid.mean())


def hessian(weights: np.ndarray, bias: float, X: np.ndarray, l2: float) -> np.ndarray:
    """(d+1) x (d+1) Hessian of the same loss in [weights, bias].

    The weight block is summed over CHUNK_ROWS rows at a time and the bias
    row and column are X.T @ s and s.sum(), so no weighted or bias-extended
    copy of all of X is made (one raised the pipeline's peak RSS by ~1.8 MB).
    """
    p = _sigmoid(X @ weights + bias)
    s = p * (1.0 - p) / X.shape[0]
    d = X.shape[1]
    h = np.zeros((d + 1, d + 1))
    for start in range(0, X.shape[0], CHUNK_ROWS):
        rows = X[start:start + CHUNK_ROWS]
        h[:d, :d] += rows.T @ (rows * s[start:start + CHUNK_ROWS, None])
    h[:d, :d] += 2.0 * l2 * np.eye(d)
    h[:d, d] = h[d, :d] = X.T @ s
    h[d, d] = s.sum()
    return h


# From zero, Newton steps converge in ~5 steps on the course data and in ~20
# when the optimum lies far out (one class only, separable data with l2 = 0);
# a run that needs more than this has not converged.
MAX_NEWTON_STEPS = 100


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in a non-finite value
def _newton(X: np.ndarray, y: np.ndarray, l2: float, tol: float):
    """Newton steps from zero until the gradient norm is below `tol`:
    (weights, bias, steps, gradient norm)."""
    w = np.zeros(X.shape[1])
    b = 0.0
    steps = 0
    while True:
        gw, gb = gradient(w, b, X, y, l2)
        norm = float(np.sqrt(gw @ gw + gb * gb))
        if not np.isfinite(norm):
            raise TrainingDiverged(f"training gradient became non-finite after "
                                   f"{steps} Newton steps")
        if norm < tol:
            return w, b, steps, norm
        if steps == MAX_NEWTON_STEPS:
            raise TrainingDiverged(f"no convergence within {MAX_NEWTON_STEPS} Newton "
                                   f"steps (gradient norm {norm:.3g})")
        try:
            step = np.linalg.solve(hessian(w, b, X, l2), np.append(gw, gb))
        except np.linalg.LinAlgError:
            raise TrainingDiverged(f"singular Hessian at Newton step {steps + 1}; "
                                   f"features may be collinear (l2 = {l2})") from None
        if not np.all(np.isfinite(step)):
            raise TrainingDiverged(f"Newton step {steps + 1} became non-finite")
        w = w - step[:-1]
        b = b - float(step[-1])
        steps += 1


def train(X: np.ndarray, y: np.ndarray, rules: dict, l2: float = 1e-4,
          tol: float = 1e-9) -> LogisticModel:
    """The logistic model fitted by Newton steps (IRLS) from zero
    initialization to the optimum; deterministic.

    `rules` is `encode`'s report, one rule per column of X in column order:
    its keys are the feature names, and exactly its "numeric" columns are
    standardized, with statistics from X alone (binary, ordinal and
    categorical codes are left as they are).  Minimizes mean cross-entropy
    plus l2 * ||w||^2 (bias unpenalized).  Each step computes the gradient,
    the Hessian and one (d+1) x (d+1) solve; training stops once the
    gradient norm falls below `tol`, so the returned weights have gradient
    norm < `tol`.  A singular Hessian, a non-finite gradient or step, or no
    convergence within MAX_NEWTON_STEPS raises TrainingDiverged.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    names = list(rules)
    std = Standardizer.fit(X, np.array([rule == "numeric" for rule in rules.values()]), names)
    w, b, steps, norm = _newton(std.transform(X), y, l2, tol)
    return LogisticModel(weights=w, bias=b, feature_names=names, standardizer=std,
                         training={"newton_steps": steps, "gradient_norm": norm, "l2": l2})
