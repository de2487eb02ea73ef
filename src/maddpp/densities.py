"""Density vectors of predicted probabilities and the MADD metric.

A density vector is the m-bin histogram (as proportions) of predicted
probabilities over [0, 1].  `build_density_vector` turns a batch into one
(3, m) array: the density vectors of group 0 and group 1 and the pooled one,
in rows G0, G1 and POOLED.  The MADD (Model Absolute Density Distance) is
the L1 distance between the two groups' rows and lives in [0, 2]: 0 means
identically distributed, 2 means disjoint supports.  The fairness loss is
half of it.  A probability's bin (`knot_index`), the remap's inverse and
the lambda sweep's starts are each found as `np.searchsorted` finds them,
in O(1) per value, by one checked bucket-table search (`SortedSearch`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGroup, InvalidBinCount, InvalidProbability, LengthMismatch, OutOfMemory

DEFAULT_BINS = 100

G0 = 0
G1 = 1
POOLED = 2  # the row of the pooled proportions in `build_density_vector`'s array
# the least bin count, grid size or group size refused: no array that large
# fits in memory, and numpy raises OverflowError or ValueError for some
SIZE_LIMIT = 2**48


@dataclass(frozen=True, eq=False)
class Scores:
    """Students' predicted success probabilities, group tags and labels (None
    when unlabelled) as equal-length 1-d arrays, validated once, here."""

    proba: np.ndarray
    group: np.ndarray
    label: np.ndarray | None = None

    def __post_init__(self):
        columns = {"proba": np.asarray(self.proba, dtype=float),
                   "group": np.asarray(self.group)}
        if self.label is not None:
            columns["label"] = np.asarray(self.label)
        for name, a in columns.items():
            if a.ndim != 1 or a.size != columns["proba"].size:
                raise LengthMismatch("proba, group and label must be 1-d arrays of one length")
            if name == "proba":
                ok, bounds = np.isfinite(a) & (a >= 0.0) & (a <= 1.0), "finite and in [0, 1]"
            else:
                ok, bounds = (a == 0) | (a == 1), "0 or 1"
            if not ok.all():
                i = int(np.argmin(ok))
                raise InvalidProbability(f"{name} must be {bounds}; row {i + 1} has {a[i]}")
            object.__setattr__(self, name, a if name == "proba" else a.astype(int, copy=False))

    def __len__(self) -> int:
        return self.proba.size


def check_size(n: int, what: str) -> None:
    """Raise OutOfMemory if `n`, a count of `what`, is SIZE_LIMIT or more."""
    if n >= SIZE_LIMIT:
        raise OutOfMemory(f"cannot allocate {n} {what}: the limit is 2**48 - 1")


def check_bin_count(m: int) -> int:
    """m as a Python int; raise InvalidBinCount unless m is an integer >= 2,
    and OutOfMemory if m is too large."""
    try:
        m = operator.index(m)
    except TypeError:
        raise InvalidBinCount(f"m must be an integer, got {m!r}") from None
    if m < 2:
        raise InvalidBinCount(f"m must be >= 2, got {m}")
    check_size(m, "bins")
    return m


def bin_edges(m: int) -> np.ndarray:
    """The m + 1 bin edges k/m: the histograms' and the fitted remap's knots."""
    return np.arange(m + 1) / m


class SortedSearch:
    """np.searchsorted(a, v, side) in O(1) per value v, for a sorted `a` in
    [0, 1] (its last value may round just above 1).

    N, the least power of two >= `buckets`, cuts [0, 1] into buckets; v * N
    is exact, so v lies in bucket b = floor(v * N), and table[b] = #{a <
    b/N} is a `bincount` and a `cumsum`.  Every a before table[b] is below v
    and every a from table[b + 1] on is above it, so the candidate c =
    table[b] + (a[table[b]] passes v) is wrong only if the next value, a[c],
    passes v too ("passes": a < v for side="left", a <= v for "right"), and
    only those values fall back to `np.searchsorted`.  Indices past either
    end clip, so a value below 0 or above 1 is found too.  The table holds
    N + 2 int64 and `padded`, `a` between -inf and +inf, n + 2 float64.
    """

    def __init__(self, a, buckets: int):
        self.buckets = N = 1 << (buckets - 1).bit_length()
        # table[b + 1] counts bucket b, then sums in place to table[b] = #{a < b/N}
        table = np.bincount((a * N).astype(np.intp) + 1, minlength=N + 2)
        self.table = np.cumsum(table, out=table)
        self.padded = np.concatenate(([-np.inf], a, [np.inf]))
        self.values = self.padded[1:-1]

    def __call__(self, v, side: str) -> np.ndarray:
        passes = np.less if side == "left" else np.less_equal
        c = self.table.take((v * self.buckets).astype(np.intp), mode="clip")
        c += passes(self.padded[1:].take(c), v)
        wrong = passes(self.padded[1:].take(c), v)
        if wrong.any():
            c[wrong] = np.searchsorted(self.values, v[wrong], side=side)
        return c


def knot_index(probas, m: int) -> np.ndarray:
    """The last knot k/m at or below each probability in [0, 1]: k in [0, m],
    `searchsorted(bin_edges(m), probas, side="right") - 1`, in O(1) each off
    4 min(m + 1, n) buckets for n probabilities (`SortedSearch`)."""
    probas = np.asarray(probas, dtype=float)
    return SortedSearch(bin_edges(m), 4 * min(m + 1, probas.size))(probas, side="right") - 1


def bin_index(probas, m: int) -> np.ndarray:
    """Assign each probability to its bin: [(k-1)/m, k/m) with the last bin
    right-closed so 1.0 lands in bin m.  Returns 0-based indices."""
    return np.minimum(knot_index(probas, m), m - 1)


def build_density_vector(scores: Scores, m: int = DEFAULT_BINS) -> np.ndarray:
    """The m-bin histograms of a batch, as a (3, m) array of proportions:
    row G0 and row G1 are each group's counts over its size, row POOLED
    the pooled proportions (n0 * bins[G0] + n1 * bins[G1]) / n (not
    (c0 + c1) / n, which differs in the last bits and so would move the
    fitted remap).

    The one place a batch becomes histograms; its probabilities were
    validated by `Scores`.
    """
    check_bin_count(m)
    counts = np.bincount(scores.group * m + bin_index(scores.proba, m),
                         minlength=2 * m).reshape(2, m)
    n = counts.sum(axis=1)
    if not n.all():
        raise EmptyGroup("both groups must be non-empty")
    bins = np.empty((3, m))
    bins[:POOLED] = counts / n[:, None]
    bins[POOLED] = (n[G0] * bins[G0] + n[G1] * bins[G1]) / n.sum()
    return bins


def madd(bins):
    """Model Absolute Density Distance, sum_k |bins[G0]_k - bins[G1]_k|, in
    [0, 2]; one distance per row for two (B, m) arrays of proportions."""
    return np.abs(bins[G0] - bins[G1]).sum(axis=-1)
