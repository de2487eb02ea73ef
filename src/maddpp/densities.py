"""Density vectors of predicted probabilities and the MADD metric.

A density vector is the m-bin histogram (as proportions) of predicted
probabilities over [0, 1].  `build_density_vector` turns a batch into one
(3, m) array: the density vectors of group 0 and group 1 and the pooled one,
in rows G0, G1 and POOLED.  The MADD (Model Absolute Density Distance) is
the L1 distance between the two groups' rows and lives in [0, 2]: 0 means
identically distributed, 2 means disjoint supports.  The fairness loss is
half of it.
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
                exc = InvalidProbability(f"{name} must be {bounds}; row {i + 1} has {a[i]}")
                exc.row = i + 1  # a reader renumbers it as its input's row
                raise exc
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


def bin_index(probas, m: int) -> np.ndarray:
    """Assign each probability to its bin: [(k-1)/m, k/m) with the last bin
    right-closed so 1.0 lands in bin m.  Returns 0-based indices."""
    idx = np.searchsorted(bin_edges(m), probas, side="right") - 1
    return np.minimum(idx, m - 1)


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
