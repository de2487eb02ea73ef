"""Density vectors of predicted probabilities and the MADD metric.

A density vector is the m-bin histogram (as proportions) of one group's
predicted probabilities over [0, 1].  The MADD (Model Absolute Density
Distance) between two groups is the L1 distance between their density
vectors and lives in [0, 2]: 0 means identically distributed, 2 means
disjoint supports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BinCountMismatch,
    EmptyGroup,
    EmptyPopulation,
    InvalidBinCount,
    InvalidProbability,
    LengthMismatch,
)

DEFAULT_BINS = 100

G0 = 0
G1 = 1


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

    def g0_mask(self) -> np.ndarray:
        """Boolean mask of the group-0 entries; both groups must be present."""
        mask = self.group == G0
        if not mask.any() or mask.all():
            raise EmptyGroup("both groups must be non-empty")
        return mask


@dataclass(frozen=True)
class DensityVector:
    """Histogram proportions over m equal bins of [0, 1], built from n samples."""

    bins: np.ndarray = field(repr=False)
    m: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "bins", np.asarray(self.bins, dtype=float))
        check_bin_count(self.m)
        if len(self.bins) != self.m:
            raise InvalidBinCount(f"expected {self.m} bins, got {len(self.bins)}")
        if np.any(self.bins < 0):
            raise InvalidProbability("bin proportions must be non-negative")
        if self.n > 0 and abs(float(self.bins.sum()) - 1.0) > 1e-9:
            raise InvalidProbability("bin proportions must sum to 1")


def check_bin_count(m: int) -> None:
    """Raise InvalidBinCount unless m >= 2."""
    if m < 2:
        raise InvalidBinCount(f"m must be >= 2, got {m}")


def bin_index(probas, m: int) -> np.ndarray:
    """Assign each probability to its bin: [(k-1)/m, k/m) with the last bin
    right-closed so 1.0 lands in bin m.  Returns 0-based indices."""
    edges = np.arange(m + 1) / m
    idx = np.searchsorted(edges, probas, side="right") - 1
    return np.minimum(idx, m - 1)


def build_density_vector(probas, m: int = DEFAULT_BINS) -> DensityVector:
    """Histogram a sequence of probabilities into a DensityVector.

    Proportions are exact count ratios, so they sum to 1 up to one division
    per bin.
    """
    check_bin_count(m)
    p = np.asarray(probas, dtype=float)
    if p.size == 0:
        raise EmptyPopulation("cannot build a density vector from no samples")
    if not np.all(np.isfinite(p)) or p.min() < 0.0 or p.max() > 1.0:
        raise InvalidProbability("all probabilities must be finite and in [0, 1]")
    counts = np.bincount(bin_index(p, m), minlength=m)
    return DensityVector(bins=counts / p.size, m=m, n=int(p.size))


def pool_density_vectors(d0: DensityVector, d1: DensityVector) -> DensityVector:
    """Pooled vector with weights n0/(n0+n1) and n1/(n0+n1).

    Identical (elementwise, exactly) to histogramming the concatenated
    samples, by the law of total probability at the estimator level.
    """
    if d0.m != d1.m:
        raise BinCountMismatch(f"bin counts differ: {d0.m} vs {d1.m}")
    n = d0.n + d1.n
    if n == 0:
        raise EmptyPopulation("cannot pool two empty density vectors")
    pooled = (d0.n * d0.bins + d1.n * d1.bins) / n
    return DensityVector(bins=pooled, m=d0.m, n=n)


def madd(d0: DensityVector, d1: DensityVector) -> float:
    """Model Absolute Density Distance: sum_k |d0_k - d1_k|, in [0, 2]."""
    if d0.m != d1.m:
        raise BinCountMismatch(f"bin counts differ: {d0.m} vs {d1.m}")
    return float(np.abs(d0.bins - d1.bins).sum())
