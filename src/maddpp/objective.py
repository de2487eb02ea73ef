"""Accuracy/fairness objective and the lambda grid sweep.

total = (1 - theta) * accuracy_loss + theta * fairness_loss, evaluated for
every lambda on a grid; lambda_star is the grid argmin (ties broken toward
the largest lambda, i.e. toward more fairness).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .densities import (
    DEFAULT_BINS,
    Scores,
    build_density_vector,
    check_bin_count,
    check_size,
    madd,
)
from .errors import (
    InvalidLambda,
    InvalidObjective,
    MissingLabels,
)
from .io import write_columns, write_json
from .transport import FipMap

DEFAULT_THETA = 0.5
DEFAULT_THRESHOLD = 0.5
DEFAULT_GRID_SIZE = 1000
# bound on B * (m + 1), the mixture knots of a block of B lambdas in `sweep`
BLOCK_ELEMENTS = 16384


def default_lambda_grid(size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """Evenly spaced lambda values over [0, 1] inclusive."""
    if size < 1:
        raise InvalidObjective(f"the lambda grid needs at least one point, got {size}")
    check_size(size, "lambda grid points")
    return np.linspace(0.0, 1.0, size)


@dataclass(frozen=True)
class ObjectiveConfig:
    theta: float = DEFAULT_THETA
    threshold: float = DEFAULT_THRESHOLD
    m: int = DEFAULT_BINS
    lambda_grid: np.ndarray = field(default_factory=default_lambda_grid, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lambda_grid", np.asarray(self.lambda_grid, dtype=float))
        g = self.lambda_grid
        if not 0.0 <= self.theta <= 1.0:
            raise InvalidObjective(f"theta must be in [0, 1], got {self.theta}")
        if not 0.0 < self.threshold < 1.0:
            raise InvalidObjective(f"threshold must be in (0, 1), got {self.threshold}")
        check_bin_count(self.m)
        if g.ndim != 1 or g.size == 0 or not np.all(np.diff(g) >= 0):
            raise InvalidObjective("lambda grid must be a sorted, non-empty 1-d array")
        if not (g[0] >= 0.0 and g[-1] <= 1.0):
            raise InvalidLambda(f"lambda grid must lie in [0, 1], got [{g[0]}, {g[-1]}]")


@dataclass(frozen=True)
class SweepResult:
    """Per-lambda losses over the grid plus the selected lambda_star."""

    lambdas: np.ndarray = field(repr=False)
    accuracy_losses: np.ndarray = field(repr=False)
    fairness_losses: np.ndarray = field(repr=False)
    total_losses: np.ndarray = field(repr=False)
    lambda_star: float
    min_total_loss: float
    config: ObjectiveConfig
    repairs: int = 0  # (lambda, group, cut) suffix starts re-found by bisection

    def columns(self) -> list[np.ndarray]:
        return [self.lambdas, self.accuracy_losses, self.fairness_losses, self.total_losses]

    def write_csv(self, path):
        write_columns(path, ["lambda", "accuracy_loss", "fairness_loss", "total_loss"],
                      *self.columns())

    def write_json(self, path):
        """The decision, lambda_star and min_total_loss with the config; every
        row is in `write_csv`'s file."""
        write_json(path, {
            "lambda_star": self.lambda_star,
            "min_total_loss": self.min_total_loss,
            "config": {
                "theta": self.config.theta,
                "threshold": self.config.threshold,
                "m": self.config.m,
                "grid_size": int(self.lambdas.size),
            },
        })


def losses(scores: Scores, config: ObjectiveConfig) -> tuple[float, float]:
    """The accuracy loss, the share of records whose (proba >= threshold)
    differs from the label, and the fairness loss, half the MADD over m bins,
    of a labelled batch as it is: the one per-record evaluation, which `sweep`
    equals at every grid lambda on the remapped batch (`tests/sweep_oracle.py`)."""
    if scores.label is None:
        raise MissingLabels("every record needs a label to score")
    # first: it raises EmptyGroup for a batch of no records, which np.mean would warn on
    fairness = float(0.5 * madd(build_density_vector(scores, config.m)))
    return float(np.mean((scores.proba >= config.threshold) != scores.label)), fairness


def total_loss(acc, fair, theta: float):
    """(1 - theta) * accuracy loss + theta * fairness loss, elementwise on arrays."""
    return (1.0 - theta) * acc + theta * fair


def sweep(scores: Scores, config: ObjectiveConfig) -> SweepResult:
    """Evaluate the objective on every grid lambda and select lambda_star.

    The remap is non-decreasing in a record's quantile under its own
    group's CDF, so once a group is sorted by that quantile, the records
    remapped to at least any cut q form a suffix.  Each group is sorted
    once; a grid point then only finds, per group, where that suffix starts
    for each of the m - 1 interior bin edges and the threshold.  Bin counts
    are differences of those starts and wrong predictions come from label
    counts before the threshold's start.  Ties may sort in any order: each
    start is found from the quantiles' values alone, so it never splits a
    run of equal quantiles, and the label count before it is the same.

    The grid is processed in blocks of lambdas, B at a time with
    B * (m + 1) <= BLOCK_ELEMENTS: a block's mixtures are one (B, m + 1)
    array of knot values (`FipMap.mix_knots`).  Per block and group, one
    `searchsorted` of the sorted quantiles finds every candidate start, and
    one closed-form test checks them all (`_suffix_starts`).  The sweep
    costs O(n log n + G * m * log n) time for n records and G grid points,
    and O(n + BLOCK_ELEMENTS) memory.  Its losses are bit-identical to
    remapping every record at every lambda (`tests/sweep_oracle.py`).
    """
    if scores.label is None:
        raise MissingLabels("every record needs a label to sweep")
    fm = FipMap.from_probas(scores, config.m)
    # per group: its quantiles, sorted, and the number of positive labels
    # before each sorted position
    groups = []
    for g, members, u in fm.groups(scores):
        order = np.argsort(u)
        groups.append((g, u[order], np.concatenate(([0], np.cumsum(scores.label[members[order]])))))
    # the interior bin edges, then the threshold
    cuts = np.append(fm.x[1:-1], config.threshold)

    grid = config.lambda_grid
    acc = np.empty(grid.size)
    fair = np.empty(grid.size)
    repairs = 0
    block = max(1, BLOCK_ELEMENTS // (config.m + 1))
    for lo in range(0, grid.size, block):
        lams = grid[lo:lo + block, None]
        wrong = 0
        proportions = []
        for g, su, ones_before in groups:
            starts, repaired = _suffix_starts(fm.x, fm.mix_knots(g, lams), su, cuts)
            repairs += repaired
            c_t = starts[:, -1]
            # predicted 1 from c_t on: positives before it and negatives after it are wrong
            wrong = wrong + 2 * ones_before[c_t] + (su.size - c_t) - ones_before[-1]
            counts = np.diff(starts[:, :-1], axis=1, prepend=0, append=su.size)
            proportions.append(counts / su.size)
        acc[lo:lo + block] = wrong / len(scores)
        fair[lo:lo + block] = 0.5 * madd(proportions)

    tot = total_loss(acc, fair, config.theta)
    # argmin with ties broken toward the largest lambda
    best = grid.size - 1 - int(np.argmin(tot[::-1]))
    return SweepResult(lambdas=grid, accuracy_losses=acc, fairness_losses=fair,
                       total_losses=tot, lambda_star=float(grid[best]),
                       min_total_loss=float(tot[best]), config=config, repairs=repairs)


def _suffix_starts(x, y, sorted_u, cuts) -> tuple[np.ndarray, int]:
    """For B mixture CDFs with knots (x, y[i]), a (B, cuts.size) array whose
    entry (i, k) is the first index j with remap_i(sorted_u[j]) >= cuts[k],
    or sorted_u.size if there is none; also the number of entries re-found.

    The candidate c is the first quantile above the level mixture_i(cuts[k])
    (`_levels`).  It is right when sorted_u[c - 1] remaps below the cut and
    sorted_u[c] to at least the cut, which `_reaches` checks for every cut.
    Rounding can make a candidate wrong; such entries are re-found by
    bisection over `sorted_u` with the same test.
    """
    n = sorted_u.size
    s = np.searchsorted(x, cuts)  # first knot >= each cut: x[s - 1] < cut <= x[s]
    c = np.searchsorted(sorted_u, _levels(x, y, s, cuts), side="right")
    # sorted_u[c - 1] and sorted_u[c]; a missing one, -inf or +inf, passes
    padded = np.concatenate(([-np.inf], sorted_u, [np.inf]))
    reached = _reaches(padded[np.stack((c, c + 1))], x, y, s, cuts)
    ok = ~reached[0] & reached[1]
    if ok.all():
        return c, 0
    # bisection on the rows with a failed entry; entries that passed start
    # with lo == hi == c and so stay put
    rows = np.flatnonzero(~ok.all(axis=1))
    failed = ~ok[rows]
    y = y[rows]
    lo = np.where(failed, 0, c[rows])
    hi = np.where(failed, n, c[rows])
    while (active := lo < hi).any():
        mid = (lo + hi) // 2
        reached = _reaches(sorted_u[np.minimum(mid, n - 1)], x, y, s, cuts)
        hi = np.where(active & reached, mid, hi)
        lo = np.where(active & ~reached, mid + 1, lo)
    c[rows] = lo
    return c, int(failed.sum())


def _levels(x, y, s, cuts) -> np.ndarray:
    """np.interp(cuts, x, y[i]) for every row i at once, bit for bit, with
    every cut but the last on a knot: y[i, s] for a cut on knot x[s], and
    interp's own formula for a last cut strictly inside segment s."""
    levels = y[:, s]
    k, t = s[-1], cuts[-1]
    if x[k] != t:
        slope = (y[:, k] - y[:, k - 1]) / (x[k] - x[k - 1])
        levels[:, -1] = slope * (t - x[k - 1]) + y[:, k - 1]
    return levels


def _reaches(u, x, y, s, cuts) -> np.ndarray:
    """Whether quantile u[..., i, k] remaps to at least cuts[k] under the
    mixture with knots (x, y[i]): `generalized_inverse(x, y[i], u) >=
    cuts[k]`, read off segment s = s[k] alone, where x[s - 1] < cuts[k] <= x[s].

    The knots rise from y[0] = 0 to y[m] = 1 (rounding can lift only y[m - 1]
    just above 1), so for u <= 1 the first knot j with y[j] >= u exists, and
    u remaps to 0 if j == 0, else to clip(x[j - 1] + (u - y[j - 1]) /
    (y[j] - y[j - 1]) * (x[j] - x[j - 1]), 0, 1).  So for a cut in (0, 1):
    (i) u > y[s]: j > s, and u remaps to x[j - 1] >= x[s] >= cut plus a
        non-negative term;
    (ii) u <= y[s - 1]: j < s, and u remaps to at most x[j] <= x[s - 1] < cut;
    (iii) else j = s, and the value is the expression below; the clip cannot
        change its comparison with the cut.
    u = -inf never reaches a cut and u = +inf always does.
    """
    y_lo, y_hi = y[:, s - 1], y[:, s]
    inside = (u > y_lo) & (u <= y_hi)  # so 0 < u - y_lo <= y_hi - y_lo there
    frac = (u - y_lo) / np.where(inside, y_hi - y_lo, 1.0)
    return (u > y_hi) | (inside & (x[s - 1] + frac * (x[s] - x[s - 1]) >= cuts))
