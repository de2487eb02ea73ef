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
        object.__setattr__(self, "m", check_bin_count(self.m))
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
    repairs: int = 0  # (lambda, group, bin edge) starts whose candidate was wrong

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

    Each start's candidate is the rank of a level among the group's sorted
    quantiles, read in O(1) off the group's bucket table (`_RankTable`).
    The threshold lies in one segment of the mixtures, so its starts for
    the whole grid lie between the ranks of that segment's two knot values,
    and are bisected there (`_bisect`).  The bin edges are processed in
    blocks of lambdas, B at a time with B * (m + 1) <= BLOCK_ELEMENTS: a
    block's mixtures are one (B, m + 1) array of knot values
    (`FipMap.mix_knots`).  The edges are knots, so their levels are the knot
    values themselves and only candidates within rounding of them need a
    check (`_bin_starts`).  For n records, N < 8n buckets over both
    groups and G grid points, the sweep costs O(n log n + N + G * m) time,
    plus O(log n) per level in a bucket of two or more quantiles, and
    O(n + N + G + BLOCK_ELEMENTS) memory.  Its losses are bit-identical to
    remapping every record at every lambda (`tests/sweep_oracle.py`).
    """
    if scores.label is None:
        raise MissingLabels("every record needs a label to sweep")
    fm = FipMap.from_probas(scores, config.m)
    grid = config.lambda_grid
    k = np.searchsorted(fm.x, config.threshold)  # x[k - 1] < threshold <= x[k]
    # the threshold's segment alone, whose mixtures for the whole grid are
    # small; `mix_knots` works knot by knot, so its values are the full map's
    segment = FipMap(fm.x[k - 1:k + 1], fm.y[:, k - 1:k + 1])
    tables = {}
    wrong = 0
    for g, members, u in fm.groups(scores):
        order = np.argsort(u)
        tables[g] = _RankTable(u[order])
        # the number of positive labels before each sorted position
        ones_before = np.concatenate(([0], np.cumsum(scores.label[members[order]])))
        knots = segment.mix_knots(g, grid[:, None])
        # quantiles at or below the first knot's level never reach the
        # threshold and those above the second's always do (`_reaches`), so
        # each start lies between the two levels' ranks
        bracket = tables[g](knots)
        c_t = _bisect(tables[g].sorted_u, segment.x, knots, np.array([1]),
                      np.array([config.threshold]), bracket[:, :1], bracket[:, 1:])[:, 0]
        # predicted 1 from c_t on: positives before it and negatives after it are wrong
        wrong = wrong + 2 * ones_before[c_t] + (u.size - c_t) - ones_before[-1]
    acc = wrong / len(scores)

    fair = np.empty(grid.size)
    repairs = 0
    block = max(1, BLOCK_ELEMENTS // (config.m + 1))
    for lo in range(0, grid.size, block):
        lams = grid[lo:lo + block, None]
        proportions = []
        for g, ranks in tables.items():
            starts, repaired = _bin_starts(fm.x, fm.mix_knots(g, lams), ranks)
            repairs += repaired
            proportions.append(np.diff(starts) / ranks.sorted_u.size)
        fair[lo:lo + block] = 0.5 * madd(proportions)

    tot = total_loss(acc, fair, config.theta)
    # argmin with ties broken toward the largest lambda
    best = grid.size - 1 - int(np.argmin(tot[::-1]))
    return SweepResult(lambdas=grid, accuracy_losses=acc, fairness_losses=fair,
                       total_losses=tot, lambda_star=float(grid[best]),
                       min_total_loss=float(tot[best]), config=config, repairs=repairs)


class _RankTable:
    """searchsorted(sorted_u, level, side="right"), the number of quantiles at
    or below a level, in O(1) per level, for n quantiles in [0, 1].

    N, the least power of two >= 4n, cuts [0, 1] into buckets [b/N, (b + 1)/N);
    u * N is exact, so u lies in bucket floor(u * N), and table[b] =
    #{u < b/N} is a `bincount` and a `cumsum`.  A level L in bucket b =
    floor(L * N) has rank c in [table[b], table[b + 1]]: table[b] if the
    bucket holds no quantile, one more if it holds one and that one is <= L.
    A level in a bucket of two or more quantiles falls back to
    `np.searchsorted`.  Bucket indices past either end clip to the first or
    the last bucket, so a level below 0 or just above 1 ranks right too.  The
    table holds N + 2 int64, the bucket flags N + 1 bools and the padded
    quantiles n + 2 float64.
    """

    def __init__(self, sorted_u):
        n = sorted_u.size
        self.buckets = N = 1 << (4 * n - 1).bit_length()
        bucket = (sorted_u * N).astype(np.intp)
        # table[b + 1] counts bucket b, then sums in place to table[b] = #{u < b/N}
        table = np.bincount(bucket + 1, minlength=N + 2)
        self.table = np.cumsum(table, out=table)
        self.crowded = None
        # bucket is sorted, so a bucket of two or more quantiles repeats
        shared = bucket[1:][bucket[1:] == bucket[:-1]]
        if shared.size:
            self.crowded = np.zeros(N + 1, dtype=bool)
            self.crowded[shared] = True
        # -inf and +inf around the quantiles: padded[c] and padded[c + 1] are
        # the last at or below a level of rank c and the first above it
        self.padded = np.concatenate(([-np.inf], sorted_u, [np.inf]))
        self.sorted_u = self.padded[1:-1]

    def __call__(self, levels) -> np.ndarray:
        b = (levels * self.buckets).astype(np.intp)
        lo = self.table.take(b, mode="clip")
        c = lo + (self.padded[1:].take(lo) <= levels)
        if self.crowded is not None:
            crowded = self.crowded.take(b, mode="clip")
            if crowded.any():
                c[crowded] = np.searchsorted(self.sorted_u, levels[crowded], side="right")
        return c


def _reach_bound(m: int) -> float:
    """The farthest a lower candidate can lie below an interior level and
    still reach its cut (`_bin_starts`)."""
    return (m + 8) * 2.0**-51


def _bin_starts(x, y, ranks) -> tuple[np.ndarray, int]:
    """For B mixture CDFs with knots (x, y[i]) over m bins, a C-ordered (B,
    m + 1) array whose row i holds 0, then for each interior knot x[s] the
    first index j with remap_i(sorted_u[j]) >= x[s], or n = sorted_u.size
    if there is none, then n: its differences are the bin counts, and
    `madd`'s sums of those depend on memory order.  Also the number of
    starts re-found.

    The candidate c is the rank of the level y[i, s] (`ranks`), the knot
    value at the cut.  It is right when sorted_u[c - 1] remaps below the cut
    and sorted_u[c] to at least the cut (`_reaches`).  sorted_u[c] > y[i, s]
    always reaches it (case (i) of `_reaches`), and u = sorted_u[c - 1] <=
    y[i, s] is checked only when y[i, s] - u <= (m + 8) * 2**-51
    (`_reach_bound`).  Farther below, u cannot reach.  With eps = 2**-53,
    a = y[i, s - 1], d = y[i, s] - a and delta = y[i, s] - u, `_reaches`
    needs a < u (else case (ii)) and frac >= 1/2, where each rounding below
    is exact or to a normal float:
    (1) frac = fl(fl(u - a) / fl(d)) <= (1 - delta/d) (1 + eps)^2 / (1 - eps)
        <= 1 - delta/d + 4 eps;
    (2) h = x[s] - x[s - 1] is exact (Sterbenz, or x[0] = 0), and each knot
        k/m is off by at most eps/2, so h >= 1/m - eps >= (31/32)/m, as
        m < 2**48;
    (3) fl(x[s - 1] + fl(frac * h)) >= x[s] needs x[s - 1] + frac * h (1 + eps)
        >= x[s] - eps x[s], the float below x[s] being at most 2 eps x[s]
        away; so frac >= 1 - eps - eps x[s]/h >= 1 - eps (1 + 32m/31), as
        x[s] <= 1.
    Together, delta <= d eps (5 + 32m/31), and d <= 1 + 2**-4, each knot
    being a sum of proportions that add up to 1, off by fewer than m + 8
    roundings: so delta < (1.1m + 5.4) eps, with a factor of about 4 to
    spare.  A wrong candidate is too high, as sorted_u[c] reaches the
    cut, so its start is bisected in [0, c] (`_bisect`).
    """
    m = x.size - 1
    starts = np.empty((y.shape[0], m + 1), dtype=np.intp)
    starts[:, 0], starts[:, m] = 0, ranks.sorted_u.size
    inner = y[:, 1:-1]  # the levels of the interior knots x[1:-1]
    starts[:, 1:m] = c = ranks(inner)
    near = (inner - ranks.padded.take(c) <= _reach_bound(m)).any(axis=1)
    if not near.any():
        return starts, 0
    s = np.arange(1, m)
    rows = np.flatnonzero(near)
    # a candidate whose lower neighbour reaches its cut is too high
    failed = _reaches(ranks.padded[c[rows]], x, y[rows], s, x[s])
    starts[rows, 1:m] = _bisect(ranks.sorted_u, x, y[rows], s, x[s],
                                np.where(failed, 0, c[rows]), c[rows])
    return starts, int(failed.sum())


def _bisect(sorted_u, x, y, s, cuts, lo, hi) -> np.ndarray:
    """For starts known to lie in [lo, hi], elementwise, the first index j
    in that range whose quantile sorted_u[j] reaches its cut (`_reaches`),
    or hi if none below hi does; j may be n = sorted_u.size."""
    n = sorted_u.size
    while (active := lo < hi).any():
        mid = (lo + hi) // 2
        reached = _reaches(sorted_u[np.minimum(mid, n - 1)], x, y, s, cuts)
        hi = np.where(reached, mid, hi)  # mid == hi where inactive
        lo = np.where(active & ~reached, mid + 1, lo)
    return lo


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
