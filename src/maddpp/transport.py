"""The fitted fip map: piecewise-linear CDFs and the probability remapping.

fip (fairness_improved_prediction) moves each group's predicted
probabilities toward the pooled distribution: a record with probability p
in group g is remapped to inv(mix_g)(cdf_g(p)), where mix_g is the
convex combination (1 - lam) * cdf_g + lam * cdf_pooled.  The CDFs are
fitted once (`FipMap`); only the mixture depends on lam.  Both steps cost
O(1) per record, each off one checked search (`densities.SortedSearch`):
cdf_g(p) is read off p's knot (`FipMap.groups`), and the inverse's segment
off the mixture's knot levels (`generalized_inverse`).  Each is bit for
bit the np.interp and searchsorted result it replaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .densities import (G0, G1, POOLED, Scores, SortedSearch, bin_edges, build_density_vector,
                        knot_index)
from .errors import InvalidLambda


@dataclass(frozen=True)
class FipMap:
    """The fitted remap, for any lambda: three CDFs on [0, 1], linear between
    the shared knots x = k/m, with knot values y[G0], y[G1] and y[POOLED]."""

    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)

    @classmethod
    def from_probas(cls, scores: Scores, m: int) -> "FipMap":
        """Fit the CDFs of both groups of `scores` and of the pooled scores,
        knot k holding the exact cumulative mass of the first k of m bins;
        the fit needs both groups, a remap does not."""
        bins = build_density_vector(scores, m)
        y = np.concatenate((np.zeros((3, 1)), np.cumsum(bins, axis=1)), axis=1)
        y[:, -1] = 1.0  # exact, each cumsum is 1 up to rounding
        return cls(x=bin_edges(m), y=y)

    def groups(self, scores: Scores):
        """For each group g of a batch: g, the indices of its records and their
        quantiles under cdf_g, clipped to [0, 1]; a group may have no record.

        A quantile is `np.interp(p, x, y[g])`, bit for bit: with k the last
        knot at or below p (`knot_index`, a `SortedSearch` over x), it is
        slope_k * (p - x[k]) + y[g, k], the slope (y[g, k + 1] - y[g, k]) /
        (x[k + 1] - x[k]), np.interp's own formula.  On a knot, p - x[k] = 0
        gives y[g, k]; the slope past the last knot, for p = 1, is 0."""
        m = self.x.size - 1
        slope = np.zeros(m + 1)
        for g in (G0, G1):
            members = np.flatnonzero(scores.group == g)
            p = scores.proba[members]
            k = knot_index(p, m)
            slope[:m] = np.diff(self.y[g]) / np.diff(self.x)
            u = slope.take(k) * (p - self.x.take(k)) + self.y[g].take(k)
            yield g, members, np.clip(u, 0.0, 1.0, out=u)

    def mix_knots(self, group: int, lam):
        """Knot values of (1 - lam) * cdf_group + lam * cdf_pooled; a column of
        B lambdas, shape (B, 1), gives one row of knot values per lambda."""
        return (1.0 - lam) * self.y[group] + lam * self.y[POOLED]

    def remap(self, scores: Scores, lam: float) -> np.ndarray:
        """The new probabilities of a batch at `lam`, in input order."""
        check_lambda(lam)
        out = np.empty_like(scores.proba)
        for g, members, u in self.groups(scores):
            out[members] = generalized_inverse(self.x, self.mix_knots(g, lam), u)
        return out


def generalized_inverse(x, y, u) -> np.ndarray:
    """inf{t : CDF(t) >= u} for the CDF with knots (x, y) and quantiles u in
    [0, 1]; leftmost preimage on flat segments, clamped to [0, 1].

    Each u is inverted on segment j, the first of the m = x.size - 1 rising
    knots y[:m] with y[j] >= u (m if none), found off 4 min(m + 1, n)
    buckets for n quantiles (`SortedSearch`); segment ends and rises are
    per-knot arrays, so every u gets the same float expression.
    """
    q = np.asarray(u, dtype=float).reshape(-1)
    m = x.size - 1
    j = SortedSearch(y[:m], 4 * min(m + 1, q.size))(q, side="left")
    # segment j runs from (xs[j], ys[j]) to (x[j], y[j]), with xs[0] = x[0], ys[0] = 0
    xs, ys = np.concatenate((x[:1], x)), np.concatenate(([0.0], y))
    rise = np.diff(ys)
    rise[rise <= 0] = np.inf  # a flat segment's frac is 0, its left end; j = 0 has width 0
    t = xs.take(j) + (q - ys.take(j)) / rise.take(j) * np.diff(xs).take(j)
    return np.clip(t, 0.0, 1.0, out=t).reshape(np.shape(u))


def check_lambda(lam: float) -> None:
    """Raise InvalidLambda unless 0 <= lam <= 1."""
    if not 0.0 <= lam <= 1.0:
        raise InvalidLambda(f"lambda must be in [0, 1], got {lam}")


def fip(scores: Scores, lam: float, m: int) -> np.ndarray:
    """Remapped probabilities of a batch of scores, in input order."""
    return FipMap.from_probas(scores, m).remap(scores, lam)
