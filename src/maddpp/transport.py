"""The fitted fip map: piecewise-linear CDFs and the probability remapping.

fip (fairness_improved_prediction) moves each group's predicted
probabilities toward the pooled distribution: a record with probability p
in group g is remapped to inv(mix_g)(cdf_g(p)), where mix_g is the
convex combination (1 - lam) * cdf_g + lam * cdf_pooled.  The CDFs are
fitted once (`FipMap`); only the mixture depends on lam.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .densities import G0, G1, POOLED, Scores, bin_edges, build_density_vector
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
        quantiles under cdf_g, clipped to [0, 1]; a group may have no record."""
        for g in (G0, G1):
            members = np.flatnonzero(scores.group == g)
            u = np.clip(np.interp(scores.proba[members], self.x, self.y[g]), 0.0, 1.0)
            yield g, members, u

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
    [0, 1]; leftmost preimage on flat segments, clamped to [0, 1]."""
    q = np.asarray(u, dtype=float)
    j = np.minimum(y.searchsorted(q, side="left"), x.size - 1)  # first knot with y >= u
    # the segment just before knot j is strictly rising, unless j == 0
    jr = np.maximum(j, 1)
    dy = y[jr] - y[jr - 1]
    frac = np.divide(q - y[jr - 1], dy, out=np.zeros_like(q), where=dy > 0)
    return np.clip(np.where(j > 0, x[jr - 1] + frac * (x[jr] - x[jr - 1]), x[0]), 0.0, 1.0)


def check_lambda(lam: float) -> None:
    """Raise InvalidLambda unless 0 <= lam <= 1."""
    if not 0.0 <= lam <= 1.0:
        raise InvalidLambda(f"lambda must be in [0, 1], got {lam}")


def fip(scores: Scores, lam: float, m: int) -> np.ndarray:
    """Remapped probabilities of a batch of scores, in input order."""
    return FipMap.from_probas(scores, m).remap(scores, lam)
