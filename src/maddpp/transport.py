"""Piecewise-linear CDFs and the fip probability remapping.

fip (fairness_improved_prediction) moves each group's predicted
probabilities toward the pooled distribution: a record with probability p
in group g is remapped to inv(mix_g)(cdf_g(p)), where mix_g is the
convex combination (1 - lam) * cdf_g + lam * cdf_pooled.  The CDFs are
fitted once (`FipMap`); only the mixture depends on lam.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .densities import (DensityVector, G0, G1, Scores, build_density_vector,
                        pool_density_vectors)
from .errors import (EmptyGroup, InvalidLambda, InvalidProbability, InvalidQuantile,
                     LengthMismatch)


@dataclass(frozen=True)
class PiecewiseLinearCdf:
    """Monotone CDF on [0, 1], linear between bin-edge knots."""

    knots_x: np.ndarray = field(repr=False)
    knots_y: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "knots_x", np.asarray(self.knots_x, dtype=float))
        object.__setattr__(self, "knots_y", np.asarray(self.knots_y, dtype=float))
        x, y = self.knots_x, self.knots_y
        if x.ndim != 1 or y.shape != x.shape or x.size < 2:
            raise LengthMismatch("a CDF needs 1-d knots_x and knots_y, one y per x "
                                 "and at least 2 knots")
        if not (abs(y[0]) <= 1e-9 and abs(y[-1] - 1.0) <= 1e-9):
            raise InvalidProbability(f"a CDF must run from 0 to 1, got {y[0]} to {y[-1]}")
        if not np.all(np.diff(y) >= -1e-12):
            raise InvalidProbability("a CDF must be non-decreasing")

    def __call__(self, x):
        return np.interp(x, self.knots_x, self.knots_y)


def build_cdf(d: DensityVector) -> PiecewiseLinearCdf:
    """CDF with knot k holding the exact cumulative mass of the first k bins."""
    y = np.concatenate([[0.0], np.cumsum(d.bins)])
    y[-1] = 1.0  # exact, the cumsum is 1 up to rounding
    x = np.arange(d.m + 1) / d.m
    return PiecewiseLinearCdf(knots_x=x, knots_y=y)


def generalized_inverse(cdf: PiecewiseLinearCdf, u) -> np.ndarray | float:
    """inf{x : CDF(x) >= u}; leftmost preimage on flat segments, clamped to [0, 1]."""
    q = np.asarray(u, dtype=float)
    if np.any(q < 0) or np.any(q > 1) or not np.all(np.isfinite(q)):
        raise InvalidQuantile(f"quantile must be in [0, 1], got {u!r}")
    x, y = cdf.knots_x, cdf.knots_y
    j = np.minimum(y.searchsorted(q, side="left"), x.size - 1)  # first knot with y >= u
    # the segment just before knot j is strictly rising, unless j == 0
    jr = np.maximum(j, 1)
    dy = y[jr] - y[jr - 1]
    frac = np.divide(q - y[jr - 1], dy, out=np.zeros_like(q), where=dy > 0)
    out = np.clip(np.where(j > 0, x[jr - 1] + frac * (x[jr] - x[jr - 1]), x[0]), 0.0, 1.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class FipMap:
    """The fitted remap: both group CDFs and the pooled CDF, for any lambda."""

    cdf_g0: PiecewiseLinearCdf
    cdf_g1: PiecewiseLinearCdf
    cdf_all: PiecewiseLinearCdf

    @classmethod
    def from_probas(cls, probas_g0, probas_g1, m: int) -> "FipMap":
        if len(probas_g0) == 0 or len(probas_g1) == 0:
            raise EmptyGroup("both groups must be non-empty")
        d0 = build_density_vector(probas_g0, m)
        d1 = build_density_vector(probas_g1, m)
        pooled = pool_density_vectors(d0, d1)
        return cls(cdf_g0=build_cdf(d0), cdf_g1=build_cdf(d1), cdf_all=build_cdf(pooled))

    def remap(self, probas, group: int, lam: float) -> np.ndarray:
        """New probabilities for records of one group at `lam`, order preserved."""
        check_lambda(lam)
        cdf = self.cdf_g0 if group == G0 else self.cdf_g1
        u = cdf(np.asarray(probas, dtype=float))
        u = np.clip(u, 0.0, 1.0)
        return np.atleast_1d(generalized_inverse(mix(cdf, self.cdf_all, lam), u))


def check_lambda(lam: float) -> None:
    """Raise InvalidLambda unless 0 <= lam <= 1."""
    if not 0.0 <= lam <= 1.0:
        raise InvalidLambda(f"lambda must be in [0, 1], got {lam}")


def mix_knots(cdf_group: PiecewiseLinearCdf, cdf_all: PiecewiseLinearCdf, lam):
    """Knot values of (1 - lam) * cdf_group + lam * cdf_all; a column of B
    lambdas, shape (B, 1), gives one row of knot values per lambda."""
    return (1.0 - lam) * cdf_group.knots_y + lam * cdf_all.knots_y


def mix(cdf_group: PiecewiseLinearCdf, cdf_all: PiecewiseLinearCdf, lam) -> PiecewiseLinearCdf:
    """The mixture CDF (1 - lam) * cdf_group + lam * cdf_all, over their shared knots."""
    return PiecewiseLinearCdf(cdf_group.knots_x, mix_knots(cdf_group, cdf_all, lam))


def fip(scores: Scores, lam: float, m: int) -> np.ndarray:
    """Remapped probabilities of a batch of scores, in input order."""
    mask0 = scores.g0_mask()
    probas = scores.proba
    fm = FipMap.from_probas(probas[mask0], probas[~mask0], m)
    out = np.empty_like(probas)
    out[mask0] = fm.remap(probas[mask0], G0, lam)
    out[~mask0] = fm.remap(probas[~mask0], G1, lam)
    return out
