"""The simulation's population losses at any lambda (n -> infinity).

The two group densities of `maddpp.simulate` are known in closed form, so
the losses the in-sample sweep must approach have population values.  All
come from the trapezoid rule on a fine grid of [0, 1] (the integration
nodes), with equal group weights (the simulation's default 10k/10k):

- the remap is a given fitted `FipMap` (say one fitted on a sample), or by
  default the `FipMap` on the population bin masses b0 and b1, with pooled
  masses 1/2 (b0 + b1); each group's nodes are remapped through it at
  lambda;
- accuracy loss: a record of probability p is remapped to p' and predicted
  1 iff p' >= t; its label is Bernoulli(p), so it is wrong with
  probability p if p' < t, else 1 - p; the loss is
  1/2 * sum_g integral pdf_g(p) * that dp;
- fairness loss: half the MADD of the remapped bin masses,
  1/2 * sum_k |P0(bin k) - P1(bin k)|, where a group's mass below an edge
  is its cumulative trapezoid integral up to the node remapped to that edge.

At lambda = 0 the population map is the identity and the bin masses are b0
and b1.
"""

from dataclasses import dataclass

import numpy as np

from maddpp.densities import G0, G1, Scores, bin_edges
from maddpp.simulate import pdf_g0, pdf_g1, tabulated_cdf
from maddpp.transport import FipMap

NODES = 200_001


@dataclass(frozen=True)
class PopulationLosses:
    accuracy: float
    fairness: float
    bins_g0: np.ndarray  # each group's remapped probability mass per bin
    bins_g1: np.ndarray

    def total(self, theta: float) -> float:
        return (1.0 - theta) * self.accuracy + theta * self.fairness

    def accuracy_se(self, n: int) -> float:
        """Standard error of the in-sample accuracy loss over n records."""
        return float(np.sqrt(self.accuracy * (1.0 - self.accuracy) / n))

    def fairness_se(self, n0: int, n1: int) -> float:
        """Standard error of the in-sample fairness loss by the delta method
        with the bins' covariances dropped: 1/2 * sqrt(sum_k p0k(1 - p0k)/n0
        + p1k(1 - p1k)/n1).  Those covariances are negative, so this bounds
        the delta-method value (0.0055 at 10k/10k, m = 100) from above."""
        var = ((self.bins_g0 * (1 - self.bins_g0)).sum() / n0
               + (self.bins_g1 * (1 - self.bins_g1)).sum() / n1)
        return float(0.5 * np.sqrt(var))

    def noise_floor(self, n0: int, n1: int) -> float:
        """The expected in-sample fairness loss of two groups of n0 and n1
        records drawn from one distribution with the pooled bin masses p_k:
        1/2 * sum_k E|p0k^ - p1k^| = 1/2 * sum_k sqrt(2/pi * p_k(1 - p_k)
        (1/n0 + 1/n1)), each difference taken as normal."""
        p = 0.5 * (self.bins_g0 + self.bins_g1)
        return float(0.5 * np.sqrt(2 / np.pi * p * (1 - p) * (1 / n0 + 1 / n1)).sum())


def population_losses(lam: float = 0.0, m: int = 100, t: float = 0.5,
                      nodes: int = NODES, fitted: FipMap | None = None) -> PopulationLosses:
    """The n -> infinity losses at `lam` for bin count m and threshold t of
    the map `fitted` on m bins, by default the population's own."""
    if (nodes - 1) % m:
        raise ValueError(f"the bin edges k/{m} are not all among {nodes} nodes")
    xs = np.linspace(0.0, 1.0, nodes)
    pdfs = (pdf_g0(xs), pdf_g1(xs))
    cdfs = [tabulated_cdf(pdf, xs) for pdf in pdfs]
    knots = [cdf[::(nodes - 1) // m] for cdf in cdfs]
    fm = fitted or FipMap(x=bin_edges(m), y=np.array([*knots, 0.5 * (knots[G0] + knots[G1])]))
    remapped = fm.remap(Scores(np.concatenate((xs, xs)), np.repeat([G0, G1], nodes)), lam)
    accuracy, bins = 0.0, []
    for g in (G0, G1):
        new = remapped[g * nodes:(g + 1) * nodes]
        wrong = np.where(new < t, xs, 1.0 - xs)
        accuracy += 0.5 * np.trapezoid(pdfs[g] * wrong, xs)
        below = np.interp(fm.x, new, cdfs[g])  # the remap is non-decreasing in p
        below[0], below[-1] = 0.0, 1.0
        bins.append(np.diff(below))
    return PopulationLosses(accuracy=float(accuracy),
                            fairness=float(0.5 * np.abs(bins[G0] - bins[G1]).sum()),
                            bins_g0=bins[G0], bins_g1=bins[G1])


def population_minimum(theta: float = 0.5, m: int = 100, t: float = 0.5,
                       lambdas=np.linspace(0.0, 1.0, 11)) -> tuple[float, float]:
    """The least population total loss over `lambdas`, and its lambda."""
    totals = [population_losses(lam, m, t).total(theta) for lam in lambdas]
    best = int(np.argmin(totals))
    return float(totals[best]), float(lambdas[best])
