"""The simulation's population losses at lambda = 0 (n -> infinity).

The two group densities of `maddpp.simulate` are known in closed form, so
the losses of the unremapped probabilities have population values that
the in-sample sweep must approach.  Both come from the trapezoid rule on a
fine grid of [0, 1], with equal group weights (the simulation's default
10k/10k):

- accuracy loss: a record of probability p is predicted 1 iff p >= t and
  its label is Bernoulli(p), so it is wrong with probability p if p < t,
  else 1 - p; the loss is 1/2 * sum_g integral pdf_g(p) * that dp;
- fairness loss: half the MADD of the bin masses,
  1/2 * sum_k |P0(bin k) - P1(bin k)|.
"""

from dataclasses import dataclass

import numpy as np

from maddpp.simulate import SimulationSpec, pdf_g0, pdf_g1, tabulated_cdf

NODES = 200_001


@dataclass(frozen=True)
class PopulationLosses:
    accuracy: float
    fairness: float
    bins_g0: np.ndarray  # each group's probability mass per bin
    bins_g1: np.ndarray

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


def population_losses(m: int = 100, t: float = 0.5, nodes: int = NODES) -> PopulationLosses:
    """The n -> infinity losses at lambda = 0 for bin count m and threshold t."""
    spec = SimulationSpec()
    xs = np.linspace(0.0, 1.0, nodes)
    wrong = np.where(xs < t, xs, 1.0 - xs)
    pdfs = (pdf_g0(xs, spec), pdf_g1(xs, spec))
    accuracy = 0.5 * sum(np.trapezoid(pdf * wrong, xs) for pdf in pdfs)
    if (nodes - 1) % m:
        raise ValueError(f"the bin edges k/{m} are not all among {nodes} nodes")
    edges = np.arange(0, nodes, (nodes - 1) // m)
    bins = [np.diff(tabulated_cdf(pdf, xs)[edges]) for pdf in pdfs]
    return PopulationLosses(accuracy=float(accuracy),
                            fairness=float(0.5 * np.abs(bins[0] - bins[1]).sum()),
                            bins_g0=bins[0], bins_g1=bins[1])
