"""Reference lambda sweep: remap every record at every grid point.

This is the per-record definition of `maddpp.objective.sweep`, kept as the
oracle the fast sweep must match exactly (`==`, no tolerance).  It costs
O(G * n * log m) for a grid of G lambdas and n records.
"""

import numpy as np

from maddpp.densities import Scores, bin_index
from maddpp.errors import MissingLabels
from maddpp.objective import ObjectiveConfig, SweepResult, apply_threshold
from maddpp.transport import FipMap, generalized_inverse, mix


def oracle_sweep(scores: Scores, config: ObjectiveConfig) -> SweepResult:
    if scores.label is None:
        raise MissingLabels("every record needs a label to sweep")
    probas, labels = scores.proba, scores.label
    mask0 = scores.g0_mask()

    base = FipMap.from_probas(probas[mask0], probas[~mask0], config.m)
    # per-record quantile under its own group's CDF, fixed across lambdas
    u = np.empty_like(probas)
    u[mask0] = np.clip(base.cdf_g0(probas[mask0]), 0.0, 1.0)
    u[~mask0] = np.clip(base.cdf_g1(probas[~mask0]), 0.0, 1.0)

    grid = config.lambda_grid
    acc = np.empty(grid.size)
    fair = np.empty(grid.size)
    edges_bins = config.m
    n0 = int(mask0.sum())
    n1 = int((~mask0).sum())

    for i, lam in enumerate(grid.tolist()):
        new_p = np.empty_like(probas)
        new_p[mask0] = generalized_inverse(mix(base.cdf_g0, base.cdf_all, lam), u[mask0])
        new_p[~mask0] = generalized_inverse(mix(base.cdf_g1, base.cdf_all, lam), u[~mask0])
        acc[i] = float(np.mean(apply_threshold(new_p, config.threshold) != labels))
        c0 = np.bincount(bin_index(new_p[mask0], edges_bins), minlength=edges_bins)
        c1 = np.bincount(bin_index(new_p[~mask0], edges_bins), minlength=edges_bins)
        fair[i] = 0.5 * float(np.abs(c0 / n0 - c1 / n1).sum())

    tot = (1.0 - config.theta) * acc + config.theta * fair
    # argmin with ties broken toward the largest lambda
    best = grid.size - 1 - int(np.argmin(tot[::-1]))
    return SweepResult(lambdas=grid, accuracy_losses=acc, fairness_losses=fair,
                       total_losses=tot, lambda_star=float(grid[best]),
                       min_total_loss=float(tot[best]), config=config)
