"""Reference lambda sweep: remap every record at every grid point.

This is the per-record definition of `maddpp.objective.sweep`, kept as the
oracle the fast sweep must match exactly (`==`, no tolerance): every record
remapped by `FipMap.remap` at each grid lambda, then scored by
`maddpp.objective.losses`, the one evaluation of a batch as it is.  It costs
O(G * n * log m) for a grid of G lambdas and n records.

`threshold_crossings` counts the records the remap carries across a
threshold from the fitted map's levels there alone, without remapping.
"""

import numpy as np

from maddpp.densities import G0, G1, Scores
from maddpp.errors import MissingLabels
from maddpp.objective import ObjectiveConfig, SweepResult, losses
from maddpp.transport import FipMap


def oracle_sweep(scores: Scores, config: ObjectiveConfig) -> SweepResult:
    if scores.label is None:
        raise MissingLabels("every record needs a label to sweep")
    fm = FipMap.from_probas(scores, config.m)
    grid = config.lambda_grid
    acc = np.empty(grid.size)
    fair = np.empty(grid.size)
    for i, lam in enumerate(grid.tolist()):
        acc[i], fair[i] = losses(Scores(fm.remap(scores, lam), scores.group, scores.label),
                                 config)

    tot = (1.0 - config.theta) * acc + config.theta * fair
    # argmin with ties broken toward the largest lambda
    best = grid.size - 1 - int(np.argmin(tot[::-1]))
    return SweepResult(lambdas=grid, accuracy_losses=acc, fairness_losses=fair,
                       total_losses=tot, lambda_star=float(grid[best]),
                       min_total_loss=float(tot[best]), config=config)


def threshold_crossings(scores: Scores, lam: float, m: int, t: float) -> dict:
    """For each group g, (up, down): how many records of g the remap at `lam`
    carries up across t (p < t <= p') and how many down.

    A record maps to p' = inv(mix_g)(u), u = cdf_g(p).  Off the levels
    cdf_g(t) and mix_g(t), p >= t iff u > cdf_g(t) and p' >= t iff
    u > mix_g(t), so exactly the records whose quantile lies between the two
    levels cross, all one way: down if mix_g(t) > cdf_g(t), else up.
    """
    fm = FipMap.from_probas(scores, m)
    crossings = {}
    for g in (G0, G1):
        level = np.interp(t, fm.x, fm.y[g])
        mixed = np.interp(t, fm.x, fm.mix_knots(g, lam))
        u = np.interp(scores.proba[scores.group == g], fm.x, fm.y[g])
        between = int(np.count_nonzero((u > min(level, mixed)) & (u < max(level, mixed))))
        crossings[g] = (between, 0) if mixed < level else (0, between)
    return crossings
