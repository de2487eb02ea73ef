"""Reference lambda sweep: remap every record at every grid point.

This is the per-record definition of `maddpp.objective.sweep`, kept as the
oracle the fast sweep must match exactly (`==`, no tolerance): every record
remapped by `FipMap.remap` at each grid lambda, then scored by
`maddpp.objective.losses`, the one evaluation of a batch as it is.  It costs
O(G * n * log m) for a grid of G lambdas and n records.
"""

import numpy as np

from maddpp.densities import Scores
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
