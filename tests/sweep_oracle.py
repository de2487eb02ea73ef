"""Reference lambda sweep: remap every record at every grid point.

This is the per-record definition of `maddpp.objective.sweep`, kept as the
oracle the fast sweep must match exactly (`==`, no tolerance): every record
remapped by `FipMap.remap` at each grid lambda, then scored by
`maddpp.objective.losses`, the one evaluation of a batch as it is.  It costs
O(G * n * log m) for a grid of G lambdas and n records.

`threshold_crossings` counts the records the remap carries across a
threshold from the fitted map's levels there alone, without remapping.
`searchsorted_inverse` is the generalized inverse by binary search over the
knots, the definition `maddpp.transport.generalized_inverse` must match;
`adversarial_fits` and `quantile_sets` are fits and quantiles where rounding
decides a knot search.
"""

import numpy as np

from maddpp.densities import G0, G1, Scores
from maddpp.errors import MissingLabels
from maddpp.objective import ObjectiveConfig, SweepResult, default_lambda_grid, losses
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


def searchsorted_inverse(x, y, u) -> np.ndarray:
    """inf{t : CDF(t) >= u} for the CDF with knots (x, y): the first knot j
    with y[j] >= u by binary search, then the point of segment j at u,
    leftmost on a flat one, clamped to [0, 1]."""
    q = np.asarray(u, dtype=float)
    j = np.minimum(y.searchsorted(q, side="left"), x.size - 1)  # first knot with y >= u
    jr = np.maximum(j, 1)
    dy = y[jr] - y[jr - 1]
    frac = np.divide(q - y[jr - 1], dy, out=np.zeros_like(q), where=dy > 0)
    return np.clip(np.where(j > 0, x[jr - 1] + frac * (x[jr] - x[jr - 1]), x[0]), 0.0, 1.0)


def binned_probas(counts):
    """counts[k] probabilities at the centre of bin k of len(counts) bins."""
    m = len(counts)
    return np.repeat((np.arange(m) + 0.5) / m, counts)


# a grid plus lambdas where (1 - lam) * y + lam * y rounds away from y;
# (1 - lam) + lam rounds to 1 for every lam in [0, 1], so the last knot stays 1
MIX_LAMBDAS = np.concatenate((default_lambda_grid(101), [0.1, 1 / 3, 0.7, 1 - 2**-40, 2**-40]))


def adversarial_fits():
    """(m, FipMap, records) triples with empty bins, and with a last bin left
    empty under group CDF knots that sum above 1.0 before it; the FipMap is
    fitted on the records."""
    rng = np.random.default_rng(11)
    sparse = rng.multinomial(600, rng.dirichlet(np.full(499, 0.3)))
    fits = [(2, [3, 0], [1, 2]), (3, [0, 5, 0], [2, 0, 1]), (3, [1, 1, 1], [0, 0, 4]),
            (5, [4, 2, 3, 1, 0], [0, 1, 0, 0, 2]),
            (500, [*sparse, 0], rng.multinomial(300, np.full(500, 1 / 500)))]
    out = []
    for m, c0, c1 in fits:
        p0, p1 = binned_probas(c0), binned_probas(c1)
        records = Scores(np.concatenate((p0, p1)), np.repeat([0, 1], [p0.size, p1.size]),
                         np.arange(p0.size + p1.size) % 2)
        out.append((m, FipMap.from_probas(records, m), records))
    # the cases are there: a knot above 1.0 before an empty last bin, and
    # mixtures of equal knots that round away from them
    assert any(fm.y[0, -2] > 1.0 for _, fm, _ in out)
    assert any(((1 - lam) * fm.y[0] + lam * fm.y[0] != fm.y[0]).any()
               for _, fm, _ in out for lam in MIX_LAMBDAS)
    return out


def quantile_sets(y, own):
    """Sorted quantile sets placing lower and upper candidates on the knots
    `y`, one ulp to either side of them, and elsewhere."""
    knots = np.unique(y)
    sets = [knots, np.nextafter(knots, -1.0), np.nextafter(knots, 2.0), own,
            np.random.default_rng(5).random(400)]
    return [np.unique(np.clip(q, 0.0, 1.0)) for q in sets]
