"""The fast sweep against the per-record oracle: exact equality, no tolerance."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maddpp.densities import Scores
import maddpp.objective
import maddpp.transport
from maddpp.objective import (BLOCK_ELEMENTS, ObjectiveConfig, _levels, _reaches,
                              default_lambda_grid, sweep)
from maddpp.simulate import sample
from maddpp.transport import FipMap, generalized_inverse
from sweep_oracle import oracle_sweep


def assert_identical(records, config):
    fast = sweep(records, config)
    slow = oracle_sweep(records, config)
    assert np.array_equal(fast.accuracy_losses, slow.accuracy_losses)
    assert np.array_equal(fast.fairness_losses, slow.fairness_losses)
    assert np.array_equal(fast.total_losses, slow.total_losses)
    assert fast.lambda_star == slow.lambda_star
    assert fast.min_total_loss == slow.min_total_loss
    return fast


def block_size(m):
    """Lambdas per block of the sweep at m bins."""
    return max(1, BLOCK_ELEMENTS // (m + 1))


def repairs_per_lambda(records, config):
    """The repairs of sweeping each grid lambda alone, in a block of its own."""
    return np.array([sweep(records, replace(config, lambda_grid=[lam])).repairs
                     for lam in config.lambda_grid])


def edge_records(m, extra_g0=()):
    """Both groups with one record on every bin edge k/m, 0.0 and 1.0 included."""
    recs = [(k / m, g, k % 2) for g in (0, 1) for k in range(m + 1)]
    return recs + [(p, 0, 1) for p in extra_g0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_acceptance_seeds(seed):
    config = ObjectiveConfig(theta=0.5, threshold=0.5, m=100,
                             lambda_grid=np.linspace(0, 1, 1000))
    assert_identical(sample(seed=seed), config)


@pytest.mark.parametrize("m", [2, 3, 10])
@pytest.mark.parametrize("t", [0.5, 0.3])
def test_bin_edge_probas_at_lambda_zero_need_repair(m, t):
    # quantiles that sit on CDF knots make the plain searchsorted candidate
    # wrong, so this exercises the bisection that re-finds the suffix start
    recs = edge_records(m, extra_g0=[k / m for k in range(m + 1)])
    res = assert_identical(Scores(*zip(*recs)),
                           ObjectiveConfig(m=m, threshold=t, lambda_grid=[0.0]))
    # one repair per group and per cut on a bin edge: the m - 1 interior
    # edges, and the threshold when it is an edge too
    assert res.repairs == 2 * (m - 1 + (t in np.arange(m + 1) / m))


@pytest.mark.parametrize("t", [0.37, 0.613])
def test_simulation_needs_no_repair(t):
    # no quantile of the smooth simulation sits on a knot, so every
    # candidate, the interpolated threshold's included, is right first time
    config = ObjectiveConfig(m=100, threshold=t, lambda_grid=default_lambda_grid(101))
    res = assert_identical(sample(seed=0), config)
    assert res.repairs == 0


def edge_segment_thresholds(m):
    """Thresholds on and off a knot in the first and last segments of m bins."""
    return {"0.5/m": 0.5 / m, "1/m": 1 / m, "(m-1)/m": (m - 1) / m, "1-0.5/m": 1 - 0.5 / m}


def thresholds(m):
    return [0.5, 0.37, *edge_segment_thresholds(m).values()]


@pytest.mark.parametrize("m", [2, 10, 100, 500])
@pytest.mark.parametrize("t", [0.5, 0.37, *edge_segment_thresholds(1)])
def test_bin_edges_threshold_on_and_off_edge(m, t):
    t = edge_segment_thresholds(m).get(t, t)
    rng = np.random.default_rng(m)
    recs = edge_records(m)
    recs += [(float(k) / m, int(g), int(lbl)) for k, g, lbl in
             zip(rng.integers(0, m + 1, 200), rng.integers(0, 2, 200), rng.integers(0, 2, 200))]
    assert_identical(Scores(*zip(*recs)), ObjectiveConfig(m=m, threshold=t,
                                           lambda_grid=default_lambda_grid(51)))


def test_empty_bins():
    # two clusters on 50 bins: most bins, and so most CDF segments, are flat
    rng = np.random.default_rng(7)
    recs = [(float(p), 0, int(rng.random() < p)) for p in rng.uniform(0.1, 0.12, 80)]
    recs += [(float(p), 1, int(rng.random() < p)) for p in rng.uniform(0.8, 0.84, 60)]
    assert_identical(Scores(*zip(*recs)),
                     ObjectiveConfig(m=50, lambda_grid=default_lambda_grid(101)))


@pytest.mark.parametrize("proba", [0.0, 0.5, 0.73, 1.0])
def test_group_of_size_one(proba):
    rng = np.random.default_rng(3)
    recs = [(proba, 1, 1)]
    recs += [(float(p), 0, int(rng.random() < p)) for p in rng.random(50)]
    assert_identical(Scores(*zip(*recs)),
                     ObjectiveConfig(m=10, lambda_grid=default_lambda_grid(21)))


TIED_PROBAS = np.array([0.05, 0.2, 0.35, 0.5, 0.65, 0.9])


def heavy_ties(n=50_000):
    """n records of both groups on the six TIED_PROBAS, labels drawn at each."""
    rng = np.random.default_rng(0)
    proba = TIED_PROBAS[rng.integers(0, TIED_PROBAS.size, n)]
    return Scores(proba, rng.integers(0, 2, n), (rng.random(n) < proba).astype(int))


@pytest.mark.parametrize("m", [4, 100])
@pytest.mark.parametrize("t", [0.35, 0.6], ids=["on-a-tie", "off-the-ties"])
def test_heavy_ties_in_any_order(m, t):
    # groups of ~25k records on six values: numpy's default argsort reorders
    # ties at that size, and a permutation of the records reorders them again
    records = heavy_ties()
    config = ObjectiveConfig(m=m, threshold=t, lambda_grid=default_lambda_grid(21))
    res = assert_identical(records, config)
    perm = np.random.default_rng(1).permutation(len(records))
    shuffled = sweep(Scores(records.proba[perm], records.group[perm], records.label[perm]),
                     config)
    assert np.array_equal(shuffled.accuracy_losses, res.accuracy_losses)
    assert np.array_equal(shuffled.fairness_losses, res.fairness_losses)
    assert shuffled.repairs == res.repairs


@st.composite
def sweep_cases(draw):
    m = draw(st.integers(2, 500))
    proba = st.one_of(st.integers(0, m).map(lambda k: k / m),
                      st.sampled_from([0.0, 1.0]),
                      st.floats(0.0, 1.0))
    record = st.tuples(proba, st.integers(0, 1))
    recs = Scores(*zip(*[(p, g, lbl)
                         for g in (0, 1)
                         for p, lbl in draw(st.lists(record, min_size=1, max_size=40))]))
    t = draw(st.one_of(st.integers(1, m - 1).map(lambda k: k / m),
                       st.floats(0.01, 0.99)))
    inner = draw(st.lists(st.floats(0.0, 1.0), max_size=6))
    grid = sorted([0.0, 1.0, *inner])
    theta = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return recs, ObjectiveConfig(theta=theta, threshold=t, m=m, lambda_grid=grid)


def upper_candidate_case():
    """A group-0 record one float above the threshold, whose quantile is the
    first above the threshold's level yet remaps below the threshold: the
    threshold's upper candidate fails its check and is re-found."""
    m, t, p = 9, 0.057492, 0.05749200000000001
    probas = np.repeat((np.arange(m) + 0.5) / m, [12, 2, 34, 8, 7, 34, 29, 27, 6])
    probas[0] = p  # still in bin 0, so the CDFs are those of the bin centres
    return (Scores(np.append(probas, 0.5), np.append(np.zeros(probas.size, int), 1),
                   np.append(np.ones(probas.size, int), 0)),
            ObjectiveConfig(m=m, threshold=t, lambda_grid=[0.0, 0.5, 1.0]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sweep_cases())
@example(upper_candidate_case())
def test_matches_oracle_on_generated_cases(case):
    assert_identical(*case)


def simulated_with_edges(m):
    """A small simulation plus records on every bin edge, which need repairs."""
    sim = sample(n_g0=600, n_g1=400, seed=0)
    proba, group, label = zip(*edge_records(m, extra_g0=[k / m for k in range(m + 1)]))
    return Scores(np.concatenate((sim.proba, proba)), np.concatenate((sim.group, group)),
                  np.concatenate((sim.label, label)))


@pytest.mark.parametrize("m", [100, 500])
@pytest.mark.parametrize("blocks", ["one", "B-1", "B", "B+1", "1000"])
def test_grid_sizes_around_the_block_size(m, blocks):
    b = block_size(m)
    size = {"one": 1, "B-1": b - 1, "B": b, "B+1": b + 1, "1000": 1000}[blocks]
    records = simulated_with_edges(m)
    config = ObjectiveConfig(m=m, lambda_grid=default_lambda_grid(size))
    res = assert_identical(records, config)
    assert res.repairs == repairs_per_lambda(records, config).sum() > 0


def test_block_of_a_single_lambda():
    m = BLOCK_ELEMENTS // 2
    assert block_size(m) == 1
    records = simulated_with_edges(m)
    config = ObjectiveConfig(m=m, threshold=0.37, lambda_grid=default_lambda_grid(4))
    assert assert_identical(records, config).repairs == repairs_per_lambda(records, config).sum()


def test_repairs_in_rows_after_the_first_of_a_block():
    m = 100
    b = block_size(m)
    records = Scores(*zip(*edge_records(m, extra_g0=[k / m for k in range(m + 1)])))
    config = ObjectiveConfig(m=m, lambda_grid=np.linspace(0.4, 1.0, 2 * b + 3))
    per_lambda = repairs_per_lambda(records, config)
    row_in_block = np.arange(per_lambda.size) % b
    assert per_lambda[row_in_block > 0].sum() > 0
    assert assert_identical(records, config).repairs == per_lambda.sum()


def test_interior_cuts_are_knots_of_every_mixture():
    # the sweep reads the mixtures' values at the interior cuts k/m off their knots
    m = 100
    fm = FipMap.from_probas(sample(n_g0=600, n_g1=400, seed=1), m)
    x = fm.x
    assert np.array_equal(np.arange(1, m) / m, x[1:m])
    grid = default_lambda_grid(257)
    for g in (0, 1):
        for lam in grid:
            y = fm.mix_knots(g, lam)
            assert np.array_equal(np.interp(x[1:m], x, y), y[1:m])
        # so the sweep's levels, the threshold's among them, are np.interp's, row by row
        y = fm.mix_knots(g, grid[:, None])
        for t in (*thresholds(m), 0.613, 1 / 3):
            cuts = np.append(np.arange(1, m) / m, t)
            levels = _levels(x, y, np.searchsorted(x, cuts), cuts)
            for row, level in zip(y, levels):
                assert np.array_equal(level, np.interp(cuts, x, row))


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


# the sweep's repairs on the adversarial fits' own records, at `thresholds(m)`
ADVERSARIAL_REPAIRS = [3, 17, 4, 10, 727]


@pytest.mark.parametrize("case", range(5))
def test_interior_cut_checks_match_the_generalized_inverse(case):
    # `_reaches` is `generalized_inverse`'s verdict, at every interior cut
    # and at thresholds on and off a knot, the first and last segments
    # included, for the lower and upper candidates of each cut's level
    m, fm, records = adversarial_fits()[case]
    x = fm.x
    # each group's quantiles of one record at the centre of every bin
    centres = binned_probas(np.ones(m, int))
    own = [u for _, _, u in fm.groups(Scores(np.tile(centres, 2), np.repeat([0, 1], m)))]
    reached = 0
    for t in thresholds(m):
        cuts = np.append(np.arange(1, m) / m, t)
        s = np.searchsorted(x, cuts)
        assert (x[s - 1] < cuts).all() and (cuts <= x[s]).all()
        for g in (0, 1):
            for lam in MIX_LAMBDAS:
                y = fm.mix_knots(g, lam)
                for su in quantile_sets(y, own[g]):
                    c = np.searchsorted(su, np.interp(cuts, x, y), side="right")
                    u = su[np.stack((np.maximum(c - 1, 0), np.minimum(c, su.size - 1)))]
                    got = _reaches(u, x, y[None], s, cuts)
                    assert np.array_equal(got, generalized_inverse(x, y, u) >= cuts)
                    reached += got[0].sum()
    assert reached > 0  # some lower candidates on knots do reach their cut
    # the sweep on the records the fit came from
    grid = np.sort(MIX_LAMBDAS)
    repairs = sum(assert_identical(records, ObjectiveConfig(m=m, threshold=t,
                                                            lambda_grid=grid)).repairs
                  for t in thresholds(m))
    assert repairs == ADVERSARIAL_REPAIRS[case]


def test_sweep_makes_no_generalized_inverse_call(monkeypatch):
    # the candidate checks and the bisection's steps are all `_reaches`
    calls = []

    def spy(x, y, u):
        calls.append(np.size(u))
        return generalized_inverse(x, y, u)

    monkeypatch.setattr(maddpp.transport, "generalized_inverse", spy)
    assert not hasattr(maddpp.objective, "generalized_inverse")
    config = ObjectiveConfig(m=500, lambda_grid=default_lambda_grid(1000))
    assert sweep(sample(seed=0), config).repairs == 0
    assert sweep(simulated_with_edges(500), config).repairs > 0  # the bisection runs too
    assert calls == []
    # the spy does see the remap's calls, one per group
    records = Scores([0.2, 0.7, 0.3], [0, 1, 0])
    FipMap.from_probas(records, 500).remap(records, 0.5)
    assert calls == [2, 1]
