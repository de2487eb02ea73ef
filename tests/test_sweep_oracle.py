"""The fast sweep against the per-record oracle: exact equality, no tolerance."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maddpp.densities import Scores
import maddpp.objective
from maddpp.objective import (BLOCK_ELEMENTS, ObjectiveConfig, _lower_reaches_cut,
                              default_lambda_grid, sweep)
from maddpp.simulate import SimulationSpec, sample
from maddpp.transport import FipMap, generalized_inverse, mix
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
    assert_identical(sample(SimulationSpec(seed=seed)), config)


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
    res = assert_identical(sample(SimulationSpec(seed=0)), config)
    assert res.repairs == 0


@pytest.mark.parametrize("m", [2, 10, 100, 500])
@pytest.mark.parametrize("t", [0.5, 0.37])
def test_bin_edges_threshold_on_and_off_edge(m, t):
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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sweep_cases())
def test_matches_oracle_on_generated_cases(case):
    assert_identical(*case)


def simulated_with_edges(m):
    """A small simulation plus records on every bin edge, which need repairs."""
    sim = sample(SimulationSpec(n_g0=600, n_g1=400, seed=0))
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
    s = sample(SimulationSpec(n_g0=600, n_g1=400, seed=1))
    mask0 = s.g0_mask()
    base = FipMap.from_probas(s.proba[mask0], s.proba[~mask0], m)
    x = base.cdf_all.knots_x
    assert np.array_equal(np.arange(1, m) / m, x[1:m])
    for cdf in (base.cdf_g0, base.cdf_g1):
        for y in mix(cdf, base.cdf_all, default_lambda_grid(257)[:, None]).knots_y:
            assert np.array_equal(np.interp(x[1:m], x, y), y[1:m])


def binned_probas(counts):
    """counts[k] probabilities at the centre of bin k of len(counts) bins."""
    m = len(counts)
    return np.repeat((np.arange(m) + 0.5) / m, counts)


# a grid plus lambdas where (1 - lam) * y + lam * y rounds away from y;
# (1 - lam) + lam rounds to 1 for every lam in [0, 1], so the last knot stays 1
MIX_LAMBDAS = np.concatenate((default_lambda_grid(101), [0.1, 1 / 3, 0.7, 1 - 2**-40, 2**-40]))


def adversarial_fits():
    """(m, FipMap) pairs with empty bins, and with a last bin left empty
    under group CDF knots that sum above 1.0 before it."""
    rng = np.random.default_rng(11)
    sparse = rng.multinomial(600, rng.dirichlet(np.full(499, 0.3)))
    fits = [(2, [3, 0], [1, 2]), (3, [0, 5, 0], [2, 0, 1]), (3, [1, 1, 1], [0, 0, 4]),
            (5, [4, 2, 3, 1, 0], [0, 1, 0, 0, 2]),
            (500, [*sparse, 0], rng.multinomial(300, np.full(500, 1 / 500)))]
    out = [(m, FipMap.from_probas(binned_probas(c0), binned_probas(c1), m))
           for m, c0, c1 in fits]
    # the cases are there: a knot above 1.0 before an empty last bin, and
    # mixtures of equal knots that round away from them
    assert any(fm.cdf_g0.knots_y[-2] > 1.0 for _, fm in out)
    assert any(((1 - lam) * fm.cdf_g0.knots_y + lam * fm.cdf_g0.knots_y
                != fm.cdf_g0.knots_y).any() for _, fm in out for lam in MIX_LAMBDAS)
    return out


def quantile_sets(y, own):
    """Sorted quantile sets placing lower and upper candidates on the knots
    of stack `y`, one ulp to either side of them, and elsewhere."""
    knots = np.unique(y)
    sets = [knots, np.nextafter(knots, -1.0), np.nextafter(knots, 2.0), own,
            np.random.default_rng(5).random(400)]
    return [np.unique(np.clip(q, 0.0, 1.0)) for q in sets]


@pytest.mark.parametrize("case", range(5))
def test_interior_cut_checks_match_the_generalized_inverse(case):
    # (i)-(iii) of `_suffix_starts`: at an interior cut k/m the upper
    # candidate always remaps to >= k/m, and the closed-form verdict on the
    # lower candidate is `generalized_inverse`'s
    m, fm = adversarial_fits()[case]
    cuts = np.arange(1, m) / m
    reached = 0
    for cdf in (fm.cdf_g0, fm.cdf_g1):
        mixed = mix(cdf, fm.cdf_all, MIX_LAMBDAS[:, None])
        own = np.clip(cdf(binned_probas(np.ones(m, int))), 0.0, 1.0)
        for su in quantile_sets(mixed.knots_y, own):
            n = su.size
            c = np.searchsorted(su, mixed.knots_y[:, 1:-1], side="right")
            upper = generalized_inverse(mixed, su[np.minimum(c, n - 1)])
            assert ((c == n) | (upper >= cuts)).all()
            lower = generalized_inverse(mixed, su[np.maximum(c - 1, 0)])
            expected = (c > 0) & (lower >= cuts)
            assert np.array_equal(_lower_reaches_cut(mixed, su, c), expected)
            reached += expected.sum()
    assert reached > 0  # some lower candidates on knots do reach their cut


def test_sweep_inverts_only_the_threshold_candidates(monkeypatch):
    # with no repair, each block and group makes one `generalized_inverse`
    # call, on the threshold's two candidates per lambda
    sizes = []

    def spy(cdf, u):
        sizes.append(np.size(u))
        return generalized_inverse(cdf, u)

    m = 500
    config = ObjectiveConfig(m=m, lambda_grid=default_lambda_grid(1000))
    monkeypatch.setattr(maddpp.objective, "generalized_inverse", spy)
    res = sweep(sample(SimulationSpec(seed=0)), config)
    assert res.repairs == 0
    b = block_size(m)
    assert len(sizes) == 2 * -(-1000 // b)
    assert max(sizes) <= 2 * b
