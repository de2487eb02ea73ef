"""The fast sweep against the per-record oracle: exact equality, no tolerance."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maddpp.densities import Scores
from maddpp.objective import BLOCK_ELEMENTS, ObjectiveConfig, default_lambda_grid, sweep
from maddpp.simulate import SimulationSpec, sample
from maddpp.transport import FipMap, mix
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
