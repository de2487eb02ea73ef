import numpy as np
import pytest

from maddpp.densities import Scores
from maddpp.objective import ObjectiveConfig, losses, sweep
from maddpp.simulate import sample
from maddpp.transport import FipMap
from population_oracle import population_losses, population_minimum

N_G0 = N_G1 = 10_000
THETA = 0.5


@pytest.fixture(scope="module")
def oracle():
    return population_losses(m=100, t=0.5)


@pytest.fixture(scope="module")
def minimum():
    return population_minimum(theta=THETA, m=100, t=0.5)


def test_oracle_values(oracle):
    assert oracle.accuracy == pytest.approx(0.35893, abs=1e-5)
    assert oracle.fairness == pytest.approx(0.59750, abs=1e-5)
    assert oracle.bins_g0.sum() == pytest.approx(1.0) and oracle.bins_g1.sum() == pytest.approx(1.0)
    # criterion 1's targets lie within one standard error of the oracle
    assert abs(0.361 - oracle.accuracy) <= oracle.accuracy_se(N_G0 + N_G1)
    assert abs(0.598 - oracle.fairness) <= oracle.fairness_se(N_G0, N_G1)


@pytest.mark.parametrize("seed", range(6))
def test_lambda_zero_losses_approach_the_oracle(oracle, seed):
    # the in-sample losses of the unremapped probabilities are within four
    # standard errors of their population values
    config = ObjectiveConfig(theta=0.5, threshold=0.5, m=100, lambda_grid=np.array([0.0]))
    result = sweep(sample(N_G0, N_G1, seed=seed), config)
    accuracy, fairness = result.accuracy_losses[0], result.fairness_losses[0]
    assert abs(accuracy - oracle.accuracy) <= 4 * oracle.accuracy_se(N_G0 + N_G1), accuracy
    assert abs(fairness - oracle.fairness) <= 4 * oracle.fairness_se(N_G0, N_G1), fairness


@pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
def test_fairness_falls_as_one_minus_lambda(oracle, lam):
    # at the bin edges the remapped CDFs are the mixtures, so the fairness
    # is (1 - lam) times its lambda = 0 value, up to the densities' shape
    # inside each bin
    remapped = population_losses(lam, m=100, t=0.5)
    assert remapped.fairness == pytest.approx((1 - lam) * oracle.fairness, abs=1e-3)
    assert remapped.bins_g0.sum() == pytest.approx(1.0)
    assert remapped.bins_g1.sum() == pytest.approx(1.0)


def test_oracle_near_and_at_full_repair(minimum):
    assert population_losses(0.9, m=100, t=0.5).fairness == pytest.approx(0.0601, abs=2e-4)
    full = population_losses(1.0, m=100, t=0.5)
    assert full.accuracy == pytest.approx(0.3862, abs=1e-4)
    assert full.fairness == pytest.approx(0.0040, abs=1e-4)
    total, lam = minimum
    assert total == pytest.approx(0.195, abs=1e-3) and lam == 1.0
    assert total == pytest.approx(full.total(THETA))


@pytest.mark.parametrize("seed", range(3))
def test_in_sample_minimum_converges_to_the_oracle(minimum, seed):
    # the sweep's in-sample minimum approaches the population minimum as the
    # sample grows; the remap leaves each group's in-sample fairness no
    # further from its population value than two samples of one
    # distribution lie apart, so the gap is at most theta * the noise floor
    config = ObjectiveConfig(theta=THETA, threshold=0.5, m=100)
    full = population_losses(minimum[1], m=100, t=0.5)
    gaps = {}
    for n in (10_000, 100_000):
        gaps[n] = sweep(sample(n, n, seed=seed), config).min_total_loss - minimum[0]
        assert abs(gaps[n]) <= THETA * full.noise_floor(n, n), (n, gaps[n])
    assert abs(gaps[100_000]) < abs(gaps[10_000]), gaps


@pytest.mark.parametrize("seed", range(4))
def test_held_out_ledger(minimum, seed):
    # from the population minimum to criterion 1's 0.226: the map fitted on
    # 10k/10k records, at the lambda* of its own sweep, loses at most theta *
    # the noise floor more than the minimum on the population, and a held-out
    # 10k/10k test set scores within theta * the floor of that (seeds 0-3:
    # 0.2099-0.2114 on the population, 0.2206-0.2245 held out)
    config = ObjectiveConfig(theta=THETA, threshold=0.5, m=100)
    fit, test = sample(N_G0, N_G1, seed), sample(N_G0, N_G1, seed + 100)
    lam = sweep(fit, config).lambda_star
    fitted = FipMap.from_probas(fit, 100)
    population = population_losses(lam, m=100, t=0.5, fitted=fitted).total(THETA)
    # theta * floor(n) = 0.0246 at n_fit = n_test = 10k/10k
    floor = THETA * population_losses(minimum[1], m=100, t=0.5).noise_floor(N_G0, N_G1)
    assert minimum[0] <= population <= minimum[0] + floor, population
    accuracy, fairness = losses(Scores(fitted.remap(test, lam), test.group, test.label), config)
    held_out = (1.0 - THETA) * accuracy + THETA * fairness
    assert abs(held_out - population) <= floor, held_out
