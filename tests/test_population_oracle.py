import numpy as np
import pytest

from maddpp.objective import ObjectiveConfig, sweep
from maddpp.simulate import SimulationSpec, sample
from population_oracle import population_losses

N_G0 = N_G1 = 10_000


@pytest.fixture(scope="module")
def oracle():
    return population_losses(m=100, t=0.5)


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
    result = sweep(sample(SimulationSpec(n_g0=N_G0, n_g1=N_G1, seed=seed)), config)
    accuracy, fairness = result.accuracy_losses[0], result.fairness_losses[0]
    assert abs(accuracy - oracle.accuracy) <= 4 * oracle.accuracy_se(N_G0 + N_G1), accuracy
    assert abs(fairness - oracle.fairness) <= 4 * oracle.fairness_se(N_G0, N_G1), fairness
