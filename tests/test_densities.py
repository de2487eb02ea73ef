import numpy as np
import pytest

from maddpp.densities import (
    DensityVector,
    Scores,
    build_density_vector,
    madd,
    pool_density_vectors,
)
from maddpp.errors import (
    BinCountMismatch,
    EmptyGroup,
    EmptyPopulation,
    InvalidBinCount,
    InvalidProbability,
    LengthMismatch,
)


def brute_force_bins(probas, m):
    """Independent oracle: literal interval membership per bin."""
    counts = [0] * m
    for p in probas:
        for k in range(1, m + 1):
            lo, hi = (k - 1) / m, k / m
            if (lo <= p < hi) or (k == m and lo <= p <= 1.0):
                counts[k - 1] += 1
                break
    return [c / len(probas) for c in counts]


class TestBuildDensityVector:
    def test_hand_count_two_bins(self):
        d = build_density_vector([0.1, 0.2, 0.9], m=2)
        np.testing.assert_allclose(d.bins, [2 / 3, 1 / 3])

    def test_right_closed_last_bin(self):
        d = build_density_vector([1.0], m=4)
        np.testing.assert_allclose(d.bins, [0, 0, 0, 1])

    def test_edge_values_one_per_bin(self):
        probas = [0.0, 0.25, 0.5, 0.75]
        oracle = brute_force_bins(probas, 4)
        assert oracle == [0.25, 0.25, 0.25, 0.25]
        d = build_density_vector(probas, m=4)
        np.testing.assert_allclose(d.bins, oracle)

    def test_matches_oracle_on_random_input(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            probas = rng.random(rng.integers(1, 40))
            m = int(rng.integers(2, 12))
            np.testing.assert_allclose(build_density_vector(probas, m).bins,
                                       brute_force_bins(probas, m))

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = build_density_vector(rng.random(rng.integers(1, 500)), m=100)
            assert abs(d.bins.sum() - 1.0) <= 1e-9

    def test_empty_input(self):
        with pytest.raises(EmptyPopulation):
            build_density_vector([], m=4)

    def test_invalid_probability(self):
        with pytest.raises(InvalidProbability):
            build_density_vector([0.5, 1.2], m=4)
        with pytest.raises(InvalidProbability):
            build_density_vector([float("nan")], m=4)

    def test_invalid_bin_count(self):
        with pytest.raises(InvalidBinCount):
            build_density_vector([0.5], m=1)


class TestPooling:
    def test_equal_weight_mixture(self):
        d0 = DensityVector(bins=[1, 0], m=2, n=10)
        d1 = DensityVector(bins=[0, 1], m=2, n=10)
        np.testing.assert_allclose(pool_density_vectors(d0, d1).bins, [0.5, 0.5])

    def test_weight_arithmetic(self):
        d0 = DensityVector(bins=[1, 0], m=2, n=30)
        d1 = DensityVector(bins=[0, 1], m=2, n=10)
        np.testing.assert_allclose(pool_density_vectors(d0, d1).bins, [0.75, 0.25])

    def test_equal_vectors_fixed_point(self):
        d = DensityVector(bins=[0.4, 0.6], m=2, n=17)
        np.testing.assert_allclose(pool_density_vectors(d, d).bins, [0.4, 0.6])

    def test_equals_concatenated_histogram(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = rng.random(rng.integers(1, 60))
            b = rng.random(rng.integers(1, 60))
            m = int(rng.integers(2, 20))
            pooled = pool_density_vectors(build_density_vector(a, m),
                                          build_density_vector(b, m))
            direct = build_density_vector(np.concatenate([a, b]), m)
            np.testing.assert_allclose(pooled.bins, direct.bins, atol=1e-12)
            assert pooled.n == direct.n

    def test_mismatched_m(self):
        with pytest.raises(BinCountMismatch):
            pool_density_vectors(DensityVector(bins=[1, 0], m=2, n=1),
                                 DensityVector(bins=[1, 0, 0], m=3, n=1))

    def test_both_empty(self):
        d = DensityVector(bins=[0, 0], m=2, n=0)
        with pytest.raises(EmptyPopulation):
            pool_density_vectors(d, d)


class TestMadd:
    def test_identical_is_zero(self):
        d = build_density_vector([0.1, 0.4, 0.9], m=5)
        assert madd(d, d) == 0.0

    def test_disjoint_supports_is_two(self):
        d0 = DensityVector(bins=[0.5, 0.5, 0, 0], m=4, n=2)
        d1 = DensityVector(bins=[0, 0, 0.5, 0.5], m=4, n=2)
        assert madd(d0, d1) == pytest.approx(2.0)

    def test_hand_sum(self):
        d0 = DensityVector(bins=[0.6, 0.4], m=2, n=5)
        d1 = DensityVector(bins=[0.4, 0.6], m=2, n=5)
        assert madd(d0, d1) == pytest.approx(0.4)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = int(rng.integers(2, 30))
            a = rng.random(m)
            b = rng.random(m)
            d0 = DensityVector(bins=a / a.sum(), m=m, n=1)
            d1 = DensityVector(bins=b / b.sum(), m=m, n=1)
            v = madd(d0, d1)
            assert v == madd(d1, d0)
            assert 0.0 <= v <= 2.0

    def test_mismatched_m(self):
        with pytest.raises(BinCountMismatch):
            madd(DensityVector(bins=[1, 0], m=2, n=1),
                 DensityVector(bins=[1, 0, 0], m=3, n=1))


class TestScores:
    def test_rejects_out_of_range_proba(self):
        with pytest.raises(InvalidProbability):
            Scores(proba=[1.5], group=[0])

    def test_rejects_bad_group(self):
        with pytest.raises(InvalidProbability):
            Scores(proba=[0.5], group=[2])

    def test_label_optional(self):
        assert Scores(proba=[0.5], group=[1]).label is None
        assert Scores(proba=[0.5], group=[1], label=[1]).label.tolist() == [1]

    @pytest.mark.parametrize("kwargs, error", [
        ({"proba": [0.5, 0.5], "group": [0]}, LengthMismatch),
        ({"proba": [0.5], "group": [0], "label": [1, 0]}, LengthMismatch),
        ({"proba": [[0.5]], "group": [[0]]}, LengthMismatch),
        ({"proba": [float("nan")], "group": [0]}, InvalidProbability),
        ({"proba": [-0.1], "group": [0]}, InvalidProbability),
        ({"proba": [0.5], "group": [0], "label": [2]}, InvalidProbability),
    ])
    def test_typed_errors(self, kwargs, error):
        with pytest.raises(error):
            Scores(**kwargs)

    def test_g0_mask_needs_both_groups(self):
        assert Scores([0.1, 0.2, 0.3], [0, 1, 0]).g0_mask().tolist() == [True, False, True]
        with pytest.raises(EmptyGroup):
            Scores([0.1, 0.2], [1, 1]).g0_mask()
