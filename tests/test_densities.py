import numpy as np
import pytest

from maddpp.densities import G0, G1, POOLED, Scores, bin_index, build_density_vector, madd
from maddpp.errors import (
    EmptyGroup,
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


def batch(probas0, probas1):
    """Scores of group 0's probabilities followed by group 1's."""
    return Scores(np.concatenate((probas0, probas1)),
                  np.repeat([G0, G1], [len(probas0), len(probas1)]))


class TestBuildDensityVector:
    def test_hand_count_two_bins(self):
        bins = build_density_vector(batch([0.1, 0.2, 0.9], [0.7]), m=2)
        assert bins.shape == (3, 2)
        np.testing.assert_allclose(bins[G0], [2 / 3, 1 / 3])
        np.testing.assert_allclose(bins[G1], [0, 1])
        np.testing.assert_allclose(bins[POOLED], [0.5, 0.5])

    def test_right_closed_last_bin(self):
        bins = build_density_vector(batch([1.0], [0.0]), m=4)
        np.testing.assert_allclose(bins[G0], [0, 0, 0, 1])
        np.testing.assert_allclose(bins[G1], [1, 0, 0, 0])

    def test_edge_values_one_per_bin(self):
        probas = [0.0, 0.25, 0.5, 0.75]
        oracle = brute_force_bins(probas, 4)
        assert oracle == [0.25, 0.25, 0.25, 0.25]
        bins = build_density_vector(batch(probas, probas[::-1]), m=4)
        for row in (G0, G1, POOLED):
            np.testing.assert_allclose(bins[row], oracle)

    def test_matches_oracle_on_random_input(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = rng.random(rng.integers(1, 40)), rng.random(rng.integers(1, 40))
            m = int(rng.integers(2, 12))
            bins = build_density_vector(batch(a, b), m)
            np.testing.assert_allclose(bins[G0], brute_force_bins(a, m))
            np.testing.assert_allclose(bins[G1], brute_force_bins(b, m))
            np.testing.assert_allclose(bins[POOLED], brute_force_bins(np.concatenate((a, b)), m))

    @pytest.mark.parametrize("m", [2, 3, 7, 100, 599, 600])
    def test_rows_are_each_groups_bincount(self, m):
        # exactly each group's own histogram and the pooled formula, with
        # records on bin edges, at 0.0 and 1.0, and one record per group
        rng = np.random.default_rng(m)
        cases = [(rng.random(1), rng.random(1)), (np.array([0.0]), np.array([1.0]))]
        for n0, n1 in ((300, 50), (7, 900)):
            edges = rng.integers(0, m + 1, n0 + n1) / m
            probas = np.where(rng.random(n0 + n1) < 0.3, edges, rng.random(n0 + n1))
            probas[:2], probas[-2:] = (0.0, 1.0), (1.0, 0.0)
            cases.append((probas[:n0], probas[n0:]))
        for a, b in cases:
            bins = build_density_vector(batch(a, b), m)
            b0 = np.bincount(bin_index(a, m), minlength=m) / a.size
            b1 = np.bincount(bin_index(b, m), minlength=m) / b.size
            assert np.array_equal(bins[G0], b0)
            assert np.array_equal(bins[G1], b1)
            assert np.array_equal(bins[POOLED], (a.size * b0 + b.size * b1) / (a.size + b.size))

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            bins = build_density_vector(batch(rng.random(rng.integers(1, 500)),
                                              rng.random(rng.integers(1, 500))), m=100)
            assert (np.abs(bins.sum(axis=1) - 1.0) <= 1e-9).all()

    def test_empty_input(self):
        # a batch with one group only has no histogram for the other
        for group in (G0, G1):
            with pytest.raises(EmptyGroup, match="both groups must be non-empty"):
                build_density_vector(Scores([0.1, 0.2], [group, group]), m=4)

    def test_invalid_probability(self):
        # rejected at the boundary, before any histogram is built
        with pytest.raises(InvalidProbability):
            build_density_vector(Scores([0.5, 1.2], [0, 1]), m=4)
        with pytest.raises(InvalidProbability):
            build_density_vector(Scores([float("nan"), 0.5], [0, 1]), m=4)

    def test_invalid_bin_count(self):
        for m in (1, 0, -3, 2.5, 10.0, np.float64(4.0)):
            with pytest.raises(InvalidBinCount):
                build_density_vector(Scores([0.5, 0.5], [0, 1]), m=m)

    @pytest.mark.parametrize("m", [4, np.int64(4), np.int32(4), np.uint8(4)])
    def test_integer_bin_counts(self, m):
        bins = build_density_vector(Scores([0.1, 0.6], [0, 1]), m=m)
        assert np.array_equal(bins, [[1, 0, 0, 0], [0, 0, 1, 0], [0.5, 0, 0.5, 0]])


class TestPooling:
    def test_equal_weight_mixture(self):
        bins = build_density_vector(batch([0.2] * 10, [0.7] * 10), m=2)
        np.testing.assert_allclose(bins[POOLED], [0.5, 0.5])

    def test_weight_arithmetic(self):
        bins = build_density_vector(batch([0.2] * 30, [0.7] * 10), m=2)
        np.testing.assert_allclose(bins[POOLED], [0.75, 0.25])

    def test_equal_vectors_fixed_point(self):
        bins = build_density_vector(batch([0.2] * 2 + [0.7] * 3, [0.1] * 4 + [0.9] * 6), m=2)
        np.testing.assert_allclose(bins, [[0.4, 0.6]] * 3)

    def test_equals_concatenated_histogram(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = rng.random(rng.integers(1, 60))
            b = rng.random(rng.integers(1, 60))
            m = int(rng.integers(2, 20))
            pooled = build_density_vector(batch(a, b), m)[POOLED]
            both = np.concatenate([a, b])
            direct = np.bincount(bin_index(both, m), minlength=m) / both.size
            np.testing.assert_allclose(pooled, direct, atol=1e-12)

    def test_both_empty(self):
        with pytest.raises(EmptyGroup):
            build_density_vector(Scores([], []), m=2)


class TestMadd:
    def test_identical_is_zero(self):
        probas = [0.1, 0.4, 0.9]
        assert madd(build_density_vector(batch(probas, probas), m=5)) == 0.0

    def test_disjoint_supports_is_two(self):
        assert madd(np.array([[0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5]])) == pytest.approx(2.0)
        assert madd(build_density_vector(batch([0.1, 0.3], [0.6, 0.8]), m=4)) == 2.0

    def test_hand_sum(self):
        assert madd(np.array([[0.6, 0.4], [0.4, 0.6]])) == pytest.approx(0.4)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = int(rng.integers(2, 30))
            a = rng.random(m)
            b = rng.random(m)
            a, b = a / a.sum(), b / b.sum()
            v = madd(np.stack((a, b)))
            assert v == madd(np.stack((b, a)))
            assert 0.0 <= v <= 2.0

    def test_one_distance_per_row(self):
        # two (B, m) arrays, one pair of proportions per row, as a sweep block has
        rng = np.random.default_rng(12)
        a, b = rng.random((5, 9)), rng.random((5, 9))
        a, b = a / a.sum(axis=1, keepdims=True), b / b.sum(axis=1, keepdims=True)
        assert np.array_equal(madd((a, b)), [madd(np.stack((a[i], b[i]))) for i in range(5)])


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
