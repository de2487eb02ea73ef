import numpy as np
import pytest

from maddpp.densities import Scores, bin_index, build_density_vector, madd
from maddpp.errors import EmptyGroup, InvalidBinCount, InvalidLambda
from maddpp.transport import FipMap, fip, generalized_inverse


def scan_inverse(x, y, u, steps=200_001):
    """Oracle: leftmost grid point where the CDF with knots (x, y) reaches u."""
    ts = np.linspace(0.0, 1.0, steps)
    hits = np.nonzero(np.interp(ts, x, y) >= u - 1e-12)[0]
    return ts[hits[0]] if hits.size else 1.0


def knots(probas0, probas1, m):
    """The x and the group-0, group-1 and pooled CDF knot values y that
    `FipMap.from_probas` fits on the two groups' probabilities."""
    scores = Scores(np.concatenate((probas0, probas1)),
                    np.repeat([0, 1], [len(probas0), len(probas1)]))
    fm = FipMap.from_probas(scores, m)
    return fm.x, fm.y


class TestBuildCdf:
    """The CDF knots that `FipMap.from_probas` fits."""

    def test_all_mass_first_bin(self):
        x, y = knots([0.1, 0.2, 0.3], [0.9], m=2)
        assert np.array_equal(x, [0.0, 0.5, 1.0])
        assert np.array_equal(y, [[0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.75, 1.0]])

    def test_linear_interpolation(self):
        x, y = knots([0.2, 0.7], [0.7], m=2)
        assert np.interp(0.5, x, y[0]) == pytest.approx(0.5)
        assert np.interp(0.75, x, y[0]) == pytest.approx(0.75)

    def test_uniform_is_identity(self):
        m = 10
        x, y = knots((np.arange(m) + 0.5) / m, [0.5], m)
        np.testing.assert_allclose(y[0], x, atol=1e-12)
        np.testing.assert_allclose(np.interp(x, x, y[0]), x, atol=1e-12)


class TestGeneralizedInverse:
    def test_identity_cdf(self):
        x = np.arange(11) / 10
        assert generalized_inverse(x, x.copy(), 0.3) == pytest.approx(0.3)

    def test_leftmost_on_flat_segment(self):
        x, y = knots([0.1], [0.9], m=2)
        assert generalized_inverse(x, y[0], 1.0) == pytest.approx(0.5)

    def test_zero_quantile(self):
        x, y = knots([0.3, 0.9], [0.5], m=5)
        assert generalized_inverse(x, y[0], 0.0) == 0.0

    def test_matches_scanning_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x, y = knots(rng.random(30), rng.random(3), m=8)
            for u in rng.random(5):
                assert generalized_inverse(x, y[0], float(u)) == pytest.approx(
                    scan_inverse(x, y[0], u), abs=1e-4)


def random_records(rng, n):
    groups = rng.integers(0, 2, n)
    groups[0], groups[1] = 0, 1  # both groups always present
    return Scores(rng.random(n), groups)


class TestFip:
    def test_lambda_zero_identity_within_bin(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            m = int(rng.integers(2, 50))
            records = random_records(rng, int(rng.integers(2, 80)))
            out = fip(records, 0.0, m)
            for proba, p in zip(records.proba, out):
                assert abs(p - proba) <= 1 / m + 1e-12

    def test_identical_groups_near_identity(self):
        rng = np.random.default_rng(4)
        base = rng.random(200)
        records = Scores(*zip(*([(float(p), 0) for p in base] +
                                [(float(p), 1) for p in base])))
        m = 25
        for lam in (0.0, 0.3, 1.0):
            out = fip(records, lam, m)
            for proba, p in zip(records.proba, out):
                assert abs(p - proba) <= 1 / m + 1e-12

    def test_two_point_full_convergence_oracle(self):
        records = Scores(*zip(*([(0.25, 0) for _ in range(1000)] +
                                [(0.75, 1) for _ in range(1000)])))
        out = fip(records, 1.0, 2)
        # oracle: the CDFs knot by knot, and a scanning inverse of the pooled one
        x = np.array([0.0, 0.5, 1.0])
        pooled = np.array([0.0, 0.5, 1.0])
        exp0 = scan_inverse(x, pooled, np.interp(0.25, x, [0.0, 1.0, 1.0]))
        exp1 = scan_inverse(x, pooled, np.interp(0.75, x, [0.0, 0.0, 1.0]))
        np.testing.assert_allclose(out[:1000], exp0, atol=1e-4)
        np.testing.assert_allclose(out[1000:], exp1, atol=1e-4)

    def test_rank_preservation(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            records = random_records(rng, int(rng.integers(4, 60)))
            out = fip(records, float(rng.random()), int(rng.integers(2, 40)))
            groups = records.group
            probas = records.proba
            for g in (0, 1):
                order = np.argsort(probas[groups == g], kind="stable")
                mapped = out[groups == g][order]
                assert np.all(np.diff(mapped) >= -1e-12)

    def test_output_range(self):
        rng = np.random.default_rng(13)
        records = random_records(rng, 100)
        out = fip(records, 0.7, 10)
        assert all(0.0 <= p <= 1.0 for p in out)

    def test_preserves_order_of_records(self):
        records = Scores([0.9, 0.1, 0.2, 0.8], [0, 1, 0, 1])
        out = fip(records, 0.0, 4)
        # group-0 outputs in positions 0 and 2, group-1 in 1 and 3
        assert out[0] > out[2]
        assert out[3] > out[1]

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        records = random_records(rng, 150)
        a = fip(records, 0.42, 33)
        b = fip(records, 0.42, 33)
        assert np.array_equal(a, b)

    def test_empty_group(self):
        with pytest.raises(EmptyGroup):
            fip(Scores([0.5], [0]), 0.5, 4)

    def test_invalid_lambda(self):
        records = Scores([0.5, 0.5], [0, 1])
        with pytest.raises(InvalidLambda):
            fip(records, 1.5, 4)

    @pytest.mark.parametrize("m", [1, 2.5, 10.0])
    def test_invalid_bin_count(self, m):
        with pytest.raises(InvalidBinCount):
            fip(Scores([0.5, 0.5], [0, 1]), 0.5, m)

    def test_convergence_improves_with_sample_size(self):
        """Remapped groups at lambda=1 get closer as n grows (no exact overlap)."""
        def residual(n, seed):
            rng = np.random.default_rng(seed)
            records = Scores(*zip(*([(float(p), 0) for p in rng.random(n)] +
                                    [(float(p), 1) for p in rng.random(n)])))
            out = fip(records, 1.0, 50)
            return madd(build_density_vector(Scores(out, records.group), 50))

        small = np.mean([residual(1_000, s) for s in range(5)])
        large = np.mean([residual(10_000, s) for s in range(5)])
        assert large < small


class TestFipMap:
    def test_mixture_knots_are_convex_combinations(self):
        rng = np.random.default_rng(6)
        fm = FipMap.from_probas(random_records(rng, 130), m=10)
        np.testing.assert_allclose(fm.mix_knots(0, 0.3), 0.7 * fm.y[0] + 0.3 * fm.y[2],
                                   atol=1e-15)
        lams = [0.0, 0.3, 1.0]
        assert np.array_equal(fm.mix_knots(1, np.c_[lams]), [fm.mix_knots(1, l) for l in lams])
        assert np.array_equal(fm.mix_knots(1, 0.0), fm.y[1])
        assert np.array_equal(fm.mix_knots(1, 1.0), fm.y[2])

    @pytest.mark.parametrize("m", [2, 3, 10, 500])
    def test_knots_are_cdfs(self, m):
        # each row runs from 0 to exactly 1 and never falls by more than
        # rounding; the pooled row is the CDF of all the records
        rng = np.random.default_rng(m)
        for probas in (rng.random(150), rng.integers(0, m + 1, 150) / m,
                       (np.arange(150) % 2 + 0.5) / m):
            records = Scores(probas, (np.arange(150) % 3 == 0).astype(int))
            fm = FipMap.from_probas(records, m)
            assert np.array_equal(fm.x, np.arange(m + 1) / m)
            assert fm.y.shape == (3, m + 1)
            assert (fm.y[:, 0] == 0.0).all() and (fm.y[:, -1] == 1.0).all()
            assert (np.diff(fm.y, axis=1) >= -1e-12).all()
            pooled = np.cumsum(np.bincount(bin_index(probas, m), minlength=m) / probas.size)
            np.testing.assert_allclose(fm.y[2, 1:-1], pooled[:-1], atol=1e-12)

    def test_invalid_lambda(self):
        rng = np.random.default_rng(6)
        records = random_records(rng, 10)
        fm = FipMap.from_probas(records, m=4)
        with pytest.raises(InvalidLambda, match=r"lambda must be in \[0, 1\], got -0.1"):
            fm.remap(records, lam=-0.1)

    def test_one_fit_remaps_like_fip_at_every_lambda(self):
        rng = np.random.default_rng(8)
        records = random_records(rng, 300)
        m = 17
        fm = FipMap.from_probas(records, m)
        for lam in (0.0, 0.3, 0.97, 1.0):
            assert np.array_equal(fm.remap(records, lam), fip(records, lam, m))

    def test_quantiles_are_each_records_own_group_cdf(self):
        rng = np.random.default_rng(12)
        records = random_records(rng, 200)
        fm = FipMap.from_probas(records, m=13)
        split = list(fm.groups(records))
        # every record once, under its own group, in input order within it
        assert [g for g, _, _ in split] == [0, 1]
        members = np.concatenate([idx for _, idx, _ in split])
        assert np.array_equal(np.sort(members), np.arange(len(records)))
        for g, idx, u in split:
            assert (records.group[idx] == g).all() and (np.diff(idx) > 0).all()
            for i, q in zip(idx, u):
                assert q == np.clip(np.interp(records.proba[i], fm.x, fm.y[g]), 0.0, 1.0)
            # at lambda 0 a record keeps its quantile under its own group's CDF
            back = np.interp(fm.remap(records, 0.0)[idx], fm.x, fm.y[g])
            np.testing.assert_allclose(back, u, atol=1e-12)

    def test_applies_to_another_batch(self):
        # the map is fitted on one batch and applied to another, of other sizes
        rng = np.random.default_rng(14)
        fit, other = random_records(rng, 120), random_records(rng, 45)
        fm = FipMap.from_probas(fit, m=9)
        out = fm.remap(other, 0.6)
        for p, g, q in zip(other.proba, other.group, out):
            u = np.clip(np.interp(p, fm.x, fm.y[g]), 0.0, 1.0)
            assert q == generalized_inverse(fm.x, fm.mix_knots(g, 0.6), np.array([u]))[0]
        # a batch of one group is remapped as its records are in a batch of both
        assert fm.remap(Scores([0.5], [1]), 0.6) == fm.remap(Scores([0.3, 0.5], [0, 1]), 0.6)[1]
        (_, none, empty), (_, one, u) = fm.groups(Scores([0.5], [1]))
        assert none.size == empty.size == 0 and one.tolist() == [0]
        assert u == list(fm.groups(Scores([0.3, 0.5], [0, 1])))[1][2]
