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
    EmptyGroup,
    InvalidLambda,
    InvalidProbability,
    InvalidQuantile,
    LengthMismatch,
)
from maddpp.transport import (FipMap, PiecewiseLinearCdf, build_cdf, fip, generalized_inverse,
                              mix)


def scan_inverse(cdf, u, steps=200_001):
    """Oracle: leftmost grid point whose CDF value reaches u."""
    xs = np.linspace(0.0, 1.0, steps)
    ys = cdf(xs)
    hits = np.nonzero(ys >= u - 1e-12)[0]
    return xs[hits[0]] if hits.size else 1.0


class TestBuildCdf:
    def test_all_mass_first_bin(self):
        cdf = build_cdf(DensityVector(bins=[1, 0], m=2, n=3))
        assert cdf(0.0) == 0.0
        assert cdf(0.5) == 1.0
        assert cdf(1.0) == 1.0

    def test_linear_interpolation(self):
        cdf = build_cdf(DensityVector(bins=[0.5, 0.5], m=2, n=2))
        assert cdf(0.5) == pytest.approx(0.5)
        assert cdf(0.75) == pytest.approx(0.75)

    def test_uniform_is_identity(self):
        m = 10
        cdf = build_cdf(DensityVector(bins=np.full(m, 1 / m), m=m, n=m))
        xs = np.arange(m + 1) / m
        np.testing.assert_allclose(cdf(xs), xs, atol=1e-12)


class TestPiecewiseLinearCdf:
    @pytest.mark.parametrize("knots_x, knots_y, error", [
        ([0, 1], [0.0], LengthMismatch),
        ([0], [0.0], LengthMismatch),
        ([0, 1], [0.5, 0.2], InvalidProbability),
        ([0, 0.5, 1], [0.0, 0.7, 0.9], InvalidProbability),
        ([0, 0.5, 1], [0.0, 1.2, 1.0], InvalidProbability),
        # one CDF at a time: a stack of knot rows is not one
        ([0, 0.5, 1], [[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]], LengthMismatch),
    ])
    def test_typed_errors(self, knots_x, knots_y, error):
        with pytest.raises(error):
            PiecewiseLinearCdf(knots_x=knots_x, knots_y=knots_y)


class TestGeneralizedInverse:
    def test_identity_cdf(self):
        m = 10
        cdf = build_cdf(DensityVector(bins=np.full(m, 1 / m), m=m, n=m))
        assert generalized_inverse(cdf, 0.3) == pytest.approx(0.3)

    def test_leftmost_on_flat_segment(self):
        cdf = build_cdf(DensityVector(bins=[1, 0], m=2, n=3))
        assert generalized_inverse(cdf, 1.0) == pytest.approx(0.5)

    def test_zero_quantile(self):
        cdf = build_cdf(build_density_vector([0.3, 0.9], m=5))
        assert generalized_inverse(cdf, 0.0) == 0.0

    def test_matches_scanning_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = build_density_vector(rng.random(30), m=8)
            cdf = build_cdf(d)
            for u in rng.random(5):
                assert generalized_inverse(cdf, float(u)) == pytest.approx(
                    scan_inverse(cdf, u), abs=1e-4)

    def test_invalid_quantile(self):
        cdf = build_cdf(DensityVector(bins=[1, 0], m=2, n=1))
        with pytest.raises(InvalidQuantile):
            generalized_inverse(cdf, 1.5)
        for bad in (-0.1, np.nan):
            with pytest.raises(InvalidQuantile):
                generalized_inverse(cdf, [0.5, bad, 0.2])


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
        # oracle: knot-by-knot CDFs and a scanning inverse
        d0 = build_density_vector([0.25] * 1000, 2)
        d1 = build_density_vector([0.75] * 1000, 2)
        pooled = build_cdf(pool_density_vectors(d0, d1))
        u0 = build_cdf(d0)(0.25)
        u1 = build_cdf(d1)(0.75)
        exp0 = scan_inverse(pooled, u0)
        exp1 = scan_inverse(pooled, u1)
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

    def test_convergence_improves_with_sample_size(self):
        """Remapped groups at lambda=1 get closer as n grows (no exact overlap)."""
        def residual(n, seed):
            rng = np.random.default_rng(seed)
            records = Scores(*zip(*([(float(p), 0) for p in rng.random(n)] +
                                    [(float(p), 1) for p in rng.random(n)])))
            out = fip(records, 1.0, 50)
            d0 = build_density_vector(out[:n], 50)
            d1 = build_density_vector(out[n:], 50)
            return madd(d0, d1)

        small = np.mean([residual(1_000, s) for s in range(5)])
        large = np.mean([residual(10_000, s) for s in range(5)])
        assert large < small


class TestFipMap:
    def test_mixture_knots_are_convex_combinations(self):
        rng = np.random.default_rng(6)
        fm = FipMap.from_probas(rng.random(50), rng.random(80), m=10)
        expected = 0.7 * fm.cdf_g0.knots_y + 0.3 * fm.cdf_all.knots_y
        np.testing.assert_allclose(mix(fm.cdf_g0, fm.cdf_all, 0.3).knots_y, expected,
                                   atol=1e-15)

    def test_invalid_lambda(self):
        rng = np.random.default_rng(6)
        fm = FipMap.from_probas(rng.random(5), rng.random(5), m=4)
        with pytest.raises(InvalidLambda, match=r"lambda must be in \[0, 1\], got -0.1"):
            fm.remap(rng.random(3), 0, lam=-0.1)

    def test_one_fit_remaps_like_fip_at_every_lambda(self):
        rng = np.random.default_rng(8)
        records = random_records(rng, 300)
        mask0 = records.g0_mask()
        m = 17
        fm = FipMap.from_probas(records.proba[mask0], records.proba[~mask0], m)
        for lam in (0.0, 0.3, 0.97, 1.0):
            out = np.empty_like(records.proba)
            out[mask0] = fm.remap(records.proba[mask0], 0, lam)
            out[~mask0] = fm.remap(records.proba[~mask0], 1, lam)
            assert np.array_equal(out, fip(records, lam, m))
