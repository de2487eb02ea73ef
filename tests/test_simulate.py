import numpy as np
import pytest

from maddpp.densities import G0, G1
from maddpp.simulate import C0, C1, GAMMA_XSCALE, NORMAL_MEAN, pdf_g0, pdf_g1, sample, tabulated_cdf

N_G0, N_G1 = 10_000, 10_000


def simpson(f, a, b, n=20_000):
    """Independent quadrature oracle (composite Simpson, n even)."""
    xs = np.linspace(a, b, n + 1)
    ys = f(xs)
    h = (b - a) / n
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())


@pytest.fixture(scope="module")
def records():
    return sample(N_G0, N_G1, seed=0)


class TestPdfs:
    def test_g0_vanishes_at_zero(self):
        assert pdf_g0(0.0) == 0.0

    def test_g0_integrates_to_one(self):
        assert simpson(pdf_g0, 0, 1) == pytest.approx(1.0, abs=1e-6)

    def test_g1_integrates_to_one(self):
        assert simpson(pdf_g1, 0, 1) == pytest.approx(1.0, abs=1e-6)

    def test_g1_mode_by_grid_search(self):
        xs = np.linspace(0, 1, 100_001)
        mode = xs[int(np.argmax(pdf_g1(xs)))]
        assert mode == pytest.approx(NORMAL_MEAN, abs=1e-3)

    def test_g0_mode_by_grid_search(self):
        # gamma(4, 1) peaks at 3, compressed by the x-scale
        xs = np.linspace(0, 1, 100_001)
        mode = xs[int(np.argmax(pdf_g0(xs)))]
        assert mode == pytest.approx(3 / GAMMA_XSCALE, abs=1e-3)

    def test_zero_outside_interval(self):
        assert pdf_g0(-0.1) == 0.0
        assert pdf_g1(1.1) == 0.0

    def test_normalization_constants_against_independent_quadrature(self):
        c0 = simpson(lambda x: pdf_g0(x) * C0, 0, 1)
        c1 = simpson(lambda x: pdf_g1(x) * C1, 0, 1)
        assert abs(c0 - C0) / C0 <= 1e-6
        assert abs(c1 - C1) / C1 <= 1e-6


class TestSample:
    def test_counts_and_groups(self, records):
        assert len(records) == N_G0 + N_G1
        assert (records.group == G0).sum() == N_G0

    def test_all_probas_in_range(self, records):
        assert all(0.0 <= p <= 1.0 for p in records.proba)

    def test_empirical_mean_matches_quadrature(self, records):
        expected = simpson(lambda x: x * pdf_g0(x), 0, 1)
        observed = np.mean(records.proba[records.group == G0])
        assert observed == pytest.approx(expected, abs=0.01)

    def test_label_rate_matches_mean_proba(self, records):
        for g in (G0, G1):
            probas = records.proba[records.group == g]
            labels = records.label[records.group == g]
            assert labels.mean() == pytest.approx(probas.mean(), abs=0.02)

    def test_deterministic_from_seed(self, records):
        again = sample(N_G0, N_G1, seed=0)
        for name in ("proba", "group", "label"):
            assert np.array_equal(getattr(again, name), getattr(records, name))

    def test_different_seed_differs(self, records):
        other = sample(seed=1)
        assert not np.array_equal(other.proba, records.proba)

    @pytest.mark.parametrize("group,pdf", [(G0, pdf_g0), (G1, pdf_g1)])
    def test_ks_distance_against_quadrature_cdf(self, records, group, pdf):
        probas = np.sort(records.proba[records.group == group])
        xs = np.linspace(0, 1, 10_001)
        cdf = tabulated_cdf(pdf(xs), xs)
        theory = np.interp(probas, xs, cdf)
        n = probas.size
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(np.abs(ecdf_hi - theory).max(), np.abs(theory - ecdf_lo).max())
        assert ks <= 0.02
