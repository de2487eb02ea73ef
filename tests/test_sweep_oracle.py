"""The fast sweep against the per-record oracle: exact equality, no tolerance."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maddpp.densities import Scores, SortedSearch
import maddpp.objective
import maddpp.transport
from maddpp.objective import (BLOCK_ELEMENTS, ObjectiveConfig, _bisect,
                              _reach_bound, _reaches, default_lambda_grid, sweep)
from maddpp.simulate import sample
from maddpp.transport import FipMap, generalized_inverse
from sweep_oracle import MIX_LAMBDAS, adversarial_fits, binned_probas, oracle_sweep, quantile_sets


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
    # one repair per group and per interior bin edge; the threshold's start
    # is bisected between its knot ranks and counts none
    assert res.repairs == 2 * (m - 1)


@pytest.mark.parametrize("t", [0.37, 0.613])
def test_simulation_needs_no_repair(t):
    # no quantile of the smooth simulation sits on a knot, so every bin
    # edge's candidate is right first time
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
    rank of that level is not the threshold's start."""
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


# the sweep's bin-edge repairs on the adversarial fits' own records, at `thresholds(m)`
ADVERSARIAL_REPAIRS = [0, 12, 0, 6, 726]


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
                    # a lower candidate reaches an interior cut, a knot, only
                    # within `_reach_bound` of its level, the knot value there;
                    # on cases 1, 3 and 4 some reach from one ulp or more below it
                    lower = got[0, :-1] & (c[:-1] > 0)
                    gap = (y[s] - u[0])[:-1][lower]
                    assert (gap <= _reach_bound(m)).all()
    assert reached > 0  # some lower candidates on knots do reach their cut
    # the sweep on the records the fit came from
    grid = np.sort(MIX_LAMBDAS)
    repairs = sum(assert_identical(records, ObjectiveConfig(m=m, threshold=t,
                                                            lambda_grid=grid)).repairs
                  for t in thresholds(m))
    assert repairs == ADVERSARIAL_REPAIRS[case]


def threshold_bracket(x, y, q, t):
    """For each row of knots `y`: the ranks in `q` of the levels at the two
    knots around t, and the first index of `q` whose generalized inverse
    reaches t, or q.size, which must lie between them."""
    k = np.searchsorted(x, t)
    lo, hi = (np.searchsorted(q, y[:, j], side="right") for j in (k - 1, k))
    first = np.array([np.append(generalized_inverse(x, row, q) >= t, True).argmax()
                      for row in y])
    assert (lo <= first).all() and (first <= hi).all()
    return lo, hi, first


@pytest.mark.parametrize("case", range(5))
def test_threshold_starts_lie_between_their_knot_ranks(case, monkeypatch):
    # for each lambda the threshold's start is the first quantile whose
    # generalized inverse reaches it, between the ranks of the levels at its
    # segment's two knots: at thresholds on and off a knot, the first and
    # last segments included, and on flat segments, where the two ranks are
    # equal; on the group quantiles the sweep bisects and on quantiles on
    # and one ulp off the segment's knots
    m, fm, records = adversarial_fits()[case]
    found = []

    def spy(sorted_u, x, y, s, cuts, lo, hi):
        start = _bisect(sorted_u, x, y, s, cuts, lo, hi)
        if x.size == 2:  # the threshold's segment, not the m + 1 bin edges
            found.append((sorted_u, start[:, 0]))
        return start

    monkeypatch.setattr(maddpp.objective, "_bisect", spy)
    grid = np.sort(MIX_LAMBDAS)
    flat = 0
    for t in thresholds(m):
        k = np.searchsorted(fm.x, t)
        found.clear()
        sweep(records, ObjectiveConfig(m=m, threshold=t, lambda_grid=grid))
        assert len(found) == 2  # one call per group, G0 then G1
        for g, (su, start) in enumerate(found):
            y = fm.mix_knots(g, grid[:, None])
            assert np.array_equal(start, threshold_bracket(fm.x, y, su, t)[2])
            knots = np.unique(y[:, k - 1:k + 1])
            for q in (knots, np.nextafter(knots, -1.0), np.nextafter(knots, 2.0)):
                q = np.unique(np.clip(q, 0.0, 1.0))
                lo, hi, first = threshold_bracket(fm.x, y, q, t)
                start = _bisect(q, fm.x[k - 1:k + 1], y[:, k - 1:k + 1], np.array([1]),
                                np.array([t]), lo[:, None], hi[:, None])
                assert np.array_equal(start[:, 0], first)
            flat += np.count_nonzero(y[:, k - 1] == y[:, k])
    assert flat > 0


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


def rank_quantiles():
    """Sorted level sets for `SortedSearch`: group sizes around a power of
    two, the ends 0 and 1, ties, every value in one bucket, one value per
    bucket, and a mixture's rising knots y[:m], with flat runs and the last
    one ulp above 1."""
    rng = np.random.default_rng(12)
    sets = {}
    for n in (1, 2, 2**10 - 1, 2**10, 2**10 + 1):
        sets[f"uniform-{n}"] = rng.random(n)
        sets[f"ends-and-ties-{n}"] = rng.choice([0.0, 1 / 3, 0.5, 1.0], n)
    sets["one-bucket"] = np.full(300, 0.3)
    sets["two-values-one-bucket"] = np.repeat([0.3, np.nextafter(0.3, 1.0)], [5, 9])
    # with buckets = n, a power of two, value k lies in bucket k
    sets["one-per-bucket"] = (np.arange(2**10) + 0.25 + 0.5 * rng.random(2**10)) / 2**10
    for m in (7, 500):
        bins = rng.random(m) * (rng.random(m) < 0.4)  # most bins empty: flat runs
        y = np.concatenate(([0.0], np.cumsum(bins) / bins.sum()))
        y[m - 1] = np.nextafter(1.0, 2.0)
        sets[f"flat-knots-{m}"] = y[:m]
    return {name: np.sort(u) for name, u in sets.items()}


@pytest.mark.parametrize("name", list(rank_quantiles()))
def test_rank_table_is_searchsorted(name, monkeypatch):
    su = rank_quantiles()[name]
    searchsorted, fallbacks = np.searchsorted, []

    def spy(a, v, side):
        fallbacks.append(np.size(v))
        return searchsorted(a, v, side=side)

    monkeypatch.setattr(np, "searchsorted", spy)
    # the sweep's 4n buckets, then tables smaller than the data, where most
    # values fall back
    for buckets in (4 * su.size, su.size, 1):
        ranks = SortedSearch(su, buckets)
        n_buckets = ranks.buckets
        # the least power of two >= buckets, so that v * N is exact
        assert n_buckets & (n_buckets - 1) == 0 and n_buckets // 2 < buckets <= n_buckets
        edges = np.arange(n_buckets + 1) / n_buckets
        levels = np.concatenate((
            su, np.nextafter(su, -1.0), np.nextafter(su, 2.0),  # on a value and one ulp off
            edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0),  # on a bucket edge
            [0.0, 1.0, 1.0 + 2**-52, 1.0 + 2**-40],  # the ends, and a last knot above 1
            np.random.default_rng(13).random(500)))
        fallbacks.clear()
        for side in ("left", "right"):
            expected = searchsorted(su, levels, side=side)
            assert np.array_equal(ranks(levels, side=side), expected)
            # as the sweep calls it: a block of rows, a view into a wider array
            rows = np.pad(levels[:levels.size // 4 * 4].reshape(4, -1), ((0, 0), (1, 1)))[:, 1:-1]
            assert np.array_equal(ranks(rows, side=side), expected[:rows.size].reshape(4, -1))
        if name.endswith("one-bucket"):  # the fallback to np.searchsorted is taken
            assert fallbacks
        if name == "one-per-bucket" and buckets > 1:  # every candidate is right
            assert not fallbacks


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, np.nextafter(0.5, 1.0), 1.0])
                | st.floats(0.0, 1.0), max_size=40),
       st.booleans(), st.integers(1, 64), st.lists(st.floats(-0.5, 1.5), max_size=20))
def test_sorted_search_on_any_sorted_set(values, above_one, buckets, extra):
    # ties, flat runs and a last value just above 1, down to a table of one bucket
    a = np.sort(np.array(values))
    if above_one and a.size:
        a[-1] = 1.0 + 2**-52
    ranks = SortedSearch(a, buckets)
    edges = np.arange(ranks.buckets + 1) / ranks.buckets
    levels = np.concatenate((a, np.nextafter(a, -1.0), np.nextafter(a, 2.0), edges,
                             [0.0, 1.0, 1.0 + 2**-52], extra))
    for side in ("left", "right"):
        assert np.array_equal(ranks(levels, side=side), np.searchsorted(a, levels, side=side))


@pytest.mark.parametrize("m", [2, 100])
def test_bin_starts_are_c_ordered(m):
    # `madd` sums the differences of each row of starts; a Fortran-ordered
    # array can move those sums in the last bits
    records = simulated_with_edges(m)
    fm = FipMap.from_probas(records, m)
    _, _, u = next(fm.groups(records))
    starts, repaired = maddpp.objective._bin_starts(
        fm.x, fm.mix_knots(0, default_lambda_grid(7)[:, None]),
        SortedSearch(np.sort(u), 4 * u.size))
    assert starts.shape == (7, m + 1) and starts.flags.c_contiguous and repaired > 0
