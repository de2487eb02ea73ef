import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import maddpp
from maddpp.densities import Scores, bin_index, madd
from maddpp.errors import (
    EmptyGroup,
    InvalidBinCount,
    InvalidLambda,
    InvalidObjective,
    LengthMismatch,
    MissingLabels,
)
from maddpp.objective import (
    ObjectiveConfig,
    SweepResult,
    default_lambda_grid,
    losses,
    sweep,
    total_loss,
)
from maddpp.simulate import sample
from maddpp.transport import fip
from sweep_oracle import threshold_crossings


class TestLosses:
    """`losses(scores, config)`: the accuracy and fairness losses of a batch as it is."""

    @pytest.mark.parametrize("proba, group, label, expected", [
        pytest.param([0.49, 0.5, 0.51], [0, 1, 0], [0, 1, 1], 0.0, id="boundary_inclusive"),
        pytest.param([1.0, 0.2], [0, 1], [1, 0], 0.0, id="proba_one"),
        pytest.param([0.2, 0.8], [0, 1], [0, 1], 0.0, id="plain"),
        pytest.param([0.2, 0.8, 0.9], [0, 1, 0], [0, 1, 1], 0.0, id="perfect"),
        pytest.param([0.8, 0.2], [0, 1], [0, 1], 1.0, id="all_wrong"),
        pytest.param([0.9] * 10, [0, 1] * 5, [0] * 3 + [1] * 7, 0.3, id="hand_count"),
    ])
    def test_accuracy_loss(self, proba, group, label, expected):
        # predictions are 1 iff proba >= threshold, boundary inclusive
        acc, _ = losses(Scores(proba, group, label), ObjectiveConfig(m=10))
        assert acc == pytest.approx(expected)

    @pytest.mark.parametrize("records, m, expected", [
        pytest.param([(0.3, 0), (0.3, 1)], 10, 0.0, id="identical_groups"),
        pytest.param([(0.1, 0), (0.9, 1)], 2, 1.0, id="disjoint_supports"),
        # group densities [0.6, 0.4] and [0.4, 0.6] -> half of 0.4
        pytest.param([(0.2, 0)] * 3 + [(0.8, 0)] * 2 + [(0.2, 1)] * 2 + [(0.8, 1)] * 3, 2, 0.2,
                     id="hand_value"),
    ])
    def test_fairness_loss(self, records, m, expected):
        proba, group = zip(*records)
        _, fair = losses(Scores(proba, group, [0] * len(proba)), ObjectiveConfig(m=m))
        assert fair == pytest.approx(expected)

    @pytest.mark.parametrize("proba, group, label, error", [
        pytest.param([0.1], [0], [0], EmptyGroup, id="empty_group"),
        # a batch of no records has two empty groups
        pytest.param([], [], [], EmptyGroup, id="empty"),
        pytest.param([0.9], [0], [1, 0], LengthMismatch, id="length_mismatch"),
        pytest.param([0.5, 0.5], [0, 1], None, MissingLabels, id="missing_labels"),
    ])
    def test_typed_errors(self, proba, group, label, error):
        # lengths are checked by Scores, when the batch is built
        with pytest.raises(error):
            losses(Scores(proba, group, label), ObjectiveConfig(m=2))

    def test_fairness_is_half_the_madd(self):
        rng = np.random.default_rng(11)
        recs = labeled_records(rng, 300)
        b0, b1 = (np.bincount(bin_index(recs.proba[recs.group == g], 30), minlength=30)
                  / np.count_nonzero(recs.group == g) for g in (0, 1))
        assert losses(recs, ObjectiveConfig(m=30))[1] == 0.5 * madd((b0, b1))

    def test_knot_valued_records_are_scored_as_given(self):
        # the remap at lambda = 0 is not the identity: a record on the left
        # edge of its bin, after a run of bins its group leaves empty, maps to
        # the start of that run (generalized_inverse's leftmost preimage).  So
        # the sweep's lambda = 0 row is not the batch as given.
        scores = Scores([0.1, 0.5, 0.9, 0.3, 0.6, 0.7], [0, 0, 0, 1, 1, 1],
                        [0, 1, 1, 0, 1, 1])
        config = ObjectiveConfig(m=10, lambda_grid=[0.0])
        assert losses(scores, config) == (0.0, pytest.approx(1.0))
        res = sweep(scores, config)
        assert (res.accuracy_losses[0], res.fairness_losses[0]) == pytest.approx((1 / 3, 2 / 3))
        np.testing.assert_array_equal(fip(scores, 0.0, 10), [0, 0.2, 0.6, 0, 0.4, 0.7])


def test_every_exported_name_resolves():
    # `from maddpp import *` fails on a name in __all__ the package lacks
    for name in maddpp.__all__:
        assert hasattr(maddpp, name), name


class TestObjectiveConfig:
    @pytest.mark.parametrize("kwargs, error", [
        ({"theta": 5.0}, InvalidObjective),
        ({"theta": -0.1}, InvalidObjective),
        ({"theta": float("nan")}, InvalidObjective),
        ({"threshold": 0.0}, InvalidObjective),
        ({"threshold": 1.0}, InvalidObjective),
        ({"threshold": 3.0}, InvalidObjective),
        ({"lambda_grid": []}, InvalidObjective),
        ({"lambda_grid": [0.5, 0.2]}, InvalidObjective),
        ({"lambda_grid": [[0.0, 1.0]]}, InvalidObjective),
        ({"lambda_grid": [-0.5, 0.5]}, InvalidLambda),
        ({"lambda_grid": [0.0, 1.5]}, InvalidLambda),
        ({"lambda_grid": [float("nan")]}, InvalidLambda),
        ({"m": 1}, InvalidBinCount),
        ({"m": 0}, InvalidBinCount),
        ({"m": 2.5}, InvalidBinCount),
    ])
    def test_typed_errors(self, kwargs, error):
        with pytest.raises(error):
            ObjectiveConfig(**kwargs)

    def test_empty_default_grid(self):
        with pytest.raises(InvalidObjective):
            default_lambda_grid(0)

    def test_validation_holds_under_optimize(self, tmp_path):
        code = ("from maddpp.cli import main\n"
                "from maddpp.densities import Scores, check_bin_count\n"
                "from maddpp.errors import InvalidLambda, InvalidObjective, InvalidProbability\n"
                "from maddpp.errors import OutOfMemory\n"
                "from maddpp.objective import ObjectiveConfig, default_lambda_grid\n"
                "from maddpp.transport import FipMap, fip\n"
                "try:\n"
                "    ObjectiveConfig(theta=5, threshold=3)\n"
                "except InvalidObjective:\n"
                "    print(__debug__, 'InvalidObjective')\n"
                "scores = Scores([0.2, 0.7], [0, 1])\n"
                "for remap in (FipMap.from_probas(scores, 4).remap,\n"
                "              lambda s, lam: fip(s, lam, 4)):\n"
                "    try:\n"
                "        remap(scores, 1.5)\n"
                "    except InvalidLambda:\n"
                "        print('InvalidLambda')\n"
                "try:\n"
                "    Scores([1.5], [0])\n"
                "except InvalidProbability:\n"
                "    print('Scores')\n"
                "for check in (check_bin_count, default_lambda_grid):\n"
                "    try:\n"
                "        check(2**48)\n"
                "    except OutOfMemory:\n"
                "        print('OutOfMemory')\n"
                f"print(main(['--out-dir', {str(tmp_path / 'out')!r}, 'simulate',\n"
                "            '--n-g0', str(2**48)]))\n")
        src = str(Path(maddpp.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert out.stdout.split() == ["False", "InvalidObjective", "InvalidLambda",
                                      "InvalidLambda", "Scores", "OutOfMemory",
                                      "OutOfMemory", "28"], out.stderr
        assert not (tmp_path / "out").exists()


class TestTotalLoss:
    def test_reported_optimum_value(self):
        # 0.390 accuracy and 0.063 fairness combine to 0.2265 at theta = 0.5
        assert total_loss(0.390, 0.063, 0.5) == pytest.approx(0.2265)

    def test_theta_extremes(self):
        assert total_loss(0.3, 0.9, 0.0) == 0.3
        assert total_loss(0.3, 0.9, 1.0) == 0.9


def labeled_records(rng, n, shift=0.35):
    """Two groups with shifted probability distributions and Bernoulli labels."""
    p0 = np.clip(rng.random(n) * 0.6, 0, 1)
    p1 = np.clip(rng.random(n) * 0.6 + shift, 0, 1)
    recs = [(float(p), 0, int(rng.random() < p)) for p in p0]
    recs += [(float(p), 1, int(rng.random() < p)) for p in p1]
    return Scores(*zip(*recs))


class TestSweep:
    def test_rows_recompose_total(self):
        rng = np.random.default_rng(0)
        config = ObjectiveConfig(m=20, lambda_grid=default_lambda_grid(21))
        res = sweep(labeled_records(rng, 300), config)
        for lam, acc, fair, tot in zip(*(c.tolist() for c in res.columns())):
            assert tot == pytest.approx((1 - config.theta) * acc + config.theta * fair,
                                        abs=1e-12)
            assert 0.0 <= acc <= 1.0 and 0.0 <= fair <= 1.0

    def test_identical_groups_flat(self):
        rng = np.random.default_rng(1)
        base = rng.random(400)
        recs = Scores(*zip(*[(float(p), g, int(rng.random() < p))
                             for g in (0, 1) for p in base]))
        res = sweep(recs, ObjectiveConfig(m=10, lambda_grid=default_lambda_grid(11)))
        assert res.fairness_losses.max() < 0.1
        assert 0.0 <= res.lambda_star <= 1.0

    def test_degenerate_grid(self):
        rng = np.random.default_rng(2)
        res = sweep(labeled_records(rng, 50),
                    ObjectiveConfig(m=10, lambda_grid=[0.0]))
        assert res.lambda_star == 0.0
        assert res.lambdas.size == 1

    def test_tie_breaks_toward_largest_lambda(self):
        # theta=1 with identical groups: fairness is 0 everywhere, all ties
        rng = np.random.default_rng(3)
        base = rng.random(100)
        recs = Scores(*zip(*[(float(p), g, 1) for g in (0, 1) for p in base]))
        res = sweep(recs, ObjectiveConfig(theta=1.0, m=2,
                                          lambda_grid=default_lambda_grid(5)))
        ties = np.isclose(res.total_losses, res.min_total_loss)
        assert res.lambda_star == res.lambdas[ties].max()

    def test_missing_labels(self):
        recs = Scores([0.5, 0.5], [0, 1])
        with pytest.raises(MissingLabels):
            sweep(recs, ObjectiveConfig(m=2, lambda_grid=[0.0]))

    def test_empty_group_propagates(self):
        recs = Scores([0.5, 0.6], [0, 0], [1, 0])
        with pytest.raises(EmptyGroup):
            sweep(recs, ObjectiveConfig(m=2, lambda_grid=[0.0]))

    def test_lambda_zero_row_matches_premitigation(self):
        rng = np.random.default_rng(4)
        recs = labeled_records(rng, 500)
        m = 50
        res = sweep(recs, ObjectiveConfig(m=m, lambda_grid=default_lambda_grid(3)))
        acc0, fair0 = losses(recs, ObjectiveConfig(m=m))
        # continuous draws put no record on a knot, so the lambda = 0 remap
        # moves each record by rounding alone; a record on a knot can move
        # across bins (`TestLosses::test_knot_valued_records_are_scored_as_given`)
        assert res.accuracy_losses[0] == pytest.approx(acc0, abs=0.05)
        assert res.fairness_losses[0] == pytest.approx(fair0, abs=0.1)

    def test_fairness_decreases_with_lambda(self):
        rng = np.random.default_rng(6)
        recs = labeled_records(rng, 10_000)
        res = sweep(recs, ObjectiveConfig(m=100, lambda_grid=default_lambda_grid(51)))
        assert res.fairness_losses[-1] < res.fairness_losses[0]
        corr = np.corrcoef(res.lambdas, res.fairness_losses)[0, 1]
        assert corr <= -0.95


def sweep_peak(scores, m):
    """The most memory the sweep of `scores` holds at once, in bytes."""
    tracemalloc.start()
    try:
        sweep(scores, ObjectiveConfig(m=m, lambda_grid=default_lambda_grid(1000)))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("m", [100, 500])
def test_sweep_memory_is_bounded(m):
    # blocks of lambdas keep the temporaries at O(BLOCK_ELEMENTS); one unblocked
    # (1000, 1000) float64 temporary alone would be 7.6 MiB
    assert sweep_peak(sample(seed=0), m) <= 4 * 2**20


@pytest.mark.parametrize("m", [100, 500])
def test_sweep_memory_grows_with_the_rank_tables(m):
    # per group of n records the sweep keeps, as `_RankTable` documents, a
    # table of N + 2 int64 for N the least power of two >= 4n, N + 1 bucket
    # flags and n + 2 padded float64 quantiles; building a group's table
    # holds at most eight more arrays of n 8-byte values (the last group's
    # label counts, and this group's members, quantiles, their order, the
    # sorted quantiles, their buckets, those plus one, or its label counts);
    # everything else is the 20k case's 4 MiB
    sizes = (100_000, 100_000)
    tables = [1 << (4 * n - 1).bit_length() for n in sizes]
    kept = sum(8 * (N + 2) + (N + 1) + 8 * (n + 2) for n, N in zip(sizes, tables))
    bound = kept + 8 * 8 * max(sizes) + 4 * 2**20
    assert sweep_peak(sample(*sizes, seed=0), m) <= bound


class TestThresholdCrossing:
    def test_flips_equal_straddles(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            recs = labeled_records(rng, int(rng.integers(20, 200)))
            lam = float(rng.random())
            t = 0.5
            probas = recs.proba
            new_p = fip(recs, lam, 25)
            # continuous draws put no record on a level of the fitted map
            for g, expected in threshold_crossings(recs, lam, 25, t).items():
                members = recs.group == g
                up = np.count_nonzero(members & (probas < t) & (new_p >= t))
                down = np.count_nonzero(members & (probas >= t) & (new_p < t))
                assert (up, down) == expected


class TestSerialization:
    def test_csv_and_json(self, tmp_path):
        rng = np.random.default_rng(10)
        res = sweep(labeled_records(rng, 100),
                    ObjectiveConfig(m=10, lambda_grid=default_lambda_grid(5)))
        csv_path = tmp_path / "sweep.csv"
        json_path = tmp_path / "sweep.json"
        res.write_csv(csv_path)
        res.write_json(json_path)

        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert set(rows[0]) == {"lambda", "accuracy_loss", "fairness_loss", "total_loss"}
        np.testing.assert_allclose([float(r["lambda"]) for r in rows], res.lambdas)

        with open(json_path) as fh:
            payload = json.load(fh)
        assert payload["lambda_star"] == res.lambda_star
        assert payload["min_total_loss"] == res.min_total_loss
        assert payload["config"] == {"theta": 0.5, "threshold": 0.5, "m": 10, "grid_size": 5}

    def test_numpy_integer_m_is_written_as_an_int(self, tmp_path):
        config = ObjectiveConfig(m=np.int64(10), lambda_grid=default_lambda_grid(5))
        assert type(config.m) is int
        sweep(labeled_records(np.random.default_rng(10), 100), config).write_json(
            tmp_path / "sweep.json")
        assert json.loads((tmp_path / "sweep.json").read_text())["config"]["m"] == 10

    @pytest.mark.parametrize("grid", [1, 1000, 32769])
    def test_json_is_json_dumps_indent_2(self, tmp_path, grid):
        # the decision alone, whatever the grid size: every row is in sweep.csv
        res = sweep(labeled_records(np.random.default_rng(10), 100),
                    ObjectiveConfig(m=10, lambda_grid=default_lambda_grid(grid)))
        res.write_json(tmp_path / "sweep.json")
        written = (tmp_path / "sweep.json").read_bytes()
        payload = json.loads(written)
        assert written == json.dumps(payload, indent=2).encode()
        assert set(payload) == {"lambda_star", "min_total_loss", "config"}
        assert payload["config"]["grid_size"] == grid

    @pytest.mark.parametrize("values", [[0.0, 1.0, 0.1, 1e-05, 5e-324],
                                        [float("nan"), float("inf"), -float("inf"), -0.0, 0.5]])
    def test_json_of_hand_built_result(self, tmp_path, values):
        values = np.array(values)
        res = SweepResult(np.sort(values), values, values[::-1].copy(), values, values[0],
                          values[-1], ObjectiveConfig(m=10, lambda_grid=default_lambda_grid(5)))
        res.write_json(tmp_path / "sweep.json")
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert list(payload) == ["lambda_star", "min_total_loss", "config"]
        # each float round-trips as json writes it, NaN and Infinity included
        assert np.array_equal([payload["lambda_star"], payload["min_total_loss"]],
                              [values[0], values[-1]], equal_nan=True)
