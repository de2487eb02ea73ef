"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 8 needs a real flat course CSV supplied via the
MADDPP_COURSE_CSV environment variable and is skipped otherwise.
"""

import os

import numpy as np
import pytest

from maddpp.densities import POOLED, Scores, bin_index, build_density_vector, madd
from maddpp.model import gradient
from maddpp.objective import ObjectiveConfig, apply_threshold, sweep
from maddpp.simulate import SimulationSpec, pdf_g0, pdf_g1, sample, tabulated_cdf
from maddpp.transport import fip
from train_oracle import loss

SEEDS = (0, 1, 2)


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def simulated_sweeps():
    config = ObjectiveConfig(theta=0.5, threshold=0.5, m=100,
                             lambda_grid=np.linspace(0, 1, 1000))
    return {seed: sweep(sample(SimulationSpec(seed=seed)), config)
            for seed in SEEDS}


def test_criterion_1_simulated_reproduction(simulated_sweeps):
    details = []
    ok = True
    for seed, res in simulated_sweeps.items():
        i_star = int(np.nonzero(res.lambdas == res.lambda_star)[0][0])
        acc0 = res.accuracy_losses[0]
        fair0 = res.fairness_losses[0]
        checks = (
            abs(acc0 - 0.361) <= 0.02,
            abs(fair0 - 0.598) <= 0.04,
            res.fairness_losses.min() <= 0.10,
            res.accuracy_losses[i_star] <= acc0 + 0.05,
            res.lambda_star >= 0.90,
            abs(res.min_total_loss - 0.226) <= 0.02,
        )
        ok = ok and all(checks)
        details.append(f"seed {seed}: acc0={acc0:.3f} fair0={fair0:.3f} "
                       f"lam*={res.lambda_star:.3f} min={res.min_total_loss:.3f}")
    report(1, ok, "; ".join(details))


def test_criterion_2_madd_properties():
    rng = np.random.default_rng(42)
    worst = 0.0
    ok = True
    for _ in range(1000):
        m = int(rng.integers(2, 40))
        a = rng.random(m)
        b = rng.random(m)
        p = rng.random(m)
        a, b, p = a / a.sum(), b / b.sum(), p / p.sum()
        lam = float(rng.random())
        v = madd(np.stack((a, b)))
        ok = ok and v == madd(np.stack((b, a))) and 0.0 <= v <= 2.0
        mixed = abs(madd(np.stack(((1 - lam) * a + lam * p, (1 - lam) * b + lam * p)))
                    - (1 - lam) * v)
        worst = max(worst, mixed)
    d = [0.5, 0.5, 0, 0]
    ok = ok and madd(np.array([d, d])) == 0.0
    ok = ok and madd(np.array([d, [0, 0, 0.5, 0.5]])) == 2.0
    ok = ok and worst <= 1e-12
    report(2, ok, f"1000 random triples, linearity worst error {worst:.2e}")


def test_criterion_3_pooling_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 30))
        a = rng.random(int(rng.integers(1, 200)))
        b = rng.random(int(rng.integers(1, 200)))
        both = np.concatenate([a, b])
        pooled = build_density_vector(Scores(both, np.repeat([0, 1], [a.size, b.size])), m)
        direct = np.bincount(bin_index(both, m), minlength=m) / both.size
        worst = max(worst, float(np.abs(pooled[POOLED] - direct).max()))
    report(3, worst <= 1e-12, f"100 random pairs, worst elementwise error {worst:.2e}")


def test_criterion_4_fip_properties():
    rng = np.random.default_rng(11)
    ok = True
    max_dev0 = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 40))
        m = int(rng.integers(2, 30))
        groups = rng.integers(0, 2, n)
        groups[0], groups[1] = 0, 1
        probas = rng.random(n)
        records = Scores(probas, groups)
        lam = float(rng.random())
        out = fip(records, lam, m)
        ok = ok and bool(np.all((out >= 0.0) & (out <= 1.0)))
        for g in (0, 1):
            mask = groups == g
            order = np.argsort(probas[mask], kind="stable")
            ok = ok and bool(np.all(np.diff(out[mask][order]) >= -1e-12))
        out0 = fip(records, 0.0, m)
        max_dev0 = max(max_dev0, float(np.abs(out0 - probas).max() - 1 / m))
        ok = ok and np.array_equal(fip(records, lam, m), out)  # deterministic
    ok = ok and max_dev0 <= 1e-12
    report(4, ok, f"1000 random batches; lambda=0 deviation beyond 1/m: {max_dev0:.2e}")


def test_criterion_5_threshold_crossing():
    rng = np.random.default_rng(23)
    t = 0.5
    ok = True
    for _ in range(100):
        n = int(rng.integers(10, 150))
        groups = rng.integers(0, 2, n)
        groups[0], groups[1] = 0, 1
        probas = rng.random(n)
        records = Scores(probas, groups)
        lam = float(rng.random())
        new_p = fip(records, lam, 20)
        flipped = set(np.nonzero(apply_threshold(new_p, t)
                                 != apply_threshold(probas, t))[0])
        straddle = set(np.nonzero((probas >= t) != (new_p >= t))[0])
        ok = ok and flipped == straddle
    report(5, ok, "100 random (records, lambda) pairs, flip set == straddle set")


def test_criterion_6_logistic_gradient():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(10):
        X = rng.normal(size=(25, 5))
        y = rng.integers(0, 2, 25).astype(float)
        w = rng.normal(size=5)
        b = float(rng.normal())
        gw, gb = gradient(w, b, X, y, 1e-4)
        step = 1e-5
        for j in range(5):
            wp, wm = w.copy(), w.copy()
            wp[j] += step
            wm[j] -= step
            fd = (loss(wp, b, X, y, 1e-4) - loss(wm, b, X, y, 1e-4)) / (2 * step)
            worst = max(worst, abs(gw[j] - fd) / max(abs(fd), 1e-8))
        fd = (loss(w, b + step, X, y, 1e-4) - loss(w, b - step, X, y, 1e-4)) / (2 * step)
        worst = max(worst, abs(gb - fd) / max(abs(fd), 1e-8))
    report(6, worst <= 1e-5, f"10 random instances, worst relative error {worst:.2e}")


def test_criterion_7_sampler_fidelity():
    spec = SimulationSpec(seed=0)
    records = sample(spec)
    xs = np.linspace(0, 1, 10_001)
    ks_stats = []
    for group, pdf in ((0, pdf_g0), (1, pdf_g1)):
        probas = np.sort(records.proba[records.group == group])
        theory = np.interp(probas, xs, tabulated_cdf(pdf(xs, spec), xs))
        n = probas.size
        ks = max(np.abs(np.arange(1, n + 1) / n - theory).max(),
                 np.abs(theory - np.arange(0, n) / n).max())
        ks_stats.append(ks)

    def simpson(f, n=20_000):
        grid = np.linspace(0, 1, n + 1)
        ys = f(grid)
        h = 1.0 / n
        return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())

    c0 = simpson(lambda x: pdf_g0(x, spec) * spec.c0)
    c1 = simpson(lambda x: pdf_g1(x, spec) * spec.c1)
    rel0 = abs(c0 - spec.c0) / spec.c0
    rel1 = abs(c1 - spec.c1) / spec.c1
    ok = max(ks_stats) <= 0.02 and rel0 <= 1e-6 and rel1 <= 1e-6
    report(7, ok, f"KS = {ks_stats[0]:.4f}/{ks_stats[1]:.4f}, "
                  f"normalization rel. err = {rel0:.2e}/{rel1:.2e}")


def test_criterion_8_course_data_pipeline(tmp_path):
    path = os.environ.get("MADDPP_COURSE_CSV")
    if not path:
        pytest.skip("ACCEPTANCE 8: SKIP — set MADDPP_COURSE_CSV to a flat course CSV")
    sensitive = os.environ.get("MADDPP_COURSE_SENSITIVE", "gender")
    from maddpp.cli import main

    assert main(["--out-dir", str(tmp_path), "pipeline", path,
                 "--sensitive", sensitive]) == 0
    import json

    metrics = json.loads((tmp_path / "test_metrics.json").read_text())
    before = metrics["before"]["fairness_loss"]
    after = metrics["after"]["fairness_loss"]
    if before < 0.3:
        pytest.skip(f"ACCEPTANCE 8: SKIP — initial fairness loss {before:.3f} < 0.3")
    acc_delta = metrics["after"]["accuracy_loss"] - metrics["before"]["accuracy_loss"]
    ok = after <= 0.5 * before and acc_delta <= 0.02
    report(8, ok, f"fairness {before:.3f} -> {after:.3f}, accuracy delta {acc_delta:+.3f}")
