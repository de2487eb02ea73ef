"""Seeded generator of a flat course CSV for the `course-pipeline` workload.

Deterministic from its seed, numpy only, no download.  The ordinal bands
use the vocabulary of `maddpp.model.ORDINAL_LEVELS`, copied here so the
inputs stay fixed when the program changes; a test checks the copy.
"""

from __future__ import annotations

import numpy as np

ORDINAL_LEVELS = {
    "age": ["0-35", "35-55", "55<="],
    "highest_education": [
        "No Formal quals",
        "Lower Than A Level",
        "A Level or Equivalent",
        "HE Qualification",
        "Post Graduate Qualification",
    ],
    "poverty": [
        "0-10%", "10-20%", "20-30%", "30-40%", "40-50%",
        "50-60%", "60-70%", "70-80%", "80-90%", "90-100%",
    ],
}
REGIONS = [f"region_{i:02d}" for i in range(12)]
COLUMNS = ["gender", "age", "highest_education", "poverty", "studied_credits",
           "mean_score", "region", "disability", "label"]
DEFAULT_ROWS = 30_000


def generate(path, seed: int, rows: int = DEFAULT_ROWS) -> int:
    """Write `rows` records to `path`; returns the row count.

    `gender` splits about 80/20 (M/F); the label is a Bernoulli draw from a
    logistic score that depends on every feature, gender included.
    """
    rng = np.random.default_rng(seed)
    male = rng.random(rows) < 0.8
    age = rng.choice(3, size=rows, p=[0.65, 0.28, 0.07])
    edu = rng.choice(5, size=rows, p=[0.05, 0.35, 0.35, 0.2, 0.05])
    poverty = rng.integers(0, 10, size=rows)
    credits = 30 * rng.integers(1, 9, size=rows)
    score = np.round(np.clip(rng.normal(68.0, 14.0, size=rows), 0.0, 100.0), 1)
    region = rng.integers(0, len(REGIONS), size=rows)
    disabled = rng.random(rows) < 0.1
    region_effect = np.linspace(-0.4, 0.4, len(REGIONS))[region]
    z = (-0.3 + 0.06 * (score - 68.0) + 0.35 * edu - 0.09 * poverty
         + 0.15 * age - 0.004 * (credits - 120) + 0.6 * male
         - 0.4 * disabled + region_effect)
    label = (rng.random(rows) < 0.5 * (1.0 + np.tanh(0.5 * z))).astype(int)

    lines = [",".join(COLUMNS)]
    levels_age = ORDINAL_LEVELS["age"]
    levels_edu = ORDINAL_LEVELS["highest_education"]
    levels_pov = ORDINAL_LEVELS["poverty"]
    for i in range(rows):
        lines.append(",".join((
            "M" if male[i] else "F", levels_age[age[i]], levels_edu[edu[i]],
            levels_pov[poverty[i]], str(credits[i]), f"{score[i]:.1f}",
            REGIONS[region[i]], "Y" if disabled[i] else "N", str(label[i]))))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return rows
