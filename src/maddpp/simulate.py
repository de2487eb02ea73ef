"""Synthetic predicted-probability generator with two known source densities.

Group 0 probabilities follow a gamma(4, 1) density compressed onto [0, 1]
(x-axis squeezed by 11 about its anchor at 0, then renormalized); group 1
follows a normal(0.55, 1) density with its x-axis squeezed by 10 about the
mean (so the peak stays at 0.55), likewise truncated and renormalized.
Labels are Bernoulli draws with the sampled probability as success rate,
so the data behave like the output of a well-calibrated but group-biased
classifier.
"""

from __future__ import annotations

import math

import numpy as np

from .densities import G0, G1, Scores

GAMMA_4_FACTORIAL = 6.0  # Gamma(4) for the integer-shape closed form
GAMMA_XSCALE = 11.0
NORMAL_MEAN = 0.55
NORMAL_SD = 1.0
NORMAL_XSCALE = 10.0
CDF_TABLE_NODES = 10_001


def _gamma41_pdf(z):
    """gamma(shape=4, rate=1) density, closed form for integer shape."""
    z = np.asarray(z, dtype=float)
    return np.where(z >= 0, z ** 3 * np.exp(-np.minimum(z, 700.0)) / GAMMA_4_FACTORIAL, 0.0)


def _raw_g1(x):
    """normal(NORMAL_MEAN, NORMAL_SD) density squeezed by NORMAL_XSCALE about
    its mean, which keeps the peak at NORMAL_MEAN."""
    z = NORMAL_MEAN + NORMAL_XSCALE * (np.asarray(x, dtype=float) - NORMAL_MEAN)
    return (np.exp(-0.5 * ((z - NORMAL_MEAN) / NORMAL_SD) ** 2)
            / (NORMAL_SD * math.sqrt(2 * math.pi)))


_XS = np.linspace(0.0, 1.0, CDF_TABLE_NODES)  # the nodes of the CDF tables
# the normalizing constants of the two densities on [0, 1], by the trapezoid rule
C0 = float(np.trapezoid(_gamma41_pdf(GAMMA_XSCALE * _XS), _XS))
C1 = float(np.trapezoid(_raw_g1(_XS), _XS))


def pdf_g0(x):
    """Normalized truncated density of group 0 probabilities; 0 outside [0, 1]."""
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.0) & (x <= 1.0)
    return np.where(inside, _gamma41_pdf(GAMMA_XSCALE * x) / C0, 0.0)


def pdf_g1(x):
    """Normalized truncated density of group 1 probabilities; 0 outside [0, 1]."""
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.0) & (x <= 1.0)
    return np.where(inside, _raw_g1(x) / C1, 0.0)


def tabulated_cdf(pdf_vals: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral of a tabulated pdf, rescaled to end at 1."""
    widths = np.diff(xs)
    increments = 0.5 * (pdf_vals[1:] + pdf_vals[:-1]) * widths
    cdf = np.concatenate([[0.0], np.cumsum(increments)])
    return cdf / cdf[-1]


def sample(n_g0: int = 10_000, n_g1: int = 10_000, seed: int = 0) -> Scores:
    """Draw the full record set: group 0 first, then group 1.

    A single seeded generator drives both the inverse-transform probability
    draws and the Bernoulli labels, consumed in record order, so the whole
    experiment is reproducible from the seed alone.
    """
    cdf0 = tabulated_cdf(pdf_g0(_XS), _XS)
    cdf1 = tabulated_cdf(pdf_g1(_XS), _XS)

    rng = np.random.default_rng(seed)
    probas, groups, labels = [], [], []
    for group, cdf, count in ((G0, cdf0, n_g0), (G1, cdf1, n_g1)):
        draws = rng.random((count, 2))
        p = np.interp(draws[:, 0], cdf, _XS)  # inverse transform
        probas.append(p)
        groups.append(np.full(count, group))
        labels.append((draws[:, 1] < p).astype(int))
    return Scores(np.concatenate(probas), np.concatenate(groups), np.concatenate(labels))
