"""Reference loss and trainer for the logistic model.

`loss` is the penalized objective that `maddpp.model.train` minimizes:
mean binary cross-entropy plus l2 * ||w||^2, bias unpenalized.
`oracle_train` is the full-batch gradient-descent loop the package used
before Newton steps: every iteration evaluates the loss with its gradient
and stops on a non-finite loss.  Newton steps run to the optimum, so the
trained model must reach a loss no higher than this loop's, both in the
standardized frame, which `standardized_fit` exposes.  `load_model` reads
back the model.json that `LogisticModel.save` writes.
"""

import json

import numpy as np

from maddpp import model
from maddpp.errors import TrainingDiverged
from maddpp.model import LogisticModel, _scaling, _sigmoid


def load_model(path) -> LogisticModel:
    """The trained model saved at `path` by `LogisticModel.save`."""
    with open(path) as fh:
        d = json.load(fh)
    return LogisticModel(weights=np.array(d["weights"]), bias=float(d["bias"]),
                         feature_names=d["feature_names"], training={})


def standardized_fit(monkeypatch, X, y, **train_kwargs):
    """(model, Xs, w, b): `model.train(X, y, **train_kwargs)`, the
    standardized features its Newton steps ran on, and the weights and bias
    they reached there."""
    fits = []
    newton = model._newton

    def captured(Xs, *args):
        w, b, steps, norm = newton(Xs, *args)
        fits.append((Xs, w, b))
        return w, b, steps, norm

    with monkeypatch.context() as patch:
        patch.setattr(model, "_newton", captured)
        fitted = model.train(X, y, **train_kwargs)
    (Xs, w, b), = fits
    return fitted, Xs, w, b


def loss(weights, bias, X, y, l2):
    """Mean binary cross-entropy plus l2 * ||w||^2."""
    p = _sigmoid(X @ weights + bias)
    eps = 1e-12
    value = -float(np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
    return value + l2 * float(weights @ weights)


def loss_and_gradient(weights, bias, X, y, l2):
    """`loss` with its exact gradient."""
    resid = _sigmoid(X @ weights + bias) - y
    grad_w = X.T @ resid / X.shape[0] + 2.0 * l2 * weights
    return loss(weights, bias, X, y, l2), grad_w, float(resid.mean())


def oracle_train(X, y, rules, l2=1e-4, lr=0.1, max_iter=2000, tol=1e-6):
    """Returns (weights, bias) in the standardized frame: fitted on X with
    its "numeric" columns of `rules` standardized."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    numeric = np.array([rule == "numeric" for rule in rules.values()])
    mean, std = _scaling(X, numeric, list(rules))
    Xs = (X - mean) / std
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(max_iter):
        value, gw, gb = loss_and_gradient(w, b, Xs, y, l2)
        if not np.isfinite(value):
            raise TrainingDiverged("training loss became non-finite")
        if np.sqrt(float(gw @ gw) + gb * gb) < tol:
            break
        w -= lr * gw
        b -= lr * gb
    return w, b
