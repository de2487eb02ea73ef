"""Reference trainer: the gradient-descent loop that also evaluates the loss.

This is `maddpp.model.train` as it was before the loss left the loop: every
iteration computes the mean cross-entropy with its gradient and stops on a
non-finite loss.  The weight update reads only the gradient, so the fast
trainer must match it exactly (`==`, no tolerance) on weights, bias and
iteration count.
"""

import numpy as np

from maddpp.errors import TrainingDiverged
from maddpp.model import Standardizer, _sigmoid


def loss_and_gradient(weights, bias, X, y, l2):
    """Mean binary cross-entropy plus l2 * ||w||^2, with its exact gradient."""
    n = X.shape[0]
    z = X @ weights + bias
    p = _sigmoid(z)
    eps = 1e-12
    loss = -float(np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
    loss += l2 * float(weights @ weights)
    resid = p - y
    grad_w = X.T @ resid / n + 2.0 * l2 * weights
    grad_b = float(resid.mean())
    return loss, grad_w, grad_b


def oracle_train(X, y, l2=1e-4, lr=0.1, max_iter=2000, tol=1e-6, standardize=True,
                 numeric_columns=None):
    """Returns (weights, bias, iterations), where iterations counts loss evaluations."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    std = Standardizer.fit(X, numeric_columns) if standardize else None
    Xs = std.transform(X) if std is not None else X
    w = np.zeros(X.shape[1])
    b = 0.0
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        loss, gw, gb = loss_and_gradient(w, b, Xs, y, l2)
        if not np.isfinite(loss):
            raise TrainingDiverged("training loss became non-finite")
        if np.sqrt(float(gw @ gw) + gb * gb) < tol:
            break
        w -= lr * gw
        b -= lr * gb
    return w, b, iterations
