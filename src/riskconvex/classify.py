"""Binary classification with the convexified misclassification loss.

Perturbing a prediction z = theta' x with N(0, sigma^2) noise turns the
0/-inf misclassification loss into the closed-form convex objective

    log(0.5 * erfc(y z / (sqrt(2) sigma))) + z^2 / (2 sigma^2)

per example: a smoothed log-probability-of-error data term plus a
prediction-space quadratic.  The expectation is exact, so training uses
deterministic full-batch gradient descent with backtracking rather than
sampling.  On separable data the objective keeps decreasing slowly (like
-log margin) with no attained minimizer; descent stops on its gradient
and step tolerances, which does not affect the learned decision rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .csvio import read_matrix, write_csv
from .datasets import Dataset, sign_plus
from .errors import ConfigError, ContractError, DivergenceError

_SQRT_PI = float(np.sqrt(np.pi))
_SQRT2 = math.sqrt(2.0)
# Descent steps are at most _STEP0; a line search halving them below _STEP_TOL stalls.
_STEP0 = 1.0
_STEP_TOL = 1e-12


def log_half_erfc(z):
    """log(0.5 * erfc(z)), stable for large positive z via scaled erfc.

    For z <= 0, erfc(z) is in [1, 2] and the direct form is exact; for
    z > 0, log(erfc(z)) = log(erfcx(z)) - z^2 avoids underflow.
    """
    # Imported on first use, like LAPACK in synthesis: scipy.special
    # would otherwise cost every `import riskconvex.cli` ~0.3 s.
    from scipy.special import erfcx

    z = np.asarray(z, dtype=float)
    return _log_half_erfc(z, erfcx(z))


def _log_half_erfc(z: np.ndarray, ex: np.ndarray) -> np.ndarray:
    """:func:`log_half_erfc` of z given ex = erfcx(z)."""
    from scipy.special import erfc

    out = np.empty_like(z)
    neg = z <= 0.0
    out[neg] = np.log(0.5 * erfc(z[neg]))
    pos = ~neg
    out[pos] = np.log(0.5 * ex[pos]) - z[pos] ** 2
    return out


def erfc_loss(theta, x, y, sigma: float) -> float:
    """Per-example convexified objective at prediction theta' x.

    log(0.5 erfc(y theta'x / (sqrt(2) sigma))) + (theta'x)^2 / (2 sigma^2)
    """
    sigma = float(sigma)
    if not sigma > 0.0:
        raise ContractError("sigma must be positive")
    z = float(np.dot(np.asarray(theta, dtype=float), np.asarray(x, dtype=float)))
    arg = float(y) * z / (np.sqrt(2.0) * sigma)
    return float(log_half_erfc(arg)) + z**2 / (2.0 * sigma**2)


def erfc_objective(theta, X, y, sigma: float):
    """(mean objective, gradient) over a dataset, fully vectorized.  One
    erfcx(arg) serves the value (:func:`log_half_erfc`) and the gradient,
    d/dz log(0.5 erfc(z)) = -2 / (sqrt(pi) erfcx(z))."""
    from scipy.special import erfcx

    theta = np.asarray(theta, dtype=float)
    z = X @ theta
    arg = y * z / (_SQRT2 * sigma)
    ex = erfcx(arg)
    terms = _log_half_erfc(arg, ex) + z**2 / (2.0 * sigma**2)
    value = float(np.add.reduce(terms) / terms.size)  # np.mean's sum and division
    dz = -2.0 / (_SQRT_PI * ex) * y / (_SQRT2 * sigma) + z / sigma**2
    grad = X.T @ dz / X.shape[0]
    return value, grad


@dataclass
class ClassifierConfig:
    """Prediction-noise scale, iteration budget and gradient tolerance."""

    sigma: float = 1.0
    max_iters: int = 500
    grad_tol: float = 1e-8

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ContractError("sigma must be positive")
        if self.max_iters < 1:
            raise ContractError("max_iters must be >= 1")
        if not 0.0 <= self.grad_tol < np.inf:
            raise ContractError("grad_tol must be nonnegative and finite")


@dataclass
class ClassifierReport:
    theta: np.ndarray
    objective: float
    iterations: int
    converged: bool
    train_accuracy: float
    test_accuracy: Optional[float] = None


def accuracy(theta, ds: Dataset) -> float:
    """Fraction of examples with sign(theta' x) = y, sign(0) -> +1."""
    preds = sign_plus(ds.X @ np.asarray(theta, dtype=float))
    return float(np.mean(preds == ds.y))


def train_classifier(ds: Dataset, config: ClassifierConfig,
                     test: Optional[Dataset] = None) -> ClassifierReport:
    """Full-batch gradient descent with Armijo backtracking from theta = 0.

    Stops when the gradient norm falls below grad_tol, when the step
    falls below 1e-12 (a stalled line search), or after max_iters.  A
    stalled line search reports ``converged`` only when the gradient
    norm is at most sqrt(grad_tol) (1 + |objective|).  A non-finite objective or gradient
    is a divergence error; a training set with no rows is a
    :class:`ContractError`.
    """
    if ds.size == 0:
        raise ContractError("the training set has no rows")
    if not ds.is_binary():
        raise ContractError("training requires labels in {-1, +1}")
    theta = np.zeros(ds.n_features)
    value, grad = erfc_objective(theta, ds.X, ds.y, config.sigma)
    step = _STEP0
    converged = False
    it = 0
    for it in range(1, config.max_iters + 1):
        gnorm = math.sqrt(grad.dot(grad))  # np.linalg.norm's expression
        if not np.isfinite(value) or not np.isfinite(gnorm):
            raise DivergenceError(f"non-finite objective at iteration {it}", step=it)
        if gnorm <= config.grad_tol:
            converged = True
            break
        step = min(_STEP0, step * 2.0)
        accepted = False
        while step > _STEP_TOL:
            cand = theta - step * grad
            cand_value, cand_grad = erfc_objective(cand, ds.X, ds.y, config.sigma)
            if np.isfinite(cand_value) and cand_value <= value - 1e-4 * step * gnorm**2:
                theta, value, grad = cand, cand_value, cand_grad
                accepted = True
                break
            step *= 0.5
        if not accepted:
            # The line search stalled: converged only if the gradient is
            # small at the scale of the objective, the rule synthesize uses.
            converged = gnorm <= math.sqrt(config.grad_tol) * (1.0 + abs(value))
            break
    return ClassifierReport(
        theta=theta,
        objective=value,
        iterations=it,
        converged=converged,
        train_accuracy=accuracy(theta, ds),
        test_accuracy=None if test is None or test.size == 0 else accuracy(theta, test),
    )


def write_model_csv(path, theta) -> None:
    write_csv(path, [[v] for v in np.asarray(theta, dtype=float)], header=["theta"])


def read_model_csv(path) -> np.ndarray:
    head, theta = read_matrix(path, header=True)
    if len(head) != 1:
        raise ConfigError(f"{path}: expected 1 column, found {len(head)}")
    return theta[:, 0]
