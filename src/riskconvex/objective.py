"""Risk-averse convexified objectives and their Monte Carlo estimators.

Given a bounded field f, a risk factor alpha, perturbation covariance
Sigma and quadratic weight R, the convexified objective is

    (1/alpha) * log E[exp(alpha f(theta + w))] + 0.5 theta' R theta,
    w ~ N(0, Sigma),

and its exponentiated form is

    G(theta) = E[exp(alpha f(theta + w) + 0.5 alpha theta' R theta)].

The problem is convex whenever alpha R - inv(Sigma) is positive
semidefinite; :func:`check_convexity_certificate` evaluates that margin.
Aggregation of exponentials always subtracts the max exponent first, and
standard errors of log-of-mean estimates use the delta method.

All estimators are pure given their sampler, so they are safe to call
from multiple threads as long as each thread owns its own sampler (see
:mod:`riskconvex.sampling`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    DegenerateEstimateError,
    EstimateOverflowError,
)
from .fields import ScalarField
from .sampling import GaussianSampler, as_covariance, spd_inverse

LOG_FLOAT_MAX = float(np.log(np.finfo(np.float64).max))


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


@dataclass
class RiskModel:
    """The triple (alpha, Sigma, R) governing the transform.

    Attributes:
        alpha: risk factor, > 0.
        sigma: perturbation covariance, symmetric positive definite (k x k).
        reg: quadratic weight, symmetric positive semidefinite (k x k).
    """

    alpha: float
    sigma: np.ndarray
    reg: np.ndarray

    def __post_init__(self):
        self.alpha = float(self.alpha)
        if not self.alpha > 0.0:
            raise ContractError("alpha must be positive")
        self.sigma = as_covariance(self.sigma)
        self.reg = as_covariance(self.reg, dim=self.sigma.shape[0])
        w = np.linalg.eigvalsh(self.reg)
        if w[0] < -1e-10 * (1.0 + abs(w[-1])):
            raise ContractError(f"reg must be positive semidefinite (min eigenvalue {w[0]:.3e})")

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    def quad(self, theta) -> float:
        """0.5 * theta' R theta."""
        theta = np.asarray(theta, dtype=float)
        return 0.5 * float(theta @ self.reg @ theta)

    def sampler(self, seed) -> GaussianSampler:
        """A perturbation sampler with this model's covariance."""
        return GaussianSampler(seed, self.sigma)


def isotropic_model(alpha: float, sigma_sq: float, kappa: float, dim: int) -> RiskModel:
    """RiskModel with Sigma = sigma_sq * I and R = kappa * I."""
    return RiskModel(alpha, sigma_sq * np.eye(dim), kappa * np.eye(dim))


@dataclass
class ConvexityCertificate:
    """Result of the certificate check alpha R >= inv(Sigma)."""

    holds: bool
    margin: float
    tol: float


def psd_tolerance(lam_max_areg: float, lam_max_sigma_inv: float) -> float:
    """Scale-relative semidefiniteness tolerance used by all certificate checks."""
    return 1e-10 * (1.0 + lam_max_areg + lam_max_sigma_inv)


def check_convexity_certificate(model: RiskModel) -> ConvexityCertificate:
    """Check the convexity condition alpha R >= inv(Sigma).

    Returns the smallest eigenvalue of alpha R - inv(Sigma) as the margin;
    the certificate holds when the margin is >= -tol with a scale-relative
    tolerance.  Raises :class:`IllConditionedError` if Sigma cannot be
    inverted within conditioning limits.
    """
    sigma_inv = spd_inverse(model.sigma, name="sigma")
    areg = model.alpha * model.reg
    m = _sym(areg - sigma_inv)
    margin = float(np.linalg.eigvalsh(m)[0])
    tol = psd_tolerance(
        float(np.linalg.eigvalsh(_sym(areg))[-1]),
        float(np.linalg.eigvalsh(sigma_inv)[-1]),
    )
    return ConvexityCertificate(holds=margin >= -tol, margin=margin, tol=tol)


@dataclass
class Estimate:
    """A Monte Carlo estimate with its standard error and sample count."""

    value: float
    std_err: float
    n: int


def _check_args(f: ScalarField, model: RiskModel, sampler: GaussianSampler, n: int,
                min_n: int = 2) -> None:
    if f.dim != model.dim:
        raise ContractError(f"field dim {f.dim} does not match model dim {model.dim}")
    if sampler.dim != model.dim:
        raise ContractError(f"sampler dim {sampler.dim} does not match model dim {model.dim}")
    if n < min_n:
        raise ContractError(f"need at least {min_n} samples, got {n}")


def smoothed_value(f: ScalarField, model: RiskModel, theta, n: int,
                   sampler: GaussianSampler) -> Estimate:
    """Monte Carlo estimate of the smoothed value E[f(theta + w)]."""
    _check_args(f, model, sampler, n)
    theta = np.asarray(theta, dtype=float)
    vals = f.evaluate_batch(theta + sampler.draw(n))
    se = float(vals.std(ddof=1) / np.sqrt(n))
    return Estimate(value=float(vals.mean()), std_err=se, n=n)


def log_mean_exp(a: np.ndarray) -> tuple[float, float]:
    """(log mean exp(a), delta-method std err of it), with max subtraction.

    Raises :class:`DegenerateEstimateError` when every exponent is -inf.
    """
    a = np.asarray(a, dtype=float)
    m = float(a.max())
    if m == -np.inf:
        raise DegenerateEstimateError("every sampled exponent underflowed to -inf")
    w = np.exp(a - m)
    mean_w = float(w.mean())
    se_w = float(w.std(ddof=1) / np.sqrt(a.size))
    return m + float(np.log(mean_w)), se_w / mean_w


def log_exp_objective(f: ScalarField, model: RiskModel, theta, n: int,
                      sampler: GaussianSampler) -> Estimate:
    """Estimate of (1/alpha) log E[exp(alpha f(theta+w))] + 0.5 theta' R theta."""
    _check_args(f, model, sampler, n)
    theta = np.asarray(theta, dtype=float)
    vals = f.evaluate_batch(theta + sampler.draw(n))
    lme, se = log_mean_exp(model.alpha * vals)
    return Estimate(value=lme / model.alpha + model.quad(theta),
                    std_err=se / model.alpha, n=n)


def check_exponents(expo: np.ndarray) -> np.ndarray:
    """Return the exponents, or raise EstimateOverflowError naming the
    first sample whose exp() would overflow."""
    over = expo > LOG_FLOAT_MAX
    if over.any():
        i = int(np.argmax(over))
        raise EstimateOverflowError(
            f"exponent {expo[i]:.6g} at sample {i} exceeds the representable range",
            sample_index=i,
        )
    return expo


def _exponents(f: ScalarField, model: RiskModel, theta, draws: np.ndarray) -> np.ndarray:
    """alpha f(theta+w) + 0.5 alpha theta' R theta per draw, with overflow check."""
    vals = f.evaluate_batch(theta + draws)
    return check_exponents(model.alpha * vals + model.alpha * model.quad(theta))


def exp_objective(f: ScalarField, model: RiskModel, theta, n: int,
                  sampler: GaussianSampler) -> Estimate:
    """Estimate of G(theta) = E[exp(alpha f(theta+w) + 0.5 alpha theta' R theta)]."""
    _check_args(f, model, sampler, n)
    theta = np.asarray(theta, dtype=float)
    g = np.exp(_exponents(f, model, theta, sampler.draw(n)))
    return Estimate(value=float(g.mean()), std_err=float(g.std(ddof=1) / np.sqrt(n)), n=n)


def unbiased_grad_estimate(f: ScalarField, model: RiskModel, theta,
                           sampler: GaussianSampler) -> np.ndarray:
    """Single-draw unbiased estimate of the gradient of G.

    For one draw w the sample is

        alpha * exp(alpha f(theta+w) + 0.5 alpha theta' R theta)
              * (grad f(theta+w) + R theta).

    Averaging over draws converges to grad G, provided the exponential
    moment E[exp(2 alpha f) ||grad f + R theta||^2] is finite (assumed,
    not checked; no computable test exists).
    """
    if f.gradient is None:
        raise ContractError("unbiased_grad_estimate requires a field with a gradient")
    _check_args(f, model, sampler, n=2)
    theta = np.asarray(theta, dtype=float)
    draws = sampler.draw(1)
    expo = _exponents(f, model, theta, draws)
    g = f.grad(theta + draws[0])
    return model.alpha * float(np.exp(expo[0])) * (g + model.reg @ theta)


def unbiased_grad_mean(f: ScalarField, model: RiskModel, theta, n: int,
                       sampler: GaussianSampler) -> tuple[np.ndarray, np.ndarray]:
    """Mean and per-coordinate standard error of n single-draw gradient samples."""
    if f.gradient is None:
        raise ContractError("unbiased_grad_mean requires a field with a gradient")
    _check_args(f, model, sampler, n)
    theta = np.asarray(theta, dtype=float)
    draws = sampler.draw(n)
    expo = _exponents(f, model, theta, draws)
    grads = f.grad_batch(theta + draws)
    samples = model.alpha * np.exp(expo)[:, None] * (grads + model.reg @ theta)
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(n)
    return mean, se
