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
from .sampling import GaussianSampler, as_covariance, as_psd_weight, spd_inverse

LOG_FLOAT_MAX = float(np.log(np.finfo(np.float64).max))


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
        self.reg = as_psd_weight(self.reg, dim=self.sigma.shape[0], name="reg")

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


def psd_tolerance(lam_max_areg, lam_max_sigma_inv):
    """Scale-relative semidefiniteness tolerance of the convexity
    certificate, elementwise on arrays (see :func:`certificate_margins`)."""
    return 1e-10 * (1.0 + lam_max_areg + lam_max_sigma_inv)


def certificate_margins(alpha: float, regs, noise_invs) -> tuple[np.ndarray, np.ndarray]:
    """(margins, tols) of the convexity condition alpha R_t >= inv(Sigma_t)
    over stacked (T, k, k) blocks R_t and inv(Sigma_t): margin_t =
    lambda_min(sym(alpha R_t - inv(Sigma_t))), tol_t = psd_tolerance(
    lambda_max(alpha R_t), lambda_max(inv(Sigma_t))), and step t holds when
    margin_t >= -tol_t.  Every certificate check in the package is this rule.
    """
    areg = alpha * np.asarray(regs, dtype=float)
    noise_invs = np.asarray(noise_invs, dtype=float)
    d = areg - noise_invs
    margins = np.linalg.eigvalsh(0.5 * (d + d.transpose(0, 2, 1)))[:, 0]
    tols = psd_tolerance(np.linalg.eigvalsh(areg)[:, -1], np.linalg.eigvalsh(noise_invs)[:, -1])
    return margins, tols


def check_convexity_certificate(model: RiskModel) -> ConvexityCertificate:
    """Check the convexity condition alpha R >= inv(Sigma), the one-block
    case of :func:`certificate_margins`.

    Returns the smallest eigenvalue of alpha R - inv(Sigma) as the margin;
    the certificate holds when the margin is >= -tol with a scale-relative
    tolerance.  Raises :class:`IllConditionedError` if Sigma cannot be
    inverted within conditioning limits.
    """
    sigma_inv = spd_inverse(model.sigma, name="sigma")
    margins, tols = certificate_margins(model.alpha, model.reg[None], sigma_inv[None])
    margin, tol = float(margins[0]), float(tols[0])
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

    The weights w = exp(a - max a) lie in (0, 1] with the largest exactly
    1, so their variance comes from one pass of sums,
    (sum w^2 - sum w * mean w) / (n - 1), clipped at 0: its rounding is
    about eps (1 + mean^2 / variance) relative (Chan, Golub & LeVeque
    1983), and equal weights give exactly 0.  The input is not modified.

    Raises :class:`ContractError` for fewer than 2 exponents,
    :class:`EstimateOverflowError` naming the first +inf exponent, and
    :class:`DegenerateEstimateError` naming the first NaN exponent or
    when every exponent is -inf.
    """
    a = np.asarray(a, dtype=float)
    if a.size < 2:
        raise ContractError(f"need at least 2 samples, got {a.size}")
    m = float(a.max())
    if np.isnan(m):
        i = int(np.argmax(np.isnan(a)))
        raise DegenerateEstimateError(f"exponent at sample {i} is NaN", sample_index=i)
    if m == np.inf:
        i = int(np.argmax(a == np.inf))
        raise EstimateOverflowError(f"exponent at sample {i} is +inf", sample_index=i)
    if m == -np.inf:
        raise DegenerateEstimateError("every sampled exponent underflowed to -inf")
    w = a - m
    np.exp(w, out=w)
    s1 = w.sum()
    mean_w = s1 / a.size
    var_w = np.maximum(w @ w - s1 * mean_w, 0.0) / (a.size - 1)
    return m + float(np.log(mean_w)), float(np.sqrt(var_w / a.size)) / float(mean_w)


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


def _exponents(f: ScalarField, model: RiskModel, theta, points: np.ndarray) -> np.ndarray:
    """alpha f(theta+w) + 0.5 alpha theta' R theta per perturbed point
    theta + w, with overflow check."""
    vals = f.evaluate_batch(points)
    return check_exponents(model.alpha * vals + model.alpha * model.quad(theta))


def _grad_samples(f: ScalarField, model: RiskModel, theta: np.ndarray, n: int,
                  sampler: GaussianSampler) -> np.ndarray:
    """n single-draw gradient samples of G, (n, k): per draw w,
    alpha exp(alpha f(theta+w) + 0.5 alpha theta' R theta) (grad f(theta+w) + R theta),
    scaled in place on one (n, k) array."""
    points = theta + sampler.draw(n)
    expo = _exponents(f, model, theta, points)
    out = f.grad_batch(points) + model.reg @ theta
    out *= (model.alpha * np.exp(expo))[:, None]
    return out


def exp_objective(f: ScalarField, model: RiskModel, theta, n: int,
                  sampler: GaussianSampler) -> Estimate:
    """Estimate of G(theta) = E[exp(alpha f(theta+w) + 0.5 alpha theta' R theta)]."""
    _check_args(f, model, sampler, n)
    theta = np.asarray(theta, dtype=float)
    g = np.exp(_exponents(f, model, theta, theta + sampler.draw(n)))
    return Estimate(value=float(g.mean()), std_err=float(g.std(ddof=1) / np.sqrt(n)), n=n)


def unbiased_grad_mean(f: ScalarField, model: RiskModel, theta, n: int,
                       sampler: GaussianSampler) -> tuple[np.ndarray, np.ndarray]:
    """Mean and per-coordinate standard error of n single-draw gradient samples."""
    if f.gradient is None:
        raise ContractError("unbiased_grad_mean requires a field with a gradient")
    _check_args(f, model, sampler, n)
    theta = np.asarray(theta, dtype=float)
    samples = _grad_samples(f, model, theta, n, sampler)
    mean = samples.mean(axis=0)
    # np.std(axis=0, ddof=1)'s own arithmetic, reusing the mean: same bits.
    d = samples - mean
    d *= d
    se = np.sqrt(d.sum(axis=0) / (n - 1)) / np.sqrt(n)
    return mean, se
