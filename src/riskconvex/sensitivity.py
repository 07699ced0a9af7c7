"""Sensitivity of an objective to Gaussian perturbation, and gap bounds.

The sensitivity of f at theta under (alpha, Sigma) is

    S = (1/alpha) * log E[exp(alpha * (f(theta+w) - fbar(theta)))],

the log exponential moment of the centered perturbation residual.  It is
nonnegative (Jensen) and upper-bounds the suboptimality of the
convexified minimizer measured in the smoothed objective.  For an
L-Lipschitz f the closed-form bound S <= alpha L^2 lam_max(Sigma) / 2
holds for every theta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .fields import ScalarField
from .objective import RiskModel, log_mean_exp, _check_args, _field_mean, _field_values
from .sampling import GaussianSampler


@dataclass
class SensitivityEstimate:
    """Two-pass Monte Carlo estimate of the sensitivity at one point."""

    value: float
    std_err: float
    n: int
    theta: np.ndarray


@dataclass
class SuboptimalityCertificate:
    """An upper bound on the smoothed-objective gap.

    ``kind`` is "lipschitz" for the closed-form bound
    alpha L^2 lam_max(Sigma) / 2, or "estimated" for a Monte Carlo
    sensitivity estimate inflated by three standard errors (one-sided,
    since the certificate is an upper-bound claim).
    """

    gap_bound: float
    kind: str
    inputs: dict = field(default_factory=dict)


def estimate_sensitivity(f: ScalarField, model: RiskModel, theta, n: int,
                         sampler: GaussianSampler) -> SensitivityEstimate:
    """Two-pass estimate of the sensitivity at theta.

    The smoothed mean and the exponential moment use independent derived
    sample streams with the same n per pass; reusing one stream would
    bias the centered exponent.  Each pass fills one array of n values.
    A -inf value in the mean pass, which no centered exponent survives,
    raises :class:`DegenerateEstimateError` naming it; a mean pass whose
    sum overflows, or a centered exponent that does, raises
    :class:`EstimateOverflowError`.  Requires n >= 100.
    """
    theta = _check_args(f, model, sampler, n, theta, min_n=100)
    mean_stream, exp_stream = sampler.split(2)
    fbar = _field_mean(_field_values(f, model, theta, n, mean_stream))
    centered = _field_values(f, model, theta, n, exp_stream)
    with np.errstate(over="ignore"):   # log_mean_exp names a +inf exponent
        centered -= fbar
        centered *= model.alpha
    lme, se = log_mean_exp(centered)
    return SensitivityEstimate(value=lme / model.alpha, std_err=se / model.alpha,
                               n=n, theta=theta)


def lipschitz_gap_bound(lipschitz: float, model: RiskModel) -> SuboptimalityCertificate:
    """Closed-form gap bound alpha L^2 lam_max(Sigma) / 2 for L-Lipschitz f."""
    lipschitz = float(lipschitz)
    if not (lipschitz >= 0.0 and np.isfinite(lipschitz)):
        raise ContractError("lipschitz constant must be finite and nonnegative")
    lam_max = float(np.linalg.eigvalsh(model.sigma)[-1])
    bound = 0.5 * model.alpha * lipschitz**2 * lam_max
    return SuboptimalityCertificate(
        gap_bound=bound,
        kind="lipschitz",
        inputs={"alpha": model.alpha, "lam_max_sigma": lam_max, "lipschitz": lipschitz},
    )


def certify_gap(f: ScalarField, model: RiskModel, theta_star_candidate, n: int,
                sampler: GaussianSampler) -> SuboptimalityCertificate:
    """Estimated gap bound at a user-supplied comparison point.

    The bound is the sensitivity estimate plus three standard errors
    (conservative upper confidence).  The comparison point stands in for
    the unknown smoothed optimum, which no computable procedure locates.
    """
    est = estimate_sensitivity(f, model, theta_star_candidate, n, sampler)
    return SuboptimalityCertificate(
        gap_bound=est.value + 3.0 * est.std_err,
        kind="estimated",
        inputs={"alpha": model.alpha, "n": n, "theta": est.theta,
                "sensitivity": est.value, "std_err": est.std_err},
    )
