"""One-dimensional convexification demo.

The built-in test field has a wide, robust basin and a narrow, deeper
basin.  Smoothing removes shallow wiggles but keeps the narrow minimum;
the risk-averse transform at a certified (alpha, sigma, kappa) destroys
it, leaving the robust basin as the unique minimum.  The demo tabulates
the original objective, its Gaussian smoothing, and the convexified
objective on a uniform grid, with common random numbers across grid
points so that curve differences are well resolved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .errors import CertificateError, ContractError
from .fields import RawField
from .objective import (
    _map_blocks,
    _row_blocks,
    check_convexity_certificate,
    isotropic_model,
    log_mean_exp,
)
from .sampling import GaussianSampler

FIELD_IDS = ("two-basin", "constant")

# numpy's vector exp leaves its fast path for arguments below about -707.8,
# where results near or under the subnormal range cost 15-170x more per lane
# (measured with numpy 2.4 on x86-64).
_EXP_CUT = -707.0


def _well(theta, center: float, depth: float, width: float) -> np.ndarray:
    """depth * exp(-0.5 ((theta - center) / width)^2), computed in place on
    one temporary (theta itself is not modified).

    Exponents below ``_EXP_CUT`` are clamped to it before ``exp`` and the
    result is zeroed there, so exp never runs on its slow path.  Within
    the two-basin value this changes no output bit.  The zeroed lanes
    have |theta - 1.5| > 1.88 (narrow well) or |theta + 1| > 30 (wide
    well), where the exact term is below 2 e^-707 ~ 1.8e-307.  Wherever
    the narrow well is zeroed, 1 - wide is either exactly 0 or at least
    2^-53 in magnitude: for wide >= 0.5 the subtraction is exact
    (Sterbenz) and a multiple of 2^-53, and for wide < 0.5 it exceeds
    0.5.  It is 0 only where wide == 1.0 (theta ~ -0.517 and -1.483),
    where the unclamped narrow exponent is about -814 and exp already
    returns 0.  So subtracting the term cannot move a bit.  NaN lanes
    stay NaN, and +-inf lanes give 0 as before.
    """
    z = np.subtract(theta, center, out=np.empty(np.shape(theta)))
    z *= z
    z *= -0.5 / width**2
    keep = z >= _EXP_CUT
    np.maximum(z, _EXP_CUT, out=z)
    np.exp(z, out=z)
    z *= depth
    z *= keep
    return z


def builtin_field(field_id: str = "two-basin") -> RawField:
    """The demo fields, vectorized over theta.

    "two-basin": a wide bowl of depth 1.2 and width 0.8 at theta = -1
    plus a narrow well of depth 2 and width 0.05 at theta = +1.5, offset
    so the field is bounded above by 1.  Its raw global minimum sits in
    the narrow well; the robust minimum is the wide bowl.
    "constant": identically zero, for certificate and quadratic checks.
    """
    if field_id == "constant":

        def zero_value(theta):
            theta = np.asarray(theta, dtype=float)
            if theta.ndim == 2:
                return np.zeros(theta.shape[0])
            return np.zeros_like(theta)

        return RawField(value=zero_value,
                        gradient=lambda th: np.zeros_like(np.asarray(th, dtype=float)),
                        dim=1, vectorized=True)
    if field_id != "two-basin":
        raise ContractError(f"unknown demo field {field_id!r}; choose from {FIELD_IDS}")

    wide_c, wide_d, wide_w = -1.0, 1.2, 0.8
    narrow_c, narrow_d, narrow_w = 1.5, 2.0, 0.05

    # Accepts a plain array of scalar points, or the (n, 1) stacked form
    # used by ScalarField batch evaluation.
    def scalar_value(theta):
        v = _well(theta, wide_c, wide_d, wide_w)
        np.subtract(1.0, v, out=v)
        v -= _well(theta, narrow_c, narrow_d, narrow_w)
        return v

    def value(theta):
        theta = np.asarray(theta, dtype=float)
        if theta.ndim == 2:
            return scalar_value(theta[:, 0])
        return scalar_value(theta)

    def scalar_gradient(theta):
        g = wide_d * (theta - wide_c) / wide_w**2 \
            * np.exp(-0.5 * ((theta - wide_c) / wide_w) ** 2)
        g += narrow_d * (theta - narrow_c) / narrow_w**2 \
            * np.exp(-0.5 * ((theta - narrow_c) / narrow_w) ** 2)
        return g

    def gradient(theta):
        theta = np.asarray(theta, dtype=float)
        if theta.ndim == 2:
            return scalar_gradient(theta[:, 0])[:, None]
        return scalar_gradient(theta)

    return RawField(value=value, gradient=gradient, dim=1, vectorized=True)


@dataclass
class DemoCurves:
    """Tabulated demo output; one row per grid point."""

    theta: np.ndarray
    objective: np.ndarray       # f(theta) + 0.5 kappa theta^2
    smoothed: np.ndarray        # E[f(theta+w)] + 0.5 kappa (theta^2 + sigma^2)
    convexified: np.ndarray     # (1/alpha) log E[exp(alpha f(theta+w))] + 0.5 kappa theta^2
    convexified_std_err: np.ndarray

    def write_csv(self, path) -> None:
        header = ["theta", "objective", "smoothed", "convexified", "convexified_std_err"]
        rows = zip(self.theta, self.objective, self.smoothed,
                   self.convexified, self.convexified_std_err)
        write_csv(path, rows, header=header)


def demo_curves(alpha: float, sigma_noise: float, kappa: float, grid,
                n_samples: int, sampler: GaussianSampler,
                field_id: str = "two-basin") -> DemoCurves:
    """Compute the three demo curves on a grid.

    Refuses (CertificateError) unless alpha * kappa >= 1 / sigma_noise^2,
    reporting the margin.  All grid points share one perturbation draw
    (common random numbers); the smoothed quadratic part is added in
    closed form.  When ``n_samples`` spans two or more row blocks, the
    grid points run on the threads of
    :func:`~riskconvex.objective._map_blocks`, with the same bits.
    """
    if not (sigma_noise > 0.0 and kappa > 0.0):
        raise ContractError("sigma and kappa must be positive")
    if n_samples < 2:
        raise ContractError("need at least 2 samples")
    model = isotropic_model(alpha, sigma_noise**2, kappa, dim=1)
    cert = check_convexity_certificate(model)
    if not cert.holds:
        raise CertificateError(
            "refusing: alpha*kappa >= 1/sigma^2 fails "
            f"(margin {cert.margin:.6g}, tolerance {cert.tol:.3g}); "
            "raise alpha or kappa, or widen sigma",
            report=cert,
        )
    raw = builtin_field(field_id)
    grid = np.asarray(grid, dtype=float)
    draws = sigma_noise * sampler.normal(n_samples)

    objective = np.empty(grid.size)
    smoothed = np.empty(grid.size)
    convexified = np.empty(grid.size)
    std_err = np.empty(grid.size)

    def point(i, th):
        quad = 0.5 * kappa * th**2
        vals = raw.value(draws + th)
        objective[i] = float(raw.value(np.array([th]))[0]) + quad
        smoothed[i] = float(vals.mean()) + quad + 0.5 * kappa * sigma_noise**2
        vals *= alpha
        lme, se = log_mean_exp(vals)
        convexified[i] = lme / alpha + quad
        std_err[i] = se / alpha

    _map_blocks(point, grid, grid.size, parallel=len(_row_blocks(n_samples, 1)) > 1)
    return DemoCurves(theta=grid, objective=objective, smoothed=smoothed,
                      convexified=convexified, convexified_std_err=std_err)


def uniform_grid(lo: float = -3.0, hi: float = 3.0, points: int = 121) -> np.ndarray:
    if points < 3:
        raise ContractError("grid needs at least 3 points")
    if not hi > lo:
        raise ContractError("grid upper end must exceed lower end")
    return np.linspace(lo, hi, int(points))
