"""Projected stochastic gradient method for the exponentiated objective.

The solver runs

    theta <- Proj_C(theta - eta_i * ghat(theta, w)),   eta_i = (R(C)/zeta) sqrt(1/(2i)),

from theta = 0 (projected into C when infeasible), where ghat is the
single-draw unbiased gradient of G and zeta bounds sqrt(E ||ghat||^2).
With uniform iterate averaging the expected objective gap after T
iterations is at most R(C) * zeta * sqrt(1/(2T)); that certificate is
returned with every report.  :func:`projected_sgd` drives every run (:func:`solve`,
``control.train_policy``, the noisy net): it alone sets and checks the start
and warns on a failed certificate.  Its loop is sequential; per-iteration
mini-batches average independent draws from the run stream in a fixed order.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .csvio import write_csv
from .errors import ContractError, DivergenceError, EstimateOverflowError
from .fields import ScalarField
from .objective import (ConvexityCertificate, RiskModel, _check_args, _grad_samples,
                        check_convexity_certificate, isotropic_model)
from .sampling import GaussianSampler


def _norm(x) -> float:
    """Euclidean norm sqrt(x . x), bit for bit np.linalg.norm's expression;
    only when the sum of squares overflows for a finite x is it recomputed
    as s ||x / s|| with s = max |x|, so a huge vector keeps a finite norm.
    np.vdot is the BLAS dot of x.dot(x), but an overflowing one gives inf
    with no warning, so no np.errstate (0.45 us a call) is needed."""
    x = np.asarray(x, dtype=float).ravel(order="K")
    norm = math.sqrt(np.vdot(x, x))
    if norm == math.inf and np.isfinite(x).all():
        s = float(np.abs(x).max())
        x = x / s
        norm = s * math.sqrt(np.vdot(x, x))
    return norm


@dataclass
class FeasibleSet:
    """A convex feasible set with closed-form Euclidean projection.

    Kinds: "ball" (center, radius), "box" (lower, upper), "all".
    ``radius_bound`` is the radius of a ball containing the set, used by
    the step-size schedule; for "all" it must be supplied explicitly.
    """

    kind: str
    dim: int
    center: Optional[np.ndarray] = None
    radius: Optional[float] = None
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    explicit_radius_bound: Optional[float] = None

    @classmethod
    def ball(cls, center, radius: float) -> "FeasibleSet":
        center = np.atleast_1d(np.asarray(center, dtype=float))
        radius = float(radius)
        if not 0.0 < radius < math.inf:
            raise ContractError("ball radius must be positive and finite")
        if not np.isfinite(center).all():
            raise ContractError("ball center must be finite")
        return cls(kind="ball", dim=center.size, center=center, radius=radius)

    @classmethod
    def box(cls, lower, upper) -> "FeasibleSet":
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.shape != upper.shape:
            raise ContractError("box bounds must have matching shapes")
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise ContractError("box bounds must not be NaN")
        if np.any(lower > upper):
            raise ContractError("box lower bound exceeds upper bound")
        return cls(kind="box", dim=lower.size, lower=lower, upper=upper)

    @classmethod
    def unconstrained(cls, dim: int, radius_bound: Optional[float] = None) -> "FeasibleSet":
        if radius_bound is not None and not 0.0 < radius_bound < math.inf:
            raise ContractError("radius_bound must be positive and finite")
        return cls(kind="all", dim=int(dim), explicit_radius_bound=radius_bound)

    @property
    def radius_bound(self) -> float:
        if self.kind == "ball":
            return float(self.radius)
        if self.kind == "box":
            bound = _norm(0.5 * self.upper - 0.5 * self.lower)
            if not math.isfinite(bound):
                raise ContractError("the step schedule needs a finite radius bound; "
                                    "this box's half-diagonal is not finite")
            return bound
        if self.explicit_radius_bound is not None:
            return float(self.explicit_radius_bound)
        raise ContractError(
            "an unconstrained set needs an explicit radius_bound for the step schedule"
        )

    def project(self, x) -> np.ndarray:
        """Euclidean projection of x.  A box clips non-finite coordinates to
        its bounds; the ball and the unconstrained set raise
        :class:`ContractError` on a non-finite point."""
        x = np.asarray(x, dtype=float)
        if self.kind == "all":
            if not np.isfinite(x).all():
                raise ContractError("cannot project a non-finite point")
            return x.copy()
        if self.kind == "ball":
            d = x - self.center
            norm = _norm(d)
            if norm <= self.radius:
                return x.copy()
            if not math.isfinite(norm):
                raise ContractError("cannot project a non-finite point onto a ball")
            return self.center + (self.radius / norm) * d
        if self.kind == "box":
            return np.clip(x, self.lower, self.upper)
        raise ContractError(f"unknown feasible set kind {self.kind!r}")

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            return False
        return bool(_norm(self.project(x) - x) <= tol * (1.0 + _norm(x)))


@dataclass
class SolverConfig:
    """Iteration budget and schedule inputs.

    ``zeta`` bounds the root second moment of the gradient estimator the
    iteration uses.  Supply it directly (for isotropic problems the
    closed form from :func:`variance_bound` is one source), or leave it
    None to estimate it from a pilot of ``pilot_samples`` draws at the
    start point.  ``batch`` > 1 averages that many draws per iteration
    (the pilot then calibrates to the batch mean).  ``theta0`` overrides
    the run's default start (:func:`projected_sgd` states its rule).
    """

    iterations: int
    zeta: Optional[float] = None
    batch: int = 1
    averaging: bool = True
    theta0: Optional[np.ndarray] = None
    pilot_samples: int = 200

    def __post_init__(self):
        if self.iterations < 1:
            raise ContractError("iterations must be >= 1")
        if self.batch < 1:
            raise ContractError("batch must be >= 1")
        if self.zeta is not None and not 0.0 < self.zeta < math.inf:
            raise ContractError("zeta must be positive and finite")
        if self.pilot_samples < 2:
            raise ContractError("pilot_samples must be >= 2")


def step_size(radius_bound: float, zeta: float, i):
    """Schedule eta_i = (R(C)/zeta) * sqrt(1/(2i)); ``i`` may be an array of
    iteration indices, whose steps have the bits of one call each."""
    return (radius_bound / zeta) * np.sqrt(1.0 / (2.0 * i))


def convergence_certificate(radius_bound: float, zeta: float, iterations: int) -> float:
    """Expected-gap certificate R(C) * zeta * sqrt(1/(2T))."""
    return radius_bound * zeta * math.sqrt(1.0 / (2.0 * iterations))


@dataclass
class SolverReport:
    """Trace and certificate of one projected SGD run: no iterates (a sink gets
    them), T floats a trace, read by :meth:`empirical_zeta` and path bounds."""

    theta_hat: np.ndarray
    final_theta: np.ndarray
    certificate: float
    zeta: float
    grad_norms: np.ndarray      # (T,) norms of the sampled gradients
    etas: np.ndarray            # (T,) step sizes
    convexity: ConvexityCertificate  # the hypothesis behind ``certificate``
    objective_trace: Optional[np.ndarray] = None

    @property
    def certified(self) -> bool:
        return self.convexity.holds

    @property
    def iterations(self) -> int:
        return self.etas.shape[0]

    @np.errstate(over="ignore")
    def empirical_zeta(self) -> float:
        """Root mean squared norm of the sampled gradients along the run,
        rescaled by the largest norm only when the squares overflow."""
        zeta = float(np.sqrt(np.mean(self.grad_norms**2)))
        if zeta == math.inf and np.isfinite(self.grad_norms).all():
            s = float(self.grad_norms.max())
            zeta = s * float(np.sqrt(np.mean((self.grad_norms / s) ** 2)))
        return zeta


def write_trace_csv(path, steps) -> None:
    """Columns: iter, theta_0..theta_{k-1}, grad_norm, eta, one row per step
    ``(i, theta_i, grad_norm_i, eta_i, objective_i)`` a :func:`projected_sgd`
    sink kept, each a one-cell row of the reprs of its Python ints and floats."""
    header = ["iter"] + [f"theta_{j}" for j in range(len(steps[0][1]))] + ["grad_norm", "eta"]
    rows = ((",".join(map(repr, [i, *theta.tolist(), float(norm), float(eta)])),)
            for i, theta, norm, eta, _ in steps)
    write_csv(path, rows, header=header)


@np.errstate(over="ignore")
def pilot_zeta(mean, second, n: int, batch: int) -> float:
    """zeta = sqrt(E ||mean of ``batch`` samples||^2) from the moments of n
    pilot samples: their flat ``mean`` and per-coordinate mean square
    ``second``.

    Batch 1 gives sqrt(sum(second)), the root mean squared sample norm.
    Batch b >= 2 gives sqrt((1 - a) mean . mean + a sum(second)) with
    a = n / ((n - 1) b), which is mean . mean + tr(var) / b for the ddof-1
    variance; both coefficients are >= 0, so the sum cannot cancel.  An
    all-zero pilot (a stationary start) gives 1, so the schedule is defined.
    Raises :class:`EstimateOverflowError` when zeta is not finite.
    """
    total = float(np.sum(second))
    if batch > 1:
        a = n / ((n - 1) * batch)
        total = (1.0 - a) * float(mean @ mean) + a * total
    zeta = math.sqrt(total)
    if not math.isfinite(zeta):
        raise EstimateOverflowError(f"pilot second moment is not finite (zeta = {zeta})")
    return zeta if zeta > 0.0 else 1.0


def _caller_stacklevel() -> int:
    """The ``stacklevel`` with which the function calling this names, in its
    warnings, the line that called into the library: the first frame whose
    module is not a library module of the package, the CLI counting as a
    caller (``skip_file_prefixes`` of Python 3.12, which 3.10 lacks).  So the
    warning of :func:`projected_sgd` names the caller of :func:`solve`,
    ``control.train_policy`` or ``noisynet.train_noisy_net``."""
    level, frame = 2, sys._getframe(2)
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if not module.startswith(__package__ + ".") or module == __package__ + ".cli":
            break
        level += 1
        frame = frame.f_back
    return level


def projected_sgd(oracle: Callable, start, feasible: FeasibleSet, config: SolverConfig,
                  sampler: GaussianSampler, convexity: ConvexityCertificate,
                  sink: Optional[Callable] = None) -> SolverReport:
    """Projected stochastic gradient iterations from the projected ``start``,
    or ``config.theta0`` when set, a float vector of shape ``(feasible.dim,)``;
    a feasible set whose dimension is not ``start``'s size is a
    :class:`ContractError`.  A failed ``convexity`` (the caller's check of
    alpha R_t >= inv(Sigma_t), one step for a static model, kept in the
    report) is one warning, before the pilot, at the caller's line: the
    descent goes on, but its optimality certificate is void.

    ``oracle(theta, n, stream, second)`` draws n gradient samples and
    returns their flat mean, their per-coordinate mean square when
    ``second`` is set (else None) and the batch objective (None leaves
    ``objective_trace`` None).  Unless ``config.zeta`` is set, zeta is
    :func:`pilot_zeta` of one ``second`` call on the pilot stream.
    ``sampler`` splits into the pilot and the run stream.
    ``sink(i, theta_i, grad_norm_i, eta_i, objective_i)`` is called after each
    gradient check with the iterate the gradient was drawn at.  No iterate is
    changed in place, so a sink may keep them; the loop keeps only their sum.
    Raises :class:`EstimateOverflowError` when the pilot zeta is not
    finite, and :class:`DivergenceError` carrying the iteration index on a
    non-finite gradient estimate, or when a finite step overflows to an
    iterate the feasible set cannot project.
    """
    if feasible.dim != np.size(start):
        raise ContractError(f"feasible set dimension {feasible.dim} != {np.size(start)} parameters")
    if config.theta0 is not None:
        start = np.asarray(config.theta0, dtype=float)
        if start.shape != (feasible.dim,):
            raise ContractError(f"theta must have shape ({feasible.dim},), "
                                f"got {start.shape} (config.theta0)")
    if not convexity.holds:
        warnings.warn(f"per-step certificate fails (worst margin {convexity.margin:.3e}); "
                      "the optimality certificate in the report is void",
                      stacklevel=_caller_stacklevel())
    pilot_stream, run_stream = sampler.split(2)
    theta = feasible.project(start)
    radius = feasible.radius_bound
    zeta = config.zeta
    if zeta is None:
        with np.errstate(over="ignore"):  # an overflowed square is inf; pilot_zeta raises
            mean, second, _ = oracle(theta, config.pilot_samples, pilot_stream, True)
        zeta = pilot_zeta(mean, second, config.pilot_samples, config.batch)

    T = config.iterations
    grad_norms = np.empty(T)
    etas = step_size(radius, zeta, np.arange(1, T + 1))
    objectives = []
    total = None
    for i, eta in enumerate(etas.tolist(), 1):
        g, _, objective = oracle(theta, config.batch, run_stream, False)
        # A non-finite g has a non-finite norm; a finite g whose norm
        # overflows even rescaled passes the array check.
        grad_norms[i - 1] = norm = _norm(g)
        if not math.isfinite(norm) and not np.isfinite(g).all():
            raise DivergenceError(f"non-finite gradient estimate at iteration {i}", step=i)
        objectives.append(objective)
        if sink is not None:
            sink(i, theta, norm, eta, objective)
        # Row by row from the first iterate: the bits of mean(axis=0) of a (T, k >= 2) stack.
        total = theta if total is None else total + theta
        try:
            theta = feasible.project(theta - eta * g)
        except ContractError as exc:
            raise DivergenceError(f"non-finite iterate at iteration {i}", step=i) from exc

    return SolverReport(
        theta_hat=total / T if config.averaging else theta.copy(),
        final_theta=theta,
        certificate=convergence_certificate(radius, zeta, T),
        zeta=zeta,
        grad_norms=grad_norms,
        etas=etas,
        convexity=convexity,
        objective_trace=None if objective is None else np.array(objectives),
    )


def solve(f: ScalarField, model: RiskModel, feasible: FeasibleSet,
          config: SolverConfig, sampler: GaussianSampler) -> SolverReport:
    """Run the projected stochastic gradient method on G from theta = 0
    (or ``config.theta0``), checked and started by :func:`projected_sgd`
    under :func:`check_convexity_certificate` of the model.

    Raises:
        ContractError: if f has no gradient, or dimensions disagree.
        DivergenceError: on a non-finite gradient estimate, carrying the
            iteration index.
        EstimateOverflowError: when an exponent or the pilot's second
            moment overflows.
    """
    if f.gradient is None:
        raise ContractError("solve requires a field with a gradient")
    start = _check_args(f, model, sampler, config.batch, np.zeros(model.dim), min_n=1)

    def oracle(theta, n, stream, second):
        g = _grad_samples(f, model, theta, n, stream)
        mean = g[0] if n == 1 else g.mean(axis=0)  # one row is its own mean, bit for bit
        return mean, (g * g).mean(axis=0) if second else None, None

    return projected_sgd(oracle, start, feasible, config, sampler,
                         check_convexity_certificate(model))


@dataclass
class VarianceBoundInputs:
    """Closed-form inputs for the gradient second-moment bound.

    The bound applies to the isotropic setting R = kappa I,
    Sigma = sigma^2 I, with alpha * kappa >= 1/sigma^2, a gradient
    exponential-moment level gamma^2, a bound mbar on the smoothed
    objective over C, and C inside a ball of radius ``radius``.
    """

    alpha: float
    kappa: float
    sigma: float
    beta: float
    gamma_sq: float
    mbar: float
    radius: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ContractError("sigma must be positive")
        if self.beta < 0.0:
            raise ContractError("beta must be nonnegative")
        if self.gamma_sq < 0.0 or self.radius < 0.0:
            raise ContractError("gamma_sq and radius must be nonnegative")
        cert = check_convexity_certificate(isotropic_model(self.alpha, self.sigma**2,
                                                           self.kappa, 1))
        if not cert.holds:
            raise ContractError("certificate precondition alpha*kappa >= 1/sigma^2 fails "
                                f"(margin {cert.margin:.3e}, tolerance {cert.tol:.3e})")


def variance_bound(inputs: VarianceBoundInputs) -> float:
    """The closed-form bound on the gradient second moment.

    delta = sqrt(beta gamma^2 / (sigma^2 (1 - alpha beta))) + kappa R(C)
    bound = alpha^2 delta^2 exp(2 alpha (mbar + gamma^2)
                                + alpha beta / (1 - alpha beta) - sigma^2 kappa)

    Raises ContractError when alpha * beta >= 1.
    """
    a, b = inputs.alpha, inputs.beta
    if a * b >= 1.0:
        raise ContractError(f"alpha*beta must be < 1, got {a * b}")
    delta = math.sqrt(b * inputs.gamma_sq / (inputs.sigma**2 * (1.0 - a * b)))
    delta += inputs.kappa * inputs.radius
    expo = 2.0 * a * (inputs.mbar + inputs.gamma_sq) + a * b / (1.0 - a * b)
    expo -= inputs.sigma**2 * inputs.kappa
    return a**2 * delta**2 * math.exp(expo)


def log_gap_from_exp_gap(exp_gap: float, g_star: float) -> float:
    """Convert a gap on G into a gap on log G: log(1 + exp_gap / G*)."""
    exp_gap = float(exp_gap)
    g_star = float(g_star)
    if not g_star > 0.0:
        raise ContractError("g_star must be positive")
    if exp_gap < 0.0:
        raise ContractError("exp_gap must be nonnegative")
    return math.log1p(exp_gap / g_star)
