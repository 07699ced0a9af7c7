"""Risk-sensitive policy optimization for discrete-time systems.

A policy u_t = K_t phi(s_t, t) drives a system s_{t+1} = F(s_t, y_t,
xi_t, t) whose realized control y_t = u_t + eps_t carries Gaussian
exploration noise eps_t ~ N(0, Sigma_t).  The trajectory cost

    J = sum_{t=1}^{N-1} [ l(s_t, t) + 0.5 u_t' R_t u_t ] + l(s_N, N)

is exponentiated, and E[exp(alpha J)] is convex in the gains whenever
alpha R_t >= inv(Sigma_t) for every t.  Two gradient estimators are
provided:

* model-based: the pathwise derivative of exp(alpha J) under frozen
  noise, computed by a backward adjoint recursion run as a chain of
  vector-Jacobian products: the adjoint lam_{t+1} is pulled back through
  F_y', K_t' and phi_s' one factor at a time, so the n x n closed-loop
  Jacobian F_s + F_y K_t phi_s is never formed
  (sample = alpha * exp(alpha J) * G_t);
* derivative-free: the likelihood-ratio sample
  exp(alpha J) * (inv(Sigma_t)(y_t - u_t) + alpha R_t u_t) phi(s_t)',
  which needs no derivatives at all.

Both are unbiased for grad_K E[exp(alpha J)].  Rollouts are independent
given derived sampler streams; batch estimation reduces samples in a
fixed order and uses a vectorized fast path when the problem's callables
accept stacked states.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .csvio import write_csv
from .errors import (
    ContractError,
    DivergenceError,
    EstimateOverflowError,
    FieldEvaluationError,
)
from .objective import check_exponents, psd_tolerance
from .sampling import GaussianSampler, as_covariance, spd_inverse, symmetric_sqrt
from .solver import (
    FeasibleSet,
    SolverConfig,
    SolverReport,
    batch_second_moment,
    convergence_certificate,
    step_size,
)


@dataclass
class Dynamics:
    """Discrete-time dynamics s_{t+1} = F(s_t, y_t, xi_t, t), t = 1..N-1.

    ``step`` must be deterministic given its arguments.  Optional
    Jacobians d s_{t+1} / d s_t (n x n) and d s_{t+1} / d y_t (n x m)
    enable the model-based gradient.  ``disturbance(rng, t)`` samples
    xi_t (None means xi = 0, p may be 0); ``init_state(rng)`` samples
    s_1 (None means s_1 = 0).  ``vectorized`` promises that step,
    Jacobians and samplers accept/return a leading batch axis.
    """

    step: Callable
    state_dim: int
    control_dim: int
    disturbance_dim: int
    horizon: int
    jacobian_state: Optional[Callable] = None
    jacobian_control: Optional[Callable] = None
    disturbance: Optional[Callable] = None
    disturbance_batch: Optional[Callable] = None
    init_state: Optional[Callable] = None
    init_state_batch: Optional[Callable] = None
    vectorized: bool = False

    def __post_init__(self):
        if self.horizon < 2:
            raise ContractError("horizon must be >= 2 (at least one control step)")
        for name in ("state_dim", "control_dim"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1")
        if self.disturbance_dim < 0:
            raise ContractError("disturbance_dim must be >= 0")


@dataclass
class ControlCost:
    """Arbitrary bounded state costs plus quadratic control costs.

    ``state_cost(s, t)`` is defined for t = 1..N (t = N is the terminal
    cost) and must stay below ``bound``, which is asserted at every
    evaluation.  ``control_weights[t-1]`` is the PSD quadratic weight
    R_t for t = 1..N-1.
    """

    state_cost: Callable
    control_weights: list
    bound: float
    state_cost_grad: Optional[Callable] = None
    vectorized: bool = False

    def __post_init__(self):
        self.bound = float(self.bound)
        if not np.isfinite(self.bound):
            raise ContractError("state cost bound must be finite")
        self.control_weights = [as_covariance(r) for r in self.control_weights]
        for t, r in enumerate(self.control_weights, start=1):
            w = np.linalg.eigvalsh(r)
            if w[0] < -1e-10 * (1.0 + abs(w[-1])):
                raise ContractError(f"control weight at t={t} is not PSD")

    @property
    def control_dim(self) -> int:
        return self.control_weights[0].shape[0]

    def _check(self, vals, s, t):
        tol = 1e-9 * (1.0 + abs(self.bound))
        bad = np.isnan(vals) | (vals == np.inf) | (vals > self.bound + tol)
        if np.any(bad):
            v = vals if np.ndim(vals) == 0 else vals[np.argmax(bad)]
            raise FieldEvaluationError(
                f"state cost {v} violates bound {self.bound} at t={t}", theta=s
            )

    def stage(self, s, t) -> float:
        v = float(self.state_cost(s, t))
        self._check(v, s, t)
        return v

    def stage_batch(self, s: np.ndarray, t: int) -> np.ndarray:
        if self.vectorized:
            vals = np.asarray(self.state_cost(s, t), dtype=float)
        else:
            vals = np.array([float(self.state_cost(row, t)) for row in s])
        self._check(vals, s, t)
        return vals

    def grad(self, s, t) -> np.ndarray:
        if self.state_cost_grad is None:
            raise ContractError("this operation requires state cost gradients")
        return np.asarray(self.state_cost_grad(s, t), dtype=float)


@dataclass
class Policy:
    """Feedback policy u_t = K_t phi(s_t, t), linear in the gains.

    ``gains[t-1]`` is the (m x q) gain K_t for t = 1..N-1; ``features``
    maps (s, t) to a q-vector.  The optional features Jacobian
    d phi / d s (q x n) enables the model-based gradient.
    """

    gains: list
    features: Callable
    features_jacobian: Optional[Callable] = None
    vectorized: bool = False

    def __post_init__(self):
        self.gains = [np.atleast_2d(np.asarray(k, dtype=float)) for k in self.gains]
        shape = self.gains[0].shape
        for t, k in enumerate(self.gains, start=1):
            if k.shape != shape:
                raise ContractError(f"gain at t={t} has shape {k.shape}, expected {shape}")

    @property
    def n_steps(self) -> int:
        return len(self.gains)

    @property
    def control_dim(self) -> int:
        return self.gains[0].shape[0]

    @property
    def feature_dim(self) -> int:
        return self.gains[0].shape[1]

    def phi(self, s, t) -> np.ndarray:
        return np.asarray(self.features(s, t), dtype=float)

    def control(self, s, t) -> np.ndarray:
        return self.gains[t - 1] @ self.phi(s, t)

    def with_gains(self, gains) -> "Policy":
        return Policy(gains=gains, features=self.features,
                      features_jacobian=self.features_jacobian,
                      vectorized=self.vectorized)


@dataclass
class ControlRiskModel:
    """Risk factor and per-step control-noise covariances.

    Inverses and symmetric square roots of each Sigma_t are cached at
    construction.
    """

    alpha: float
    control_noise: list

    def __post_init__(self):
        self.alpha = float(self.alpha)
        if not self.alpha > 0.0:
            raise ContractError("alpha must be positive")
        self.control_noise = [as_covariance(s) for s in self.control_noise]
        self.noise_inv = [spd_inverse(s, name=f"control noise at t={t}")
                          for t, s in enumerate(self.control_noise, start=1)]
        self.noise_root = [symmetric_sqrt(s, name=f"control noise at t={t}")
                           for t, s in enumerate(self.control_noise, start=1)]

    @property
    def n_steps(self) -> int:
        return len(self.control_noise)

    @property
    def control_dim(self) -> int:
        return self.control_noise[0].shape[0]


@dataclass
class ControlCertificate:
    """Per-step margins of the condition alpha R_t >= inv(Sigma_t)."""

    margins: np.ndarray
    tols: np.ndarray
    holds: bool


def check_control_certificate(cost: ControlCost, model: ControlRiskModel) -> ControlCertificate:
    """Margin lambda_min(alpha R_t - inv(Sigma_t)) for each control step."""
    if len(cost.control_weights) != model.n_steps:
        raise ContractError(
            f"cost has {len(cost.control_weights)} control steps, model has {model.n_steps}"
        )
    if cost.control_dim != model.control_dim:
        raise ContractError("control dimension mismatch between cost and noise model")
    margins = np.empty(model.n_steps)
    tols = np.empty(model.n_steps)
    for idx in range(model.n_steps):
        m = model.alpha * cost.control_weights[idx] - model.noise_inv[idx]
        m = 0.5 * (m + m.T)
        margins[idx] = float(np.linalg.eigvalsh(m)[0])
        tols[idx] = psd_tolerance(
            float(np.linalg.eigvalsh(model.alpha * cost.control_weights[idx])[-1]),
            float(np.linalg.eigvalsh(model.noise_inv[idx])[-1]),
        )
    return ControlCertificate(margins=margins, tols=tols,
                              holds=bool(np.all(margins >= -tols)))


@dataclass
class FrozenNoise:
    """A fixed noise realization for replaying rollouts under new gains."""

    s1: np.ndarray
    eps: np.ndarray   # (N-1, m) realized-minus-mean control noise
    xi: np.ndarray    # (N-1, p) disturbances


@dataclass
class Rollout:
    """One simulated trajectory and its cost bookkeeping.

    ``stage_costs[t-1]`` holds l(s_t) + 0.5 u_t' R_t u_t for t < N and
    the terminal l(s_N) at index N-1; ``cost`` is their left-fold sum,
    reproducible bit-exactly by :meth:`total_cost`.
    """

    states: np.ndarray        # (N, n)
    controls: np.ndarray      # (N-1, m) mean controls u_t
    realized: np.ndarray      # (N-1, m) realized controls y_t
    disturbances: np.ndarray  # (N-1, p)
    stage_costs: np.ndarray   # (N,)
    cost: float
    exp_cost: float
    alpha: float

    def total_cost(self) -> float:
        total = 0.0
        for s in self.stage_costs:
            total += float(s)
        return total

    def frozen(self) -> FrozenNoise:
        return FrozenNoise(s1=self.states[0].copy(),
                           eps=self.realized - self.controls,
                           xi=self.disturbances.copy())


def _draw_disturbance(dyn: Dynamics, rng, t: int) -> np.ndarray:
    if dyn.disturbance_dim == 0:
        return np.zeros(0)
    if dyn.disturbance is None:
        return np.zeros(dyn.disturbance_dim)
    return np.asarray(dyn.disturbance(rng, t), dtype=float)


def rollout(dyn: Dynamics, cost: ControlCost, policy: Policy, model: ControlRiskModel,
            sampler: GaussianSampler, mode: str = "noisy",
            s1=None, frozen: Optional[FrozenNoise] = None) -> Rollout:
    """Simulate one trajectory under the policy.

    mode "noisy" draws y_t ~ N(u_t, Sigma_t) and xi_t from the
    disturbance sampler; mode "mean" forces y_t = u_t and xi_t = 0 (and
    s_1 = 0 unless given), for testing.  ``frozen`` replays a fixed
    noise realization regardless of mode.  Raises
    :class:`DivergenceError` carrying t when a state goes non-finite,
    and :class:`EstimateOverflowError` when exp(alpha J) overflows.
    """
    _validate_problem(dyn, cost, policy, model)
    if mode not in ("noisy", "mean"):
        raise ContractError(f"unknown rollout mode {mode!r}")
    N, n, m, p = dyn.horizon, dyn.state_dim, dyn.control_dim, dyn.disturbance_dim
    rng = sampler.rng

    if frozen is not None:
        s = np.asarray(frozen.s1, dtype=float).copy()
    elif s1 is not None:
        s = np.asarray(s1, dtype=float).copy()
    elif mode == "noisy" and dyn.init_state is not None:
        s = np.asarray(dyn.init_state(rng), dtype=float)
    else:
        s = np.zeros(n)

    states = np.empty((N, n))
    controls = np.empty((N - 1, m))
    realized = np.empty((N - 1, m))
    disturbances = np.empty((N - 1, p))
    stage_costs = np.empty(N)
    total = 0.0
    states[0] = s
    for t in range(1, N):
        u = policy.control(s, t)
        stage = cost.stage(s, t) + 0.5 * float(u @ cost.control_weights[t - 1] @ u)
        stage_costs[t - 1] = stage
        total += stage
        if frozen is not None:
            eps = frozen.eps[t - 1]
            xi = frozen.xi[t - 1]
        elif mode == "mean":
            eps = np.zeros(m)
            xi = np.zeros(p)
        else:
            eps = model.noise_root[t - 1] @ sampler.normal(m)
            xi = _draw_disturbance(dyn, rng, t)
        y = u + eps
        s_next = np.asarray(dyn.step(s, y, xi, t), dtype=float)
        if not np.all(np.isfinite(s_next)):
            raise DivergenceError(f"non-finite state at t={t + 1}", step=t + 1)
        controls[t - 1] = u
        realized[t - 1] = y
        disturbances[t - 1] = xi
        s = s_next
        states[t] = s
    terminal = cost.stage(s, N)
    stage_costs[N - 1] = terminal
    total += terminal
    expo = check_exponents(np.array([model.alpha * total]))
    return Rollout(states=states, controls=controls, realized=realized,
                   disturbances=disturbances, stage_costs=stage_costs,
                   cost=total, exp_cost=float(np.exp(expo[0])), alpha=model.alpha)


def _validate_problem(dyn: Dynamics, cost: ControlCost, policy: Policy,
                      model: ControlRiskModel) -> None:
    n_steps = dyn.horizon - 1
    if len(cost.control_weights) != n_steps:
        raise ContractError(f"cost needs {n_steps} control weights")
    if model.n_steps != n_steps:
        raise ContractError(f"model needs {n_steps} noise covariances")
    if policy.n_steps != n_steps:
        raise ContractError(f"policy needs {n_steps} gains")
    if policy.control_dim != dyn.control_dim or model.control_dim != dyn.control_dim:
        raise ContractError("control dimension mismatch")


@dataclass
class PolicyGradientSample:
    """One rollout's gradient information.

    ``per_step[t-1]`` is the raw G_t matrix of the chosen estimator;
    ``exp_gradient`` is the full gradient sample of E[exp(alpha J)]:
    alpha * exp(alpha J) * G for the model-based (pathwise) estimator and
    exp(alpha J) * G for the derivative-free one.
    """

    per_step: np.ndarray      # (N-1, m, q)
    exp_cost: float
    exp_gradient: np.ndarray  # (N-1, m, q)
    rollout: Rollout


def policy_gradient_model_based(dyn: Dynamics, cost: ControlCost, policy: Policy,
                                model: ControlRiskModel, sampler: GaussianSampler,
                                mode: str = "noisy",
                                frozen: Optional[FrozenNoise] = None) -> PolicyGradientSample:
    """Pathwise gradient of exp(alpha J) for one sampled noise realization.

    Backward adjoint recursion seeded at the terminal cost gradient,
    written as vector-Jacobian products:

        g_t     = R_t u_t + F_y' lam_{t+1}
        G_t     = g_t phi_t'
        lam_t   = grad l(s_t) + F_s' lam_{t+1} + phi_s' (K_t' g_t)

    which equals grad l(s_t) + phi_s' K_t' R_t u_t
    + (F_s + F_y K_t phi_s)' lam_{t+1} without forming the closed-loop
    Jacobian.

    The returned ``exp_gradient`` = alpha * exp(alpha J) * G matches
    central finite differences of exp(alpha J) recomputed under the
    identical noise realization; that check is the normative contract.
    """
    if dyn.jacobian_state is None or dyn.jacobian_control is None:
        raise ContractError("model-based gradient requires dynamics Jacobians")
    if policy.features_jacobian is None:
        raise ContractError("model-based gradient requires a features Jacobian")
    if cost.state_cost_grad is None:
        raise ContractError("model-based gradient requires state cost gradients")
    r = rollout(dyn, cost, policy, model, sampler, mode=mode, frozen=frozen)
    N = dyn.horizon
    m, q = policy.control_dim, policy.feature_dim
    G = np.zeros((N - 1, m, q))
    lam = cost.grad(r.states[N - 1], N)
    for t in range(N - 1, 0, -1):
        s, u, y, xi = r.states[t - 1], r.controls[t - 1], r.realized[t - 1], r.disturbances[t - 1]
        K = policy.gains[t - 1]
        phi = policy.phi(s, t)
        f_y = np.asarray(dyn.jacobian_control(s, y, xi, t), dtype=float)
        g = cost.control_weights[t - 1] @ u + f_y.T @ lam
        G[t - 1] = np.outer(g, phi)
        f_s = np.asarray(dyn.jacobian_state(s, y, xi, t), dtype=float)
        phi_s = np.asarray(policy.features_jacobian(s, t), dtype=float)
        lam = cost.grad(s, t) + f_s.T @ lam + phi_s.T @ (K.T @ g)
    return PolicyGradientSample(per_step=G, exp_cost=r.exp_cost,
                                exp_gradient=model.alpha * r.exp_cost * G, rollout=r)


def policy_gradient_derivative_free(dyn: Dynamics, cost: ControlCost, policy: Policy,
                                    model: ControlRiskModel, sampler: GaussianSampler,
                                    mode: str = "noisy",
                                    frozen: Optional[FrozenNoise] = None) -> PolicyGradientSample:
    """Likelihood-ratio gradient sample using only the rollout record.

        G_t = (inv(Sigma_t)(y_t - u_t) + alpha R_t u_t) phi_t'

    ``exp_gradient`` = exp(alpha J) * G; its expectation over rollouts
    equals the model-based estimator's on smooth systems.
    """
    r = rollout(dyn, cost, policy, model, sampler, mode=mode, frozen=frozen)
    N = dyn.horizon
    m, q = policy.control_dim, policy.feature_dim
    G = np.zeros((N - 1, m, q))
    for t in range(1, N):
        s, u, y = r.states[t - 1], r.controls[t - 1], r.realized[t - 1]
        phi = policy.phi(s, t)
        score = model.noise_inv[t - 1] @ (y - u) + model.alpha * (cost.control_weights[t - 1] @ u)
        G[t - 1] = np.outer(score, phi)
    return PolicyGradientSample(per_step=G, exp_cost=r.exp_cost,
                                exp_gradient=r.exp_cost * G, rollout=r)


_ESTIMATORS = {
    "model_based": policy_gradient_model_based,
    "derivative_free": policy_gradient_derivative_free,
}


@dataclass
class BatchGradientEstimate:
    """Mean and standard error of n gradient samples, reduced in fixed order."""

    mean: np.ndarray       # (N-1, m, q)
    std_err: np.ndarray    # (N-1, m, q)
    exp_cost_mean: float
    exp_cost_std_err: float
    n: int


def _is_vectorized(dyn: Dynamics, cost: ControlCost, policy: Policy) -> bool:
    return dyn.vectorized and cost.vectorized and policy.vectorized


def _forward_batch(dyn, cost, policy, model, sampler, n, mode, s1):
    """Vectorized batch of rollouts; returns stacked trajectory arrays."""
    N, nd, m, p = dyn.horizon, dyn.state_dim, dyn.control_dim, dyn.disturbance_dim
    rng = sampler.rng
    if s1 is not None:
        s = np.broadcast_to(np.asarray(s1, dtype=float), (n, nd)).copy()
    elif mode == "noisy" and (dyn.init_state_batch is not None or dyn.init_state is not None):
        if dyn.init_state_batch is not None:
            s = np.asarray(dyn.init_state_batch(rng, n), dtype=float)
        else:
            s = np.stack([np.asarray(dyn.init_state(rng), dtype=float) for _ in range(n)])
    else:
        s = np.zeros((n, nd))

    S = np.empty((N, n, nd))
    U = np.empty((N - 1, n, m))
    Y = np.empty((N - 1, n, m))
    XI = np.empty((N - 1, n, p))
    PHI = []
    total = np.zeros(n)
    S[0] = s
    for t in range(1, N):
        phi = np.asarray(policy.features(s, t), dtype=float)
        u = phi @ policy.gains[t - 1].T
        stage = cost.stage_batch(s, t) + 0.5 * np.einsum(
            "bi,ij,bj->b", u, cost.control_weights[t - 1], u)
        total += stage
        if mode == "mean":
            eps = np.zeros((n, m))
            xi = np.zeros((n, p))
        else:
            eps = sampler.normal((n, m)) @ model.noise_root[t - 1]
            if p == 0 or dyn.disturbance is None and dyn.disturbance_batch is None:
                xi = np.zeros((n, p))
            elif dyn.disturbance_batch is not None:
                xi = np.asarray(dyn.disturbance_batch(rng, t, n), dtype=float)
            else:
                xi = np.stack([np.asarray(dyn.disturbance(rng, t), dtype=float)
                               for _ in range(n)])
        y = u + eps
        s = np.asarray(dyn.step(s, y, xi, t), dtype=float)
        if not np.all(np.isfinite(s)):
            raise DivergenceError(f"non-finite state at t={t + 1}", step=t + 1)
        PHI.append(phi)
        U[t - 1], Y[t - 1], XI[t - 1] = u, y, xi
        S[t] = s
    total += cost.stage_batch(s, N)
    return S, U, Y, XI, PHI, total


def _gradient_samples(dyn, cost, policy, model, sampler, n, method, mode="noisy", s1=None):
    """(samples (n, N-1, m, q), exp_costs (n,)) of the chosen estimator.

    Raises :class:`EstimateOverflowError` when exp(alpha J) overflows for
    some rollout, instead of returning inf or NaN samples.
    """
    if method not in _ESTIMATORS:
        raise ContractError(f"unknown gradient method {method!r}")
    N = dyn.horizon
    m, q = policy.control_dim, policy.feature_dim
    if not _is_vectorized(dyn, cost, policy):
        samples = np.empty((n, N - 1, m, q))
        costs = np.empty(n)
        estimator = _ESTIMATORS[method]
        for i in range(n):
            try:
                g = estimator(dyn, cost, policy, model, sampler, mode=mode)
            except EstimateOverflowError as err:
                raise EstimateOverflowError(
                    f"exp(alpha J) of sample {i} exceeds the representable range",
                    sample_index=i) from err
            samples[i] = g.exp_gradient
            costs[i] = g.exp_cost
        return samples, costs

    S, U, Y, XI, PHI, total = _forward_batch(dyn, cost, policy, model, sampler, n, mode, s1)
    w = np.exp(check_exponents(model.alpha * total))
    G = np.empty((n, N - 1, m, q))
    if method == "derivative_free":
        for t in range(1, N):
            score = (Y[t - 1] - U[t - 1]) @ model.noise_inv[t - 1] \
                + model.alpha * (U[t - 1] @ cost.control_weights[t - 1])
            G[:, t - 1] = np.einsum("bm,bq->bmq", score, PHI[t - 1])
        G *= w[:, None, None, None]
    else:
        if dyn.jacobian_state is None or dyn.jacobian_control is None:
            raise ContractError("model-based gradient requires dynamics Jacobians")
        if policy.features_jacobian is None or cost.state_cost_grad is None:
            raise ContractError("model-based gradient requires cost and feature gradients")
        # Adjoint as two-operand vector-Jacobian products per step, at
        # O(b n (n + m + q)) multiply-adds; the closed-loop Jacobian
        # F_s + F_y K phi_s (O(b n m q n) to form) never exists.
        lam = np.asarray(cost.state_cost_grad(S[N - 1], N), dtype=float)
        for t in range(N - 1, 0, -1):
            s, u, y, xi = S[t - 1], U[t - 1], Y[t - 1], XI[t - 1]
            f_y = np.asarray(dyn.jacobian_control(s, y, xi, t), dtype=float)
            g = u @ cost.control_weights[t - 1] + np.einsum("bnm,bn->bm", f_y, lam)
            G[:, t - 1] = np.einsum("bm,bq->bmq", g, PHI[t - 1])
            f_s = np.asarray(dyn.jacobian_state(s, y, xi, t), dtype=float)
            phi_s = np.asarray(policy.features_jacobian(s, t), dtype=float)
            lam = (np.asarray(cost.state_cost_grad(s, t), dtype=float)
                   + np.einsum("bnk,bn->bk", f_s, lam)
                   + np.einsum("bqn,bq->bn", phi_s, g @ policy.gains[t - 1]))
        G *= (model.alpha * w)[:, None, None, None]
    return G, w


def policy_gradient_batch(dyn: Dynamics, cost: ControlCost, policy: Policy,
                          model: ControlRiskModel, sampler: GaussianSampler,
                          n: int, method: str = "derivative_free") -> BatchGradientEstimate:
    """Average n gradient samples with per-entry standard errors."""
    if n < 2:
        raise ContractError("batch gradient estimation needs n >= 2")
    samples, costs = _gradient_samples(dyn, cost, policy, model, sampler, n, method)
    return BatchGradientEstimate(
        mean=samples.mean(axis=0),
        std_err=samples.std(axis=0, ddof=1) / np.sqrt(n),
        exp_cost_mean=float(costs.mean()),
        exp_cost_std_err=float(costs.std(ddof=1) / np.sqrt(n)),
        n=n,
    )


def stack_gains(gains) -> np.ndarray:
    return np.concatenate([np.asarray(k, dtype=float).ravel() for k in gains])


def unstack_gains(vec: np.ndarray, n_steps: int, m: int, q: int) -> list:
    return [vec[i * m * q:(i + 1) * m * q].reshape(m, q).copy() for i in range(n_steps)]


def train_policy(dyn: Dynamics, cost: ControlCost, policy0: Policy,
                 model: ControlRiskModel, method: str, config: SolverConfig,
                 constraint: FeasibleSet, sampler: GaussianSampler,
                 callback: Optional[Callable] = None):
    """Projected stochastic gradient descent over the stacked gains.

    Returns (trained Policy with the averaged gains when
    config.averaging is set, else the final gains, and a SolverReport).
    A failed per-step certificate is a warning; the report flags the
    void optimality certificate.  The objective trace records the batch
    mean of exp(alpha J) at each iterate.  ``callback(i, theta,
    running_average)`` fires after each update with the stacked gains.
    """
    _validate_problem(dyn, cost, policy0, model)
    if method not in _ESTIMATORS:
        raise ContractError(f"unknown gradient method {method!r}")
    n_steps, m, q = policy0.n_steps, policy0.control_dim, policy0.feature_dim
    dim = n_steps * m * q
    if constraint.dim != dim:
        raise ContractError(f"constraint dimension {constraint.dim} != stacked gain size {dim}")
    cert = check_control_certificate(cost, model)
    if not cert.holds:
        warnings.warn(
            f"per-step certificate fails (worst margin {cert.margins.min():.3e}); "
            "the optimality certificate in the report is void",
            stacklevel=2,
        )

    pilot_stream, run_stream = sampler.split(2)
    theta = constraint.project(stack_gains(policy0.gains))
    radius = constraint.radius_bound
    zeta = config.zeta
    if zeta is None:
        samples, _ = _gradient_samples(
            dyn, cost, policy0.with_gains(unstack_gains(theta, n_steps, m, q)),
            model, pilot_stream, config.pilot_samples, method)
        zeta = batch_second_moment(samples, config.batch)
        if not zeta > 0.0:
            zeta = 1.0

    T = config.iterations
    thetas = np.empty((T, dim))
    grad_norms = np.empty(T)
    etas = np.empty(T)
    objective_trace = np.empty(T)
    running_sum = np.zeros(dim)
    for i in range(1, T + 1):
        thetas[i - 1] = theta
        running_sum += theta
        current = policy0.with_gains(unstack_gains(theta, n_steps, m, q))
        samples, costs = _gradient_samples(dyn, cost, current, model, run_stream,
                                           max(config.batch, 1), method)
        g = samples.mean(axis=0).ravel()
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient estimate at iteration {i}", step=i)
        objective_trace[i - 1] = float(costs.mean())
        eta = step_size(radius, zeta, i)
        grad_norms[i - 1] = float(np.linalg.norm(g))
        etas[i - 1] = eta
        theta = constraint.project(theta - eta * g)
        if callback is not None:
            callback(i, theta, running_sum / i)

    theta_hat = thetas.mean(axis=0) if config.averaging else theta.copy()
    report = SolverReport(
        theta_hat=theta_hat,
        final_theta=theta,
        certificate=convergence_certificate(radius, zeta, T),
        zeta=zeta,
        thetas=thetas,
        grad_norms=grad_norms,
        etas=etas,
        certified=cert.holds,
        certificate_margin=float(cert.margins.min()),
        objective_trace=objective_trace,
    )
    trained = policy0.with_gains(unstack_gains(theta_hat, n_steps, m, q))
    return trained, report


def recompute_cost(r: Rollout, cost: ControlCost) -> float:
    """Re-derive J from the trajectory record in the original fold order."""
    N = r.states.shape[0]
    total = 0.0
    for t in range(1, N):
        u = r.controls[t - 1]
        total += cost.stage(r.states[t - 1], t) + 0.5 * float(
            u @ cost.control_weights[t - 1] @ u)
    total += cost.stage(r.states[N - 1], N)
    return total


def write_rollout_csv(path, r: Rollout) -> None:
    """Columns: t, s (flattened), u, y, stage_cost; the terminal row has
    empty control cells."""
    N, n = r.states.shape
    m = r.controls.shape[1]
    header = (["t"] + [f"s_{j}" for j in range(n)]
              + [f"u_{j}" for j in range(m)] + [f"y_{j}" for j in range(m)]
              + ["stage_cost"])
    rows = []
    for t in range(1, N):
        rows.append([t, *r.states[t - 1], *r.controls[t - 1], *r.realized[t - 1],
                     r.stage_costs[t - 1]])
    rows.append([N, *r.states[N - 1], *([""] * m), *([""] * m), r.stage_costs[N - 1]])
    write_csv(path, rows, header=header)
