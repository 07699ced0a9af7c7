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

Both are unbiased for grad_K E[exp(alpha J)].  Every rollout, gradient
sample and training iteration runs through one batched engine, and a
single rollout is a batch of one; the callables of a problem object that
is not ``vectorized`` are evaluated row by row and stacked.  Batch
estimation draws from derived sampler streams and reduces in fixed order:
the batch mean and second moment are reduced per step as small matrix
products (g_t' phi_t), so only the single-rollout estimators build a
per-sample (n, N-1, m, q) tensor; batches and the step-size pilot do not.  A
Jacobian returned as ``np.broadcast_to`` of one matrix is applied to the
whole batch as one product.
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
    FieldEvaluationError,
)
from .fields import _first_violation
from .objective import certificate_margins, check_exponents
from .sampling import GaussianSampler, as_covariance, as_psd_weight, spd_inverse, symmetric_sqrt
from .solver import FeasibleSet, SolverConfig, projected_sgd


@dataclass
class Dynamics:
    """Discrete-time dynamics s_{t+1} = F(s_t, y_t, xi_t, t), t = 1..N-1.

    ``step`` must be deterministic given its arguments.  Optional
    Jacobians d s_{t+1} / d s_t (n x n) and d s_{t+1} / d y_t (n x m)
    enable the model-based gradient; a batched Jacobian returned as
    ``np.broadcast_to`` of one matrix (stride 0 on the batch axis) is
    applied to every row as one product.  ``disturbance(rng, t)`` samples
    xi_t (None means xi = 0, p may be 0); ``init_state(rng)`` samples
    s_1 (None means s_1 = 0); their ``*_batch`` forms, preferred when
    given, draw b rows at once.  ``vectorized`` promises that step and
    the Jacobians accept a leading batch axis; otherwise they run per row.
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
    R_t for t = 1..N-1.  ``vectorized`` promises that both callables
    accept a leading batch axis; otherwise they run per row.
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
        self.control_weights = [as_psd_weight(r, name=f"control weight at t={t}")
                                for t, r in enumerate(self.control_weights, start=1)]

    @property
    def control_dim(self) -> int:
        return self.control_weights[0].shape[0]

    def _check(self, vals, s, t):
        """The state costs ``vals`` at states ``s``, or FieldEvaluationError
        naming the first one that breaks the bound."""
        i = _first_violation(vals, self.bound)
        if i is not None:
            v = vals if np.ndim(vals) == 0 else vals[i]
            raise FieldEvaluationError(
                f"state cost {v} violates bound {self.bound} at t={t}", theta=s
            )
        return vals

    def stage(self, s, t) -> float:
        return self._check(float(self.state_cost(s, t)), s, t)

    def stage_batch(self, s: np.ndarray, t: int) -> np.ndarray:
        vals = _batched(self.state_cost, self.vectorized, True)(s, t)
        return self._check(np.asarray(vals, dtype=float), s, t)


@dataclass
class Policy:
    """Feedback policy u_t = K_t phi(s_t, t), linear in the gains.

    ``gains[t-1]`` is the (m x q) gain K_t for t = 1..N-1; ``features``
    maps (s, t) to a q-vector.  The optional features Jacobian
    d phi / d s (q x n) enables the model-based gradient; like the
    dynamics Jacobians, a broadcast one is applied as one product.
    ``vectorized`` promises that both callables accept a leading batch
    axis; otherwise they run per row.
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
    margins, tols = certificate_margins(model.alpha, np.array(cost.control_weights),
                                        np.array(model.noise_inv))
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


def _batched(fn, vectorized: bool, scalar: bool = False):
    """``fn`` lifted to a leading batch axis on every argument but the
    last (t): itself when ``vectorized``, else a loop over the rows that
    stacks the results, as :meth:`ScalarField.evaluate_batch` does;
    ``scalar`` results are read with float(), as state costs are."""
    if vectorized or fn is None:
        return fn

    def lifted(*args):
        *batch, t = args
        if scalar:
            return np.array([float(fn(*row, t)) for row in zip(*batch)])
        return np.stack([np.asarray(fn(*row, t), dtype=float) for row in zip(*batch)])

    return lifted


def _stage_cost(vals: np.ndarray, u: np.ndarray, R: np.ndarray) -> np.ndarray:
    """l(s_t) + 0.5 u_t' R_t u_t per row; shared by the engine and
    :func:`recompute_cost` so the bookkeeping is bit-exact."""
    return vals + 0.5 * np.einsum("bi,bi->b", u @ R, u)


def _vjp(J: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v_b' J_b for every row b.  A Jacobian whose rows share one matrix
    (stride 0 on the batch axis, as ``np.broadcast_to`` returns) is
    applied as one product v @ J[0]."""
    if J.strides[0] == 0:
        return v @ J[0]
    return np.einsum("bij,bi->bj", J, v)


class _RolloutEngine:
    """The batched rollout engine.  Construction validates the problem and
    resolves the dimensions, R_t, the noise factors
    and the lifted callables once; gains come in per call as one stacked
    (N-1, m, q) array, so a training loop rebuilds nothing per iteration."""

    def __init__(self, dyn: Dynamics, cost: ControlCost, policy: Policy,
                 model: ControlRiskModel):
        n_steps = dyn.horizon - 1
        if len(cost.control_weights) != n_steps:
            raise ContractError(f"cost needs {n_steps} control weights")
        if model.n_steps != n_steps:
            raise ContractError(f"model needs {n_steps} noise covariances")
        if policy.n_steps != n_steps:
            raise ContractError(f"policy needs {n_steps} gains")
        if policy.control_dim != dyn.control_dim or model.control_dim != dyn.control_dim:
            raise ContractError("control dimension mismatch")
        self.dyn, self.cost = dyn, cost
        self.shape = (policy.n_steps, policy.control_dim, policy.feature_dim)
        self.alpha = model.alpha
        self.R = cost.control_weights
        self.noise_root, self.noise_inv = model.noise_root, model.noise_inv
        self.step = _batched(dyn.step, dyn.vectorized)
        self.jac_state = _batched(dyn.jacobian_state, dyn.vectorized)
        self.jac_control = _batched(dyn.jacobian_control, dyn.vectorized)
        self.state_cost = _batched(cost.state_cost, cost.vectorized, scalar=True)
        self.state_cost_grad = _batched(cost.state_cost_grad, cost.vectorized)
        self.features = _batched(policy.features, policy.vectorized)
        self.features_jacobian = _batched(policy.features_jacobian, policy.vectorized)

    def check_method(self, method: str) -> None:
        if method not in ("model_based", "derivative_free"):
            raise ContractError(f"unknown gradient method {method!r}")
        if method == "model_based" and None in (self.jac_state, self.jac_control,
                                                self.features_jacobian, self.state_cost_grad):
            raise ContractError("model-based gradient requires dynamics and features "
                                "Jacobians and state cost gradients")

    def _checked_state_cost(self, s: np.ndarray, t: int) -> np.ndarray:
        return self.cost._check(np.asarray(self.state_cost(s, t), dtype=float), s, t)

    def forward(self, K: np.ndarray, sampler: GaussianSampler, n: int,
                mode: str = "noisy", s1=None, frozen: Optional[FrozenNoise] = None):
        """n rollouts under the stacked gains K, with ``mode``, ``s1`` and
        ``frozen`` (replayed on every row) as in :func:`rollout`: states S
        (N, n, nd), U, Y, XI (N-1, n, .), the features PHI (a list of
        (n, q)), J (n,) and the stage costs (N, n) whose left fold J is."""
        if mode not in ("noisy", "mean"):
            raise ContractError(f"unknown rollout mode {mode!r}")
        dyn = self.dyn
        N, nd, m, p = dyn.horizon, dyn.state_dim, dyn.control_dim, dyn.disturbance_dim
        rng = sampler.rng
        noisy = frozen is None and mode == "noisy"
        if frozen is not None:
            s1 = frozen.s1
        if s1 is not None:
            s = np.broadcast_to(np.asarray(s1, dtype=float), (n, nd)).copy()
        elif noisy and dyn.init_state_batch is not None:
            s = np.asarray(dyn.init_state_batch(rng, n), dtype=float)
        elif noisy and dyn.init_state is not None:
            s = np.stack([np.asarray(dyn.init_state(rng), dtype=float) for _ in range(n)])
        else:
            s = np.zeros((n, nd))

        S = np.empty((N, n, nd))
        U = np.empty((N - 1, n, m))
        Y = np.empty((N - 1, n, m))
        XI = np.empty((N - 1, n, p))
        stage = np.empty((N, n))
        PHI = []
        total = np.zeros(n)
        S[0] = s
        for t in range(1, N):
            # Callables see rows of S, so features that return s itself
            # keep no second copy of the states alive.
            s = S[t - 1]
            phi = np.asarray(self.features(s, t), dtype=float)
            u = phi @ K[t - 1].T
            stage[t - 1] = _stage_cost(self._checked_state_cost(s, t), u, self.R[t - 1])
            total += stage[t - 1]
            if frozen is not None:
                eps = frozen.eps[t - 1]
                xi = np.broadcast_to(np.asarray(frozen.xi[t - 1], dtype=float), (n, p))
            elif not noisy:
                eps = np.zeros(m)
                xi = np.zeros((n, p))
            else:
                eps = sampler.normal((n, m)) @ self.noise_root[t - 1]
                if p == 0 or dyn.disturbance is None and dyn.disturbance_batch is None:
                    xi = np.zeros((n, p))
                elif dyn.disturbance_batch is not None:
                    xi = np.asarray(dyn.disturbance_batch(rng, t, n), dtype=float)
                else:
                    xi = np.stack([np.asarray(dyn.disturbance(rng, t), dtype=float)
                                   for _ in range(n)])
            y = u + eps
            S[t] = self.step(s, y, xi, t)
            if not np.isfinite(S[t]).all():
                raise DivergenceError(f"non-finite state at t={t + 1}", step=t + 1)
            PHI.append(phi)
            U[t - 1], Y[t - 1], XI[t - 1] = u, y, xi
        stage[N - 1] = self._checked_state_cost(S[N - 1], N)
        total += stage[N - 1]
        return S, U, Y, XI, PHI, total, stage

    def _scores(self, method: str, K: np.ndarray, traj):
        """Yield (t, g_t) such that row b's raw G_t = g_t[b] phi_t[b]':
        the likelihood-ratio score, or backward from t = N-1 the adjoint
        recursion of :func:`policy_gradient_model_based` as two-operand
        vector-Jacobian products, O(b n (n + m + q)) per step."""
        S, U, Y, XI = traj[:4]
        N = S.shape[0]
        if method == "derivative_free":
            for t in range(1, N):
                yield t, ((Y[t - 1] - U[t - 1]) @ self.noise_inv[t - 1]
                          + self.alpha * (U[t - 1] @ self.R[t - 1]))
            return
        lam = np.asarray(self.state_cost_grad(S[N - 1], N), dtype=float)
        for t in range(N - 1, 0, -1):
            s, u, y, xi = S[t - 1], U[t - 1], Y[t - 1], XI[t - 1]
            f_y = np.asarray(self.jac_control(s, y, xi, t), dtype=float)
            g = u @ self.R[t - 1] + _vjp(f_y, lam)
            yield t, g
            if t == 1:  # nothing reads lam_1
                return
            f_s = np.asarray(self.jac_state(s, y, xi, t), dtype=float)
            phi_s = np.asarray(self.features_jacobian(s, t), dtype=float)
            lam = (np.asarray(self.state_cost_grad(s, t), dtype=float)
                   + _vjp(f_s, lam) + _vjp(phi_s, g @ K[t - 1]))

    def raw_gradients(self, method: str, K: np.ndarray, traj) -> np.ndarray:
        """The raw G_t of every row, (n, N-1, m, q)."""
        PHI = traj[4]
        G = np.empty((PHI[0].shape[0],) + self.shape)
        for t, g in self._scores(method, K, traj):
            G[:, t - 1] = np.einsum("bm,bq->bmq", g, PHI[t - 1])
        return G

    def _weighted(self, K: np.ndarray, sampler: GaussianSampler, n: int, method: str):
        """(trajectory, w = exp(alpha J), per-row sample scale: alpha w for
        the model-based estimator, w for the derivative-free one).
        :class:`EstimateOverflowError` names the first row whose
        exp(alpha J) overflows."""
        traj = self.forward(K, sampler, n)
        w = np.exp(check_exponents(self.alpha * traj[5]))
        return traj, w, (self.alpha * w if method == "model_based" else w)

    def moments(self, K: np.ndarray, sampler: GaussianSampler, n: int, method: str,
                second: bool = False):
        """(batch mean, batch second moment or None, w) of the gradient
        samples, reduced per step with small products and no per-sample
        tensor: with c = scale / n the mean is (c g_t)' phi_t and the second
        moment n ((c g_t)^2)' (phi_t^2) = ((scale g_t)^2)' (phi_t^2) / n."""
        traj, w, scale = self._weighted(K, sampler, n, method)
        c = scale[:, None] / n
        mean = np.empty(self.shape)
        sq = np.empty(self.shape) if second else None
        for t, g in self._scores(method, K, traj):
            phi = traj[4][t - 1]
            cg = c * g
            mean[t - 1] = cg.T @ phi
            if second:
                cg *= cg
                sq[t - 1] = (cg.T @ (phi * phi)) * n
        return mean, sq, w


def _single(dyn, cost, policy, model, sampler, mode="noisy", s1=None, frozen=None,
            method=None):
    """One rollout as an engine batch of one: (Rollout, raw G of ``method``)."""
    engine = _RolloutEngine(dyn, cost, policy, model)
    if method is not None:
        engine.check_method(method)
    K = np.stack(policy.gains)
    traj = engine.forward(K, sampler, 1, mode, s1, frozen)
    S, U, Y, XI, _, total, stage = traj
    expo = check_exponents(model.alpha * total)
    r = Rollout(states=S[:, 0], controls=U[:, 0], realized=Y[:, 0], disturbances=XI[:, 0],
                stage_costs=stage[:, 0], cost=float(total[0]),
                exp_cost=float(np.exp(expo[0])), alpha=model.alpha)
    return r, None if method is None else engine.raw_gradients(method, K, traj)[0]


def rollout(dyn: Dynamics, cost: ControlCost, policy: Policy, model: ControlRiskModel,
            sampler: GaussianSampler, mode: str = "noisy",
            s1=None, frozen: Optional[FrozenNoise] = None) -> Rollout:
    """Simulate one trajectory under the policy (the engine at batch one).

    mode "noisy" draws y_t ~ N(u_t, Sigma_t) and xi_t from the
    disturbance sampler; mode "mean" forces y_t = u_t and xi_t = 0 (and
    s_1 = 0 unless given), for testing.  ``frozen`` replays a fixed
    noise realization regardless of mode.  Raises
    :class:`DivergenceError` carrying t when a state goes non-finite,
    and :class:`EstimateOverflowError` when exp(alpha J) overflows.
    """
    return _single(dyn, cost, policy, model, sampler, mode, s1, frozen)[0]


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
    r, G = _single(dyn, cost, policy, model, sampler, mode, frozen=frozen,
                   method="model_based")
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
    r, G = _single(dyn, cost, policy, model, sampler, mode, frozen=frozen,
                   method="derivative_free")
    return PolicyGradientSample(per_step=G, exp_cost=r.exp_cost,
                                exp_gradient=r.exp_cost * G, rollout=r)


@dataclass
class BatchGradientEstimate:
    """Mean and standard error of n gradient samples, reduced per step as
    moments in fixed order (see :func:`policy_gradient_batch`)."""

    mean: np.ndarray       # (N-1, m, q)
    std_err: np.ndarray    # (N-1, m, q)
    exp_cost_mean: float
    exp_cost_std_err: float
    n: int


def policy_gradient_batch(dyn: Dynamics, cost: ControlCost, policy: Policy,
                          model: ControlRiskModel, sampler: GaussianSampler,
                          n: int, method: str = "derivative_free") -> BatchGradientEstimate:
    """Average n gradient samples with per-entry standard errors.

    The samples are reduced per step as moments, never stored: with
    scale = alpha w (model-based) or w (derivative-free), w = exp(alpha J),
    the mean is (scale g_t / n)' phi_t and the second moment
    E2 = ((scale g_t)^2)' (phi_t^2) / n, then
    var = n / (n - 1) max(E2 - mean^2, 0) and std_err = sqrt(var / n).
    This one-pass variance has relative rounding error about
    eps (1 + SNR^2) per entry, SNR = |mean| / sd (Chan, Golub & LeVeque
    1983), far below the sampling error 1 / sqrt(2n) of a standard error
    for noisy Monte Carlo samples; entries whose samples are all exactly
    zero (phi_1 = 0 when s_1 = 0) come out exactly 0.  ``exp_cost_mean``
    and ``exp_cost_std_err`` are the two-pass mean and std of w.
    """
    if n < 2:
        raise ContractError("batch gradient estimation needs n >= 2")
    engine = _RolloutEngine(dyn, cost, policy, model)
    engine.check_method(method)
    mean, sq, costs = engine.moments(np.stack(policy.gains), sampler, n, method, second=True)
    var = np.maximum(sq - mean * mean, 0.0) * (n / (n - 1))
    return BatchGradientEstimate(
        mean=mean,
        std_err=np.sqrt(var / n),
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
    """Projected SGD over the stacked gains, run by :func:`~riskconvex.solver.projected_sgd`.

    Starts from the projected ``config.theta0`` when set, else from the
    projected gains of ``policy0``.  Returns (trained Policy with the
    averaged gains when config.averaging is set, else the final gains,
    and a SolverReport).  A failed per-step certificate is a warning;
    the report flags the void optimality certificate.  The objective
    trace records the batch mean of exp(alpha J) at each iterate.
    ``callback(i, theta, running_average)`` fires after each update with
    the stacked gains.
    """
    engine = _RolloutEngine(dyn, cost, policy0, model)
    engine.check_method(method)
    shape = engine.shape
    dim = int(np.prod(shape))
    if constraint.dim != dim:
        raise ContractError(f"constraint dimension {constraint.dim} != stacked gain size {dim}")
    start = stack_gains(policy0.gains if config.theta0 is None else [config.theta0])
    if start.size != dim:
        raise ContractError(f"theta0 has size {start.size} != stacked gain size {dim}")
    cert = check_control_certificate(cost, model)
    if not cert.holds:
        warnings.warn(
            f"per-step certificate fails (worst margin {cert.margins.min():.3e}); "
            "the optimality certificate in the report is void",
            stacklevel=2,
        )

    def oracle(theta, n, stream, second):
        mean, sq, w = engine.moments(theta.reshape(shape), stream, n, method, second)
        return mean.ravel(), sq, w.sum() / n

    report = projected_sgd(oracle, start, constraint, config, sampler, cert.holds,
                           float(cert.margins.min()), callback)
    trained = policy0.with_gains(unstack_gains(report.theta_hat, *shape))
    return trained, report


def recompute_cost(r: Rollout, cost: ControlCost) -> float:
    """Re-derive J from the trajectory record in the original fold order,
    with the engine's stage-cost expression on batches of one."""
    N = r.states.shape[0]
    total = 0.0
    for t in range(1, N):
        vals = cost.stage_batch(r.states[t - 1:t], t)
        total += float(_stage_cost(vals, r.controls[t - 1:t], cost.control_weights[t - 1])[0])
    total += float(np.ravel(cost.stage_batch(r.states[N - 1:], N))[0])
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
