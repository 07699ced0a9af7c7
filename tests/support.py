"""Shared builders for randomized test problems."""

from __future__ import annotations

import numpy as np

from riskconvex.control import ControlCost, ControlRiskModel, Dynamics, Policy, _RolloutEngine
from riskconvex.fields import ScalarField
from riskconvex.objective import RiskModel

GAUSS_PEAK_SLOPE = np.exp(-0.5)  # max |d/dx exp(-x^2/2)| at x = 1


def bump_field(rng: np.random.Generator, dim: int, n_bumps: int = 4,
               amp: float = 1.0) -> ScalarField:
    """Random smooth bounded field: a mixture of Gaussian bumps.

    Bounded above by the sum of positive weights; Lipschitz constant from
    the per-bump slope bound |c| * e^{-1/2} / width.
    """
    centers = rng.uniform(-2.0, 2.0, size=(n_bumps, dim))
    widths = rng.uniform(0.4, 1.2, size=n_bumps)
    weights = amp * rng.uniform(-1.0, 1.0, size=n_bumps)

    def value(theta):
        theta = np.asarray(theta, dtype=float)
        single = theta.ndim == 1
        pts = theta[None, :] if single else theta
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        vals = (weights * np.exp(-0.5 * d2 / widths**2)).sum(axis=1)
        return float(vals[0]) if single else vals

    def gradient(theta):
        theta = np.asarray(theta, dtype=float)
        single = theta.ndim == 1
        pts = theta[None, :] if single else theta
        diff = pts[:, None, :] - centers[None, :, :]
        d2 = (diff**2).sum(axis=2)
        coef = weights * np.exp(-0.5 * d2 / widths**2) / widths**2
        grads = -(coef[:, :, None] * diff).sum(axis=1)
        return grads[0] if single else grads

    upper = float(np.sum(np.clip(weights, 0.0, None))) + 1e-12
    lipschitz = float(np.sum(np.abs(weights) * GAUSS_PEAK_SLOPE / widths))
    return ScalarField(value=value, upper_bound=upper, dim=dim, gradient=gradient,
                       lipschitz=lipschitz, vectorized=True)


def two_basin_reference(theta) -> np.ndarray:
    """The demo two-basin field
    1 - 1.2 exp(-0.5 ((theta + 1) / 0.8)^2) - 2 exp(-0.5 ((theta - 1.5) / 0.05)^2),
    in the operation order of a plain per-well evaluation
    depth * exp((theta - center)^2 * (-0.5 / width^2)) with unclamped np.exp."""
    theta = np.asarray(theta, dtype=float)
    wide = 1.2 * np.exp((theta - -1.0) ** 2 * (-0.5 / 0.8**2))
    narrow = 2.0 * np.exp((theta - 1.5) ** 2 * (-0.5 / 0.05**2))
    return (1.0 - wide) - narrow


def certified_model(rng: np.random.Generator, dim: int, alpha: float = None,
                    slack: float = None) -> RiskModel:
    """Random risk model whose certificate holds with the given slack."""
    alpha = float(rng.uniform(0.5, 1.5)) if alpha is None else alpha
    slack = float(rng.uniform(0.0, 1.0)) if slack is None else slack
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = rng.uniform(0.3, 1.5, size=dim)
    sigma = (q * eigs) @ q.T
    sigma_inv = (q / eigs) @ q.T
    reg = (1.0 + slack) / alpha * 0.5 * (sigma_inv + sigma_inv.T)
    return RiskModel(alpha, sigma, reg)


def smooth_control_problem(rng: np.random.Generator, n: int, m: int, horizon: int,
                           alpha: float = 0.4, random_start: bool = True):
    """Random smooth (tanh) dynamics with full derivative information.

    States stay in (-1, 1) so the quadratic state cost is bounded by a
    computable constant.  Vectorized over a leading batch axis.
    """
    A = 0.6 * rng.standard_normal((n, n))
    B = 0.7 * rng.standard_normal((n, m))
    c = 0.3 * rng.standard_normal(n)
    Pf = 0.5 * rng.standard_normal((n, n))
    M = 0.4 * rng.standard_normal((n, n))
    M = 0.5 * (M @ M.T)
    s1 = rng.uniform(-0.5, 0.5, size=n) if random_start else np.zeros(n)

    def step(s, y, xi, t):
        return np.tanh(s @ A.T + y @ B.T + c)

    def jac_s(s, y, xi, t):
        d = 1.0 - np.tanh(s @ A.T + y @ B.T + c) ** 2
        return d[..., :, None] * A

    def jac_y(s, y, xi, t):
        d = 1.0 - np.tanh(s @ A.T + y @ B.T + c) ** 2
        return d[..., :, None] * B

    def feats(s, t):
        return np.tanh(s @ Pf.T) + 0.3

    def feats_jac(s, t):
        return (1.0 - np.tanh(s @ Pf.T) ** 2)[..., :, None] * Pf

    def state_cost(s, t):
        return 0.5 * np.einsum("...i,ij,...j->...", s, M, s)

    def state_cost_grad(s, t):
        return s @ M.T

    bound = 0.5 * float(np.abs(M).sum())  # |s_i| <= 1 componentwise
    dyn = Dynamics(step=step, state_dim=n, control_dim=m, disturbance_dim=0,
                   horizon=horizon, jacobian_state=jac_s, jacobian_control=jac_y,
                   init_state=lambda g: s1,
                   init_state_batch=lambda g, b: np.broadcast_to(s1, (b, n)).copy(),
                   vectorized=True)
    cost = ControlCost(state_cost=state_cost,
                       control_weights=[0.4 * np.eye(m)] * (horizon - 1),
                       bound=bound, state_cost_grad=state_cost_grad, vectorized=True)
    policy = Policy(gains=[0.2 * rng.standard_normal((m, n)) for _ in range(horizon - 1)],
                    features=feats, features_jacobian=feats_jac, vectorized=True)
    model = ControlRiskModel(alpha=alpha, control_noise=[0.5 * np.eye(m)] * (horizon - 1))
    return dyn, cost, policy, model


def _forward_batch(dyn, cost, policy, model, sampler, n, mode, s1):
    """(S, U, Y, XI, PHI, total) of n engine rollouts under the policy's gains."""
    engine = _RolloutEngine(dyn, cost, policy, model)
    return engine.forward(np.stack(policy.gains), sampler, n, mode, s1)[:6]


def _gradient_samples(dyn, cost, policy, model, sampler, n, method):
    """(samples (n, N-1, m, q), exp_costs (n,)) of the chosen estimator;
    overflow of exp(alpha J) raises instead of returning inf or NaN."""
    engine = _RolloutEngine(dyn, cost, policy, model)
    engine.check_method(method)
    K = np.stack(policy.gains)
    traj, w, scale = engine._weighted(K, sampler, n, method)
    G = engine.raw_gradients(method, K, traj)
    G *= scale[:, None, None, None]
    return G, w


def per_sample_zeta(samples: np.ndarray, batch: int) -> float:
    """Reference for ``solver.pilot_zeta``: sqrt(E ||mean of ``batch``
    samples||^2) from the per-sample tensor, the root mean squared sample
    norm for batch 1, else mean . mean + tr(var_ddof1) / batch."""
    flat = samples.reshape(samples.shape[0], -1)
    if batch <= 1:
        return float(np.sqrt(np.mean(np.sum(flat**2, axis=1))))
    mu = flat.mean(axis=0)
    var = flat.var(axis=0, ddof=1)
    return float(np.sqrt(mu @ mu + var.sum() / batch))
