"""Randomized test problems shared across the tests, and the test
oracles: references written independently of the library code they check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sl

from riskconvex.benchmarks import ScalarBenchmark
from riskconvex.control import (
    ControlCost,
    ControlRiskModel,
    Dynamics,
    Policy,
    Rollout,
    _RolloutEngine,
)
from riskconvex.errors import ContractError
from riskconvex.fields import ScalarField
from riskconvex.objective import RiskModel, check_exponents
from riskconvex.synthesis import LinearSystem

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
        # One in-place pass per bump over the (n, dim) points, in the
        # operation order of the broadcast form that test_support.py checks
        # it against bit for bit.
        theta = np.asarray(theta, dtype=float)
        vals = np.zeros(theta.shape[0])
        z = np.empty(theta.shape[0])
        sq = np.empty(theta.shape[0])
        for center, width, weight in zip(centers, widths, weights):
            np.subtract(theta[:, 0], center[0], out=z)
            z *= z
            for i in range(1, dim):
                np.subtract(theta[:, i], center[i], out=sq)
                sq *= sq
                z += sq
            z *= -0.5
            z /= width**2
            np.exp(z, out=z)
            z *= weight
            vals += z
        return vals

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


def _forward_batch(dyn, cost, policy, model, sampler, n):
    """(S, U, Y, XI, PHI, total) of n noisy engine rollouts under the
    policy's gains, run as one block whatever n is."""
    engine = _RolloutEngine(dyn, cost, policy, model)
    return engine.forward(np.stack(policy.gains), *engine.draw(sampler, n))[:6]


def _full_batch(dyn, cost, policy, model, sampler, n, method):
    """(engine, K, trajectory, w, scale) of n rollouts run as one
    unblocked forward pass: w = exp(alpha J), scale = alpha w
    (model-based) or w (derivative-free)."""
    engine = _RolloutEngine(dyn, cost, policy, model)
    engine.check_method(method)
    K = np.stack(policy.gains)
    traj = engine.forward(K, *engine.draw(sampler, n))
    w = np.exp(check_exponents(model.alpha * traj[5]))
    return engine, K, traj, w, (model.alpha * w if method == "model_based" else w)


def _gradient_samples(dyn, cost, policy, model, sampler, n, method):
    """(samples (n, N-1, m, q), exp_costs (n,)) of the chosen estimator
    from one unblocked forward pass; overflow of exp(alpha J) raises
    instead of returning inf or NaN."""
    engine, K, traj, w, scale = _full_batch(dyn, cost, policy, model, sampler, n, method)
    G = engine.raw_gradients(method, K, traj)
    G *= scale[:, None, None, None]
    return G, w


def _full_batch_moments(dyn, cost, policy, model, sampler, n, method):
    """(mean, second moment, w) of the gradient samples of one unblocked
    forward pass, reduced per step over the whole batch: with
    c = scale / n, mean_t = (c g_t)' phi_t and second_t =
    n ((c g_t)^2)' (phi_t^2), the reference of the engine's row-blocked
    moments."""
    engine, K, traj, w, scale = _full_batch(dyn, cost, policy, model, sampler, n, method)
    c = scale[:, None] / n
    mean, second = np.empty(engine.shape), np.empty(engine.shape)
    for t, g in engine._scores(method, K, traj):
        phi = traj[4][t - 1]
        cg = c * g
        mean[t - 1] = cg.T @ phi
        cg *= cg
        second[t - 1] = (cg.T @ (phi * phi)) * n
    return mean, second, w


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


def recompute_cost(r: Rollout, dyn, cost, policy, model) -> float:
    """Re-derive J from the trajectory record in the original fold order,
    with the engine's bound-checked state cost and its stage-cost
    expression l(s_t) + 0.5 u_t' R_t u_t on batches of one, so the
    bookkeeping check is bit-exact."""
    state_cost = _RolloutEngine(dyn, cost, policy, model)._checked_state_cost
    N = r.states.shape[0]
    total = 0.0
    for t in range(1, N):
        vals = state_cost(r.states[t - 1:t], t)
        u = r.controls[t - 1:t]
        total += float((vals + 0.5 * np.einsum("bi,bi->b", u @ cost.control_weights[t - 1], u))[0])
    total += float(state_cost(r.states[N - 1:], N)[0])
    return total


def scalar_grid_objective(bench: ScalarBenchmark, gain_grid, n_rollouts: int,
                          sampler) -> np.ndarray:
    """Brute-force E[exp(alpha J)] of the horizon-3 scalar benchmark over
    a grid of time-2 gains k, with common random numbers across the grid
    so the argmin is a stable oracle.

    Independent of the rollout engine and of the closed form.  With
    s_1 = 0 (so K_1 never matters), s_2 = b eps_1, z = a s_2 + b eps_2 and
    w = b s_2, the final state is s_3 = z + k w and each sample's cost is
    J(k) = c0 + c1 k + c2 k^2 with c0 = q (s_2^2 + z^2) / 2, c1 = q z w and
    c2 = (r s_2^2 + q w^2) / 2; alpha is folded into the coefficients.
    """
    if bench.horizon != 3:
        raise ContractError("the grid oracle is written for horizon 3")
    a, b, q, r, alpha = bench.a, bench.b, bench.q, bench.r, bench.alpha
    eps = sampler.normal((2, n_rollouts)) * np.sqrt(bench.sigma_u)
    s2 = b * eps[0]
    z = a * s2 + b * eps[1]
    w = b * s2
    c0 = (0.5 * alpha * q) * (s2 * s2 + z * z)
    c1 = (alpha * q) * z * w
    c2 = (0.5 * alpha) * (r * s2 * s2 + q * w * w)
    buf = np.empty(n_rollouts)
    out = np.empty(len(gain_grid))
    for idx, k in enumerate(np.asarray(gain_grid, dtype=float)):
        np.multiply(c2, k, out=buf)  # alpha J(k) = c0 + k (c1 + k c2)
        buf += c1
        buf *= k
        buf += c0
        np.exp(buf, out=buf)
        out[idx] = buf.mean()
    return out


@dataclass
class DenseOperators:
    """The dense trajectory-space operators of a linear system: the block
    trajectory map M (x = M y, first block row zero since s_1 = 0),
    S = blockdiag(inv(Sigma_t)), R = blockdiag(R_t), Q = blockdiag(Q_t)."""

    M: np.ndarray
    S: np.ndarray
    R: np.ndarray
    Q: np.ndarray
    state_dim: int
    control_dim: int

    def place(self, gains) -> np.ndarray:
        """Block placement of K_1..K_{N-1} into the (N-1) m x N n gain operator."""
        n, m = self.state_dim, self.control_dim
        K = np.zeros((self.R.shape[0], self.Q.shape[0]))
        for t, k in enumerate(gains):
            K[t * m:(t + 1) * m, t * n:(t + 1) * n] = k
        return K


def dense_operators(sys: LinearSystem) -> DenseOperators:
    """:class:`DenseOperators` from ``sys.A/B/Q/R/sigma`` alone; nothing of
    ``riskconvex.synthesis`` but the system is used.  Block (i, j) of M is
    (A_{i-1} ... A_{j+1}) B_j for i > j, written as a product per block."""
    N, (n, m) = sys.horizon, np.shape(sys.B[0])
    M = np.zeros((N * n, (N - 1) * m))
    for i in range(2, N + 1):       # state s_i
        for j in range(1, i):       # control y_j
            block = sys.B[j - 1]
            for k in range(j + 1, i):
                block = sys.A[k - 1] @ block
            M[(i - 1) * n:i * n, (j - 1) * m:j * m] = block
    return DenseOperators(M=M, S=sl.block_diag(*[np.linalg.inv(s) for s in sys.sigma]),
                          R=sl.block_diag(*sys.R), Q=sl.block_diag(*sys.Q),
                          state_dim=n, control_dim=m)


def riccati_gains(sys: LinearSystem, alpha: float) -> list:
    """The optimal state feedback K_1..K_{N-1} of the risk-sensitive
    linear-quadratic problem, by the backward Riccati recursion of
    Jacobson (1973).

    The cost to go is E exp(alpha J_t) = c_t exp(alpha s' P_t s / 2) with
    P_N = Q_N.  Averaging over eps_t ~ N(0, Sigma_t) turns P_{t+1} into
    P~ = P + alpha P B inv(inv(Sigma) - alpha B'PB) B'P, which is finite
    only while inv(Sigma) - alpha B'PB > 0; then
    K_t = -inv(R + B'P~B) B'P~A and P_t = Q_t + A'P~(A + B K_t).  Written
    from the dynamic program alone, independently of the det-max program
    in ``riskconvex.synthesis``.
    """
    P = sys.Q[-1]
    gains = []
    for t in reversed(range(sys.horizon - 1)):
        A, B = sys.A[t], sys.B[t]
        inner = np.linalg.inv(sys.sigma[t]) - alpha * B.T @ P @ B
        if np.linalg.eigvalsh(0.5 * (inner + inner.T))[0] <= 0.0:
            raise ContractError(f"E exp(alpha J) is infinite from step {t + 1} on")
        P_tilde = P + alpha * P @ B @ np.linalg.solve(inner, B.T @ P)
        K = -np.linalg.solve(sys.R[t] + B.T @ P_tilde @ B, B.T @ P_tilde @ A)
        P = sys.Q[t] + A.T @ P_tilde @ (A + B @ K)
        P = 0.5 * (P + P.T)
        gains.append(K)
    return gains[::-1]
