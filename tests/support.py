"""Randomized test problems shared across the tests, and the test
oracles: references written independently of the library code they check."""

from __future__ import annotations

from dataclasses import dataclass
from unittest import mock

import numpy as np
import scipy.linalg as sl

from riskconvex import solver
from riskconvex.benchmarks import ScalarBenchmark
from riskconvex.control import (
    ControlCost,
    ControlRiskModel,
    Dynamics,
    Policy,
    Rollout,
    _RolloutEngine,
    _vjp,
)
from riskconvex.errors import ContractError
from riskconvex.fields import ScalarField
from riskconvex.objective import RiskModel, _row_blocks, check_exponents
from riskconvex.synthesis import LinearSystem

GAUSS_PEAK_SLOPE = np.exp(-0.5)  # max |d/dx exp(-x^2/2)| at x = 1


class Iterates(list):
    """A ``projected_sgd`` sink that keeps each iterate it is handed, in order."""

    def __call__(self, i, theta, grad_norm, eta, objective):
        assert i == len(self) + 1
        self.append(theta)


def solve_with_sink(sink, *args):
    """``solver.solve(*args)`` with ``sink`` on its driver, ``projected_sgd``."""
    driver = solver.projected_sgd
    with mock.patch.object(solver, "projected_sgd", lambda *a: driver(*a, sink=sink)):
        return solver.solve(*args)


def solve_with_iterates(*args):
    """``solver.solve(*args)`` and its (T, k) pre-update iterates, which a
    sink on the driver keeps (the report holds none)."""
    seen = Iterates()
    return solve_with_sink(seen, *args), np.array(seen)


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


def _reference_s1(dyn, sampler, n):
    """s_1 of n rollouts drawn from ``sampler.rng``: one init_state_batch
    call, n init_state calls, or zeros when the dynamics draw none."""
    rng = sampler.rng
    if dyn.init_state_batch is not None:
        return np.asarray(dyn.init_state_batch(rng, n), dtype=float)
    if dyn.init_state is not None:
        return np.stack([np.asarray(dyn.init_state(rng), dtype=float) for _ in range(n)])
    return np.zeros((n, dyn.state_dim))


def _reference_pass(dyn, cost, policy, model, sampler, n, s1=None):
    """(engine, K, S, U, Y, XI, PHI, total) of n noisy rollouts written out
    one step at a time, independent of the engine's draw, its chunked
    products and its row blocks; only the problem's lifted callables and
    the bound-checked state cost are the engine's.  The noise is drawn in
    stream order: s_1 unless given (:func:`_reference_s1`), then per step
    eps_t as one (n, m) draw times Sigma_t's root and xi_t.  Per step:
    phi_t, u_t = phi_t K_t', the stage cost l(s_t) + 0.5 u_t' R_t u_t
    folded into J, y_t = u_t + eps_t and s_{t+1}; PHI is the list of the
    phi_t."""
    engine = _RolloutEngine(dyn, cost, policy, model)
    K = np.stack(policy.gains)
    N, m, p = dyn.horizon, dyn.control_dim, dyn.disturbance_dim
    rng = sampler.rng
    s = _reference_s1(dyn, sampler, n) if s1 is None else s1
    eps, XI = [], []
    for t in range(1, N):
        eps.append(sampler.normal((n, m)) @ model.noise_root[t - 1])
        if p > 0 and dyn.disturbance_batch is not None:
            XI.append(np.asarray(dyn.disturbance_batch(rng, t, n), dtype=float))
        elif p > 0 and dyn.disturbance is not None:
            XI.append(np.stack([np.asarray(dyn.disturbance(rng, t), dtype=float)
                                for _ in range(n)]))
        else:
            XI.append(np.zeros((n, p)))
    S, U, Y, PHI = [s], [], [], []
    total = np.zeros(n)
    for t in range(1, N):
        phi = np.asarray(engine.features(s, t), dtype=float)
        u = phi @ K[t - 1].T
        total += (engine._checked_state_cost(s, t)
                  + 0.5 * np.einsum("bi,bi->b", u @ cost.control_weights[t - 1], u))
        y = u + eps[t - 1]
        s = np.asarray(engine.step(s, y, XI[t - 1], t), dtype=float)
        S.append(s)
        U.append(u)
        Y.append(y)
        PHI.append(phi)
    total += engine._checked_state_cost(s, N)
    return engine, K, np.stack(S), np.stack(U), np.stack(Y), np.stack(XI), PHI, total


def _reference_scores(engine, model, cost, method, K, S, U, Y, XI):
    """[g_1, ..., g_{N-1}], each (n, m), such that row b's raw G_t =
    g_t[b] phi_t[b]', one step at a time: the likelihood-ratio score
    (y_t - u_t) inv(Sigma_t) + alpha u_t R_t, or the adjoint recursion
    g_t = u_t R_t + F_y' lam_{t+1}, lam_t = grad l(s_t) + F_s' lam_{t+1}
    + phi_s' (K_t' g_t) from lam_N = grad l(s_N)."""
    N = S.shape[0]
    R = cost.control_weights
    if method == "derivative_free":
        return [(Y[t - 1] - U[t - 1]) @ model.noise_inv[t - 1]
                + model.alpha * (U[t - 1] @ R[t - 1]) for t in range(1, N)]
    g = [None] * (N - 1)
    lam = np.asarray(engine.state_cost_grad(S[N - 1], N), dtype=float)
    for t in range(N - 1, 0, -1):
        s, u, y, xi = S[t - 1], U[t - 1], Y[t - 1], XI[t - 1]
        g[t - 1] = u @ R[t - 1] + _vjp(np.asarray(engine.jac_control(s, y, xi, t), dtype=float),
                                       lam)
        if t > 1:
            lam = (np.asarray(engine.state_cost_grad(s, t), dtype=float)
                   + _vjp(np.asarray(engine.jac_state(s, y, xi, t), dtype=float), lam)
                   + _vjp(np.asarray(engine.features_jacobian(s, t), dtype=float),
                          g[t - 1] @ K[t - 1]))
    return g


def _forward_batch(dyn, cost, policy, model, sampler, n):
    """(S, U, Y, XI, PHI, total) of n noisy rollouts under the policy's
    gains, written out step by step (:func:`_reference_pass`)."""
    return _reference_pass(dyn, cost, policy, model, sampler, n)[2:]


def _full_batch(dyn, cost, policy, model, sampler, n, method, s1=None):
    """(scores g_t, features phi_t, w, scale) of n rollouts written out
    step by step (``s1`` as :func:`_reference_pass` takes it): w =
    exp(alpha J), scale = alpha w (model-based) or w (derivative-free)."""
    engine, K, S, U, Y, XI, PHI, total = _reference_pass(dyn, cost, policy, model, sampler, n,
                                                         s1)
    engine.check_method(method)
    w = np.exp(check_exponents(model.alpha * total))
    g = _reference_scores(engine, model, cost, method, K, S, U, Y, XI)
    return g, PHI, w, (model.alpha * w if method == "model_based" else w)


def _per_block_batch(dyn, cost, policy, model, sampler, n, method):
    """:func:`_full_batch` of a batch of several row blocks, whose blocks
    draw from streams of their own: s_1 of all n rollouts from
    ``sampler``, then ``sampler.split`` into one stream per row block of
    the engine's layout (``_row_blocks(n, width)``), from which each block
    draws its steps' noise and is written out step by step.  The blocks'
    scores, features, w and scales are joined in block order."""
    width = _RolloutEngine(dyn, cost, policy, model).width
    s1 = _reference_s1(dyn, sampler, n)
    blocks = _row_blocks(n, width)
    parts = [_full_batch(dyn, cost, policy, model, stream, rows.stop - rows.start, method,
                         s1[rows])
             for rows, stream in zip(blocks, sampler.split(len(blocks)))]
    g, PHI, w, scale = zip(*parts)
    return ([np.concatenate(g_t) for g_t in zip(*g)], [np.concatenate(p) for p in zip(*PHI)],
            np.concatenate(w), np.concatenate(scale))


def _gradient_samples(dyn, cost, policy, model, sampler, n, method):
    """(samples (n, N-1, m, q), exp_costs (n,)) of the chosen estimator
    from one pass written out step by step; overflow of exp(alpha J)
    raises instead of returning inf or NaN."""
    g, PHI, w, scale = _full_batch(dyn, cost, policy, model, sampler, n, method)
    G = np.stack([np.einsum("bm,bq->bmq", g_t, phi) for g_t, phi in zip(g, PHI)], axis=1)
    G *= scale[:, None, None, None]
    return G, w


def _full_batch_moments(dyn, cost, policy, model, sampler, n, method, batch=_full_batch):
    """(mean, second moment, w) of the gradient samples of one pass
    written out step by step by ``batch`` (:func:`_full_batch`, or
    :func:`_per_block_batch` for the streams of a batch of several
    blocks), reduced per step over the whole batch: with c = scale / n,
    mean_t = (c g_t)' phi_t and second_t = n ((c g_t)^2)' (phi_t^2), the
    reference of the engine's chunked, row-blocked moments."""
    g, PHI, w, scale = batch(dyn, cost, policy, model, sampler, n, method)
    c = scale[:, None] / n
    mean, second = [], []
    for g_t, phi in zip(g, PHI):
        cg = c * g_t
        mean.append(cg.T @ phi)
        cg *= cg
        second.append((cg.T @ (phi * phi)) * n)
    return np.stack(mean), np.stack(second), w


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
