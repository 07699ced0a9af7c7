"""Built-in benchmark problems shared by the CLI and the test suite.

The scalar linear benchmark is the reference problem for cross-checking
the three routes to an optimal gain: stochastic policy training, the
closed-form determinant program, and brute-force search.  System noise
is zero so the closed form applies; the control noise drives the state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import ControlCost, ControlRiskModel, Dynamics, Policy, check_control_certificate
from .errors import ContractError
from .synthesis import LinearSystem

# Quadratic state costs are unbounded above; trajectories of the linear
# benchmarks stay far below this declared ceiling, which the runtime
# bound check enforces.
QUADRATIC_COST_CEILING = 1e12


def linear_control_problem(sys: LinearSystem, alpha: float, gains=None,
                           cost_bound: float = QUADRATIC_COST_CEILING):
    """Wrap a LinearSystem as a vectorized rollout problem.

    State cost 0.5 s' Q_t s, state-feedback features phi(s) = s, zero
    system disturbance.  Returns (dynamics, cost, policy, model); the
    policy starts at the supplied gains or zero.
    """
    N, n, m = sys.horizon, sys.state_dim, sys.control_dim

    def step(s, y, xi, t):
        return s @ sys.A[t - 1].T + y @ sys.B[t - 1].T

    def jac_state(s, y, xi, t):
        a = sys.A[t - 1]
        if np.ndim(s) == 2:
            return np.broadcast_to(a, (s.shape[0],) + a.shape)
        return a

    def jac_control(s, y, xi, t):
        b = sys.B[t - 1]
        if np.ndim(s) == 2:
            return np.broadcast_to(b, (s.shape[0],) + b.shape)
        return b

    def state_cost(s, t):
        return 0.5 * np.einsum("...i,...i->...", s @ sys.Q[t - 1], s)

    def state_cost_grad(s, t):
        return s @ sys.Q[t - 1].T

    def features(s, t):
        return s

    def features_jacobian(s, t):
        eye = np.eye(n)
        if np.ndim(s) == 2:
            return np.broadcast_to(eye, (s.shape[0], n, n))
        return eye

    dyn = Dynamics(step=step, state_dim=n, control_dim=m, disturbance_dim=0,
                   horizon=N, jacobian_state=jac_state, jacobian_control=jac_control,
                   vectorized=True)
    cost = ControlCost(state_cost=state_cost, control_weights=list(sys.R),
                       bound=cost_bound, state_cost_grad=state_cost_grad,
                       vectorized=True)
    if gains is None:
        gains = [np.zeros((m, n)) for _ in range(N - 1)]
    policy = Policy(gains=gains, features=features,
                    features_jacobian=features_jacobian, vectorized=True)
    model = ControlRiskModel(alpha=alpha, control_noise=list(sys.sigma))
    return dyn, cost, policy, model


@dataclass
class ScalarBenchmark:
    """Scalar system s' = a s + b y with cost 0.5 q s^2 + 0.5 r u^2.

    The default q keeps exp(2 alpha J) integrable over gains of modest
    size, so the derivative-free gradient has finite variance and the
    pilot step-size calibration is stable.
    """

    a: float = 1.0
    b: float = 1.0
    q: float = 0.15
    r: float = 1.0
    sigma_u: float = 1.0   # control noise variance
    alpha: float = 1.0
    horizon: int = 3

    def __post_init__(self):
        if self.horizon < 2:
            raise ContractError("horizon must be >= 2")
        for name in ("q", "r", "sigma_u", "alpha"):
            if not getattr(self, name) > 0.0:
                raise ContractError(f"{name} must be positive")

    def system(self) -> LinearSystem:
        N = self.horizon
        return LinearSystem(
            A=[[[self.a]]] * (N - 1),
            B=[[[self.b]]] * (N - 1),
            Q=[[[self.q]]] * N,
            R=[[[self.r]]] * (N - 1),
            sigma=[[[self.sigma_u]]] * (N - 1),
            horizon=N,
        )

    def problem(self, gains=None):
        return linear_control_problem(self.system(), self.alpha, gains=gains)

    def certified(self) -> bool:
        """Whether :func:`check_control_certificate` holds for :meth:`problem`."""
        _, cost, _, model = self.problem()
        return check_control_certificate(cost, model).holds


def simulate_scalar_objective(bench: ScalarBenchmark, gain_grid: np.ndarray,
                              n_rollouts: int, sampler) -> np.ndarray:
    """Brute-force E[exp(alpha J)] over a grid of time-2 gains.

    Independent of the rollout engine and of the closed form: simulates
    the scalar recursion directly with common random numbers across the
    grid, so the argmin is a stable oracle.  Gains other than K_2 are
    held at zero (K_1 multiplies s_1 = 0 and never matters).
    """
    if bench.horizon < 3:
        raise ContractError("the grid oracle needs horizon >= 3 for an active gain")
    eps = sampler.normal((bench.horizon - 1, n_rollouts)) * np.sqrt(bench.sigma_u)
    out = np.empty(gain_grid.size)
    for idx, k in enumerate(np.asarray(gain_grid, dtype=float)):
        s = np.zeros(n_rollouts)
        cost = np.zeros(n_rollouts)
        for t in range(1, bench.horizon):
            cost += 0.5 * bench.q * s**2
            u = k * s if t >= 2 else 0.0 * s
            cost += 0.5 * bench.r * u**2
            y = u + eps[t - 1]
            s = bench.a * s + bench.b * y
        cost += 0.5 * bench.q * s**2
        out[idx] = np.exp(bench.alpha * cost).mean()
    return out
