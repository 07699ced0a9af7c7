"""Built-in benchmark problems shared by the CLI and the test suite.

The scalar linear benchmark is the reference problem for cross-checking
the three routes to an optimal gain: stochastic policy training, the
closed-form determinant program, and brute-force search (the last is a
test oracle and lives with the tests).  System noise is zero so the
closed form applies; the control noise drives the state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import (
    ControlCost,
    ControlRiskModel,
    Dynamics,
    Policy,
    _HALF,
    _row_quads,
    check_control_certificate,
)
from .errors import ContractError
from .sampling import as_steps
from .synthesis import LinearSystem

# Quadratic state costs are unbounded above; trajectories of the linear
# benchmarks stay far below this declared ceiling, which the runtime
# bound check enforces.
QUADRATIC_COST_CEILING = 1e12


def linear_control_problem(sys: LinearSystem, alpha: float, gains=None):
    """Wrap a LinearSystem as a vectorized rollout problem.

    State cost 0.5 s' Q_t s, state-feedback features phi(s) = s, zero
    system disturbance.  Returns (dynamics, cost, policy, model); the
    policy starts at the supplied gains, an (N-1, m, n) array or N-1
    matrices of shape m x n (:func:`~riskconvex.sampling.as_steps`), or
    zero.  The model shares the system's factored noise.
    """
    N, n, m = sys.horizon, sys.state_dim, sys.control_dim
    # A_t' and B_t', contiguous for a batch's products; a single row keeps
    # the transposed views, with which its products round differently.
    AT = np.ascontiguousarray(sys.A.transpose(0, 2, 1))
    BT = np.ascontiguousarray(sys.B.transpose(0, 2, 1))

    def step(s, y, xi, t):
        if s.ndim == 2 and len(s) > 1:
            return s @ AT[t - 1] + y @ BT[t - 1]
        return s @ sys.A[t - 1].T + y @ sys.B[t - 1].T

    def jac_state(s, y, xi, t):
        return np.broadcast_to(sys.A[t - 1], np.shape(s)[:-1] + (n, n))

    def jac_control(s, y, xi, t):
        return np.broadcast_to(sys.B[t - 1], np.shape(s)[:-1] + (n, m))

    def state_cost(s, t):
        return _HALF * _row_quads(s, sys.Q[t - 1])

    def state_cost_grad(s, t):
        return s @ sys.Q[t - 1].T

    def features(s, t):
        return s

    def features_jacobian(s, t):
        return np.broadcast_to(np.eye(n), np.shape(s)[:-1] + (n, n))

    dyn = Dynamics(step=step, state_dim=n, control_dim=m, disturbance_dim=0,
                   horizon=N, jacobian_state=jac_state, jacobian_control=jac_control,
                   vectorized=True)
    cost = ControlCost(state_cost=state_cost, control_weights=sys.R,
                       bound=QUADRATIC_COST_CEILING, state_cost_grad=state_cost_grad,
                       vectorized=True)
    shape = (N - 1, m, n)
    policy = Policy(gains=np.zeros(shape) if gains is None else as_steps(gains, shape),
                    features=features, features_jacobian=features_jacobian,
                    vectorized=True)
    model = ControlRiskModel(alpha=alpha, control_noise=sys._noise)
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
            if not 0.0 < getattr(self, name) < np.inf:
                raise ContractError(f"{name} must be positive and finite")

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

