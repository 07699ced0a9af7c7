"""Risk-averse convexification of bounded objectives.

Adding Gaussian perturbation noise and enough risk aversion turns any
bounded-above objective plus a quadratic into a convex problem; this
package builds those objectives, certifies convexity, bounds the
suboptimality of the convexified solution, solves the problems with
projected stochastic gradient methods, and applies the same machinery to
risk-sensitive policy optimization of discrete-time dynamical systems.
"""

__version__ = "0.1.0"

from .errors import (
    CertificateError,
    ConfigError,
    ContractError,
    DegenerateEstimateError,
    DivergenceError,
    EstimateOverflowError,
    FieldEvaluationError,
    IllConditionedError,
    RiskConvexError,
)
from .fields import RawField, ScalarField, clamp_bounded, constant_field, linear_field
from .objective import (
    ConvexityCertificate,
    Estimate,
    RiskModel,
    check_convexity_certificate,
    exp_objective,
    isotropic_model,
    log_exp_objective,
    smoothed_value,
    unbiased_grad_mean,
)
from .sampling import GaussianSampler
from .sensitivity import (
    SensitivityEstimate,
    SuboptimalityCertificate,
    certify_gap,
    estimate_sensitivity,
    lipschitz_gap_bound,
)
from .solver import (
    FeasibleSet,
    SolverConfig,
    SolverReport,
    VarianceBoundInputs,
    log_gap_from_exp_gap,
    solve,
    variance_bound,
)
from .control import (
    ControlCost,
    ControlRiskModel,
    Dynamics,
    Policy,
    Rollout,
    check_control_certificate,
    policy_gradient_batch,
    policy_gradient_derivative_free,
    policy_gradient_model_based,
    rollout,
    train_policy,
)
from .synthesis import (
    LinearSystem,
    closed_form_expectation,
    detmax_objective,
    synthesize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
