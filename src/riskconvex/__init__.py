"""Risk-averse convexification of bounded objectives.

Adding Gaussian perturbation noise and enough risk aversion turns any
bounded-above objective plus a quadratic into a convex problem; this
package builds those objectives, certifies convexity, bounds the
suboptimality of the convexified solution, solves the problems with
projected stochastic gradient methods, and applies the same machinery to
risk-sensitive policy optimization of discrete-time dynamical systems.

Importing the package loads only :mod:`riskconvex.errors`.  Every other
public name is looked up in the submodule ``_EXPORTS`` names for it, which
is imported on first use (PEP 562).  The lookup is not cached in the
package namespace, so ``riskconvex.solve`` is always the current
``riskconvex.solver.solve``, also after that attribute is patched.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

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

# Submodule -> the public names the package takes from it.  Every key is
# a public name too; csvio gives none besides its own.
_EXPORTS = {
    "fields": ("RawField", "ScalarField", "clamp_bounded", "constant_field", "linear_field"),
    "objective": ("ConvexityCertificate", "Estimate", "RiskModel",
                  "check_convexity_certificate", "exp_objective", "isotropic_model",
                  "log_exp_objective", "smoothed_value", "unbiased_grad_mean"),
    "sampling": ("GaussianSampler",),
    "sensitivity": ("SensitivityEstimate", "SuboptimalityCertificate", "certify_gap",
                    "estimate_sensitivity", "lipschitz_gap_bound"),
    "solver": ("FeasibleSet", "SolverConfig", "SolverReport", "VarianceBoundInputs",
               "log_gap_from_exp_gap", "solve", "variance_bound"),
    "control": ("ControlCost", "ControlRiskModel", "Dynamics", "Policy", "Rollout",
                "check_control_certificate", "policy_gradient_batch",
                "policy_gradient_derivative_free", "policy_gradient_model_based", "rollout",
                "train_policy"),
    "synthesis": ("LinearSystem", "closed_form_expectation", "detmax_objective", "synthesize"),
    "csvio": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | _EXPORTS.keys() | _MODULE_OF.keys())


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | __all__)
