"""Noisy-layer neural network training posed as a control problem.

Each layer is a time step: activations are the state, weight matrices
are the per-step gains, and the layer inputs carry Gaussian exploration
noise, s_{t+1} = tanh(K_t s_t + w_t), w_t ~ N(0, sigma_t^2 I).  Training
examples enter through the initial-state distribution (input activations
plus the regression target carried in trailing state slots the dynamics
pass through), and the training objective is

    E[exp(alpha * (loss(target, s_N) + sum_t 0.5 c_t ||K_t s_t||^2))],

the standard trajectory cost with quadratic control weight R_t = c_t I.
The boundary choice c_t = 1 / (alpha sigma_t^2) makes the per-step
certificate alpha R_t >= inv(Sigma_t) hold with margin zero; smaller
penalties void it and training refuses unless forced.

All layers share one internal width (the max declared width); narrower
declared layers simply leave trailing slots unused.  Unused first-layer
input columns see identically zero features and keep zero gradient, and
unused output rows are driven to zero by the control penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .control import (
    ControlCost,
    ControlRiskModel,
    Dynamics,
    Policy,
    check_control_certificate,
    train_policy,
)
from .csvio import write_csv
from .datasets import Dataset
from .errors import CertificateError, ContractError
from .objective import ConvexityCertificate, _checked_alpha
from .sampling import GaussianSampler, as_steps
from .solver import FeasibleSet, SolverConfig, SolverReport


@dataclass
class NoisyNetConfig:
    """Architecture, per-layer noise, and the risk/penalty coupling.

    ``widths`` lists input, hidden..., output sizes; ``noise_scales``
    gives sigma_t per layer.  ``penalty_weights`` (c_t, the quadratic
    weight on layer pre-activations) defaults to the certificate
    boundary 1 / (alpha sigma_t^2).  ``loss_bound`` clamps the terminal
    squared error with the smooth soft-min so the exponent stays bounded.
    """

    widths: list
    alpha: float
    noise_scales: list
    penalty_weights: Optional[list] = None
    loss_bound: float = 0.25

    def __post_init__(self):
        self.widths = [int(w) for w in self.widths]
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise ContractError("widths must list at least input and output sizes, all >= 1")
        self.alpha = _checked_alpha(self.alpha)
        self.noise_scales = [float(s) for s in self.noise_scales]
        if len(self.noise_scales) != self.n_layers:
            raise ContractError(f"need {self.n_layers} noise scales")
        if not all(0.0 < s and _reciprocal_square(s) < np.inf for s in self.noise_scales):
            raise ContractError("noise scales must be positive and finite, "
                                "with 1 / sigma_t^2 finite")
        if self.penalty_weights is None:
            self.penalty_weights = [_reciprocal_square(s, self.alpha) for s in self.noise_scales]
        self.penalty_weights = [float(c) for c in self.penalty_weights]
        if len(self.penalty_weights) != self.n_layers:
            raise ContractError(f"need {self.n_layers} penalty weights")
        if not all(0.0 <= c < np.inf for c in self.penalty_weights):
            raise ContractError("penalty weights must be nonnegative and finite")
        if not self.loss_bound > 0.0:
            raise ContractError("loss_bound must be positive")

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    @property
    def internal_width(self) -> int:
        return max(self.widths)

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def output_dim(self) -> int:
        return self.widths[-1]

    def certificate_margins(self) -> np.ndarray:
        """Per-layer margins alpha c_t - 1 / sigma_t^2 of the certificate that
        :func:`train_noisy_net` checks, :func:`check_control_certificate`."""
        return check_control_certificate(*_cost_and_model(self)).margins


def _reciprocal_square(s: float, scale: float = 1.0) -> float:
    """1 / (scale s^2); inf where scale s^2 is not positive and finite."""
    try:
        d = scale * s**2
    except OverflowError:  # Python's float power raises where numpy would give inf
        return np.inf
    return 1.0 / d if 0.0 < d < np.inf else np.inf


def _embed(cfg: NoisyNetConfig, X: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Initial states: activations = padded input, trailing slots = target."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float).reshape(X.shape[0], -1))
    w = cfg.internal_width
    s = np.zeros((X.shape[0], w + cfg.output_dim))
    s[:, :cfg.input_dim] = X
    s[:, w:] = targets
    return s


def _cost_and_model(cfg: NoisyNetConfig):
    """(cost, risk model) of :func:`build_control_problem`, free of the dataset."""
    w = cfg.internal_width
    L = cfg.n_layers
    mbar = cfg.loss_bound

    def state_cost(s, t):
        if t <= L:
            return np.zeros(np.shape(s)[:-1])
        err = s[..., :cfg.output_dim] - s[..., w:]
        se = np.sum(err**2, axis=-1)
        return mbar * np.tanh(se / mbar)

    def state_cost_grad(s, t):
        g = np.zeros_like(s)
        if t <= L:
            return g
        err = s[..., :cfg.output_dim] - s[..., w:]
        se = np.sum(err**2, axis=-1)
        scale = 1.0 / np.cosh(se / mbar) ** 2
        g[..., :cfg.output_dim] = (2.0 * scale)[..., None] * err
        g[..., w:] = -(2.0 * scale)[..., None] * err
        return g

    cost = ControlCost(state_cost=state_cost,
                       control_weights=[c * np.eye(w) for c in cfg.penalty_weights],
                       bound=mbar, state_cost_grad=state_cost_grad, vectorized=True)
    model = ControlRiskModel(alpha=cfg.alpha,
                             control_noise=[s**2 * np.eye(w) for s in cfg.noise_scales])
    return cost, model


def build_control_problem(cfg: NoisyNetConfig, dataset: Dataset):
    """(dynamics, cost, initial policy, risk model) for a dataset.

    The dataset rows are the disturbance distribution: the initial-state
    sampler draws a uniformly random example per rollout.
    """
    w = cfg.internal_width
    n = w + cfg.output_dim
    init_states = _embed(cfg, dataset.X, dataset.y)
    # The constant Jacobians, shared by every row: d s' / d s passes the
    # target slots through, and d phi / d s = [I_w 0].
    pass_through = np.diag(np.arange(n) >= w).astype(float)
    select = np.eye(w, n)

    def step(s, y, xi, t):
        return np.concatenate([np.tanh(y), s[..., w:]], axis=-1)

    def jac_state(s, y, xi, t):
        return np.broadcast_to(pass_through, s.shape[:-1] + (n, n))

    def jac_control(s, y, xi, t):
        base = np.zeros(s.shape[:-1] + (n, w))
        idx = np.arange(w)
        base[..., idx, idx] = 1.0 - np.tanh(y) ** 2
        return base

    def features(s, t):
        return s[..., :w]

    def features_jacobian(s, t):
        return np.broadcast_to(select, s.shape[:-1] + (w, n))

    def init_state_batch(rng, b):
        return init_states[rng.integers(0, init_states.shape[0], size=b)]

    dyn = Dynamics(step=step, state_dim=n, control_dim=w, disturbance_dim=0,
                   horizon=cfg.n_layers + 1, jacobian_state=jac_state,
                   jacobian_control=jac_control, init_state_batch=init_state_batch,
                   vectorized=True)
    policy = Policy(gains=np.zeros((cfg.n_layers, w, w)), features=features,
                    features_jacobian=features_jacobian, vectorized=True)
    cost, model = _cost_and_model(cfg)
    return dyn, cost, policy, model


def predict(cfg: NoisyNetConfig, weights, X: np.ndarray) -> np.ndarray:
    """Noise-free forward pass (the mean network) on stacked inputs.
    ``weights`` must be one (w x w) matrix per layer
    (:func:`~riskconvex.sampling.as_steps`)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    w = cfg.internal_width
    act = np.zeros((X.shape[0], w))
    act[:, :cfg.input_dim] = X
    for K in as_steps(weights, (cfg.n_layers, w, w)):
        act = np.tanh(act @ K.T)
    out = act[:, :cfg.output_dim]
    return out[:, 0] if cfg.output_dim == 1 else out


def _check_features(cfg: NoisyNetConfig, ds: Dataset) -> None:
    """:class:`ContractError` unless the dataset has the net's input width."""
    if ds.n_features != cfg.input_dim:
        raise ContractError(
            f"dataset has {ds.n_features} features, config expects {cfg.input_dim}")


def mse(cfg: NoisyNetConfig, weights, ds: Dataset) -> float:
    """Mean squared error of the mean network on ``ds``; a dataset of
    another width is a :class:`ContractError`."""
    _check_features(cfg, ds)
    preds = predict(cfg, weights, ds.X)
    return float(np.mean((preds - ds.y) ** 2))


@dataclass
class NoisyNetReport:
    weights: np.ndarray              # (n_layers, w, w)
    curve: list                      # rows (evaluations, train_loss, test_loss)
    convexity: ConvexityCertificate  # the run's per-layer certificate, run.convexity
    final_train_mse: float
    final_test_mse: float
    run: SolverReport                # the training run's zeta, certificate and trace

    @property
    def certified(self) -> bool:
        return self.convexity.holds

    def write_curve_csv(self, path) -> None:
        write_csv(path, self.curve, header=["evaluations", "train_loss", "test_loss"])


def train_noisy_net(train: Dataset, cfg: NoisyNetConfig, sampler: GaussianSampler,
                    iterations: int = 1500, batch: int = 128, radius: float = 6.0,
                    eval_every: int = 100, test: Optional[Dataset] = None,
                    force: bool = False, method: str = "derivative_free") -> NoisyNetReport:
    """Train the noisy net with a policy-gradient estimator.

    Refuses with :class:`CertificateError` when any per-layer margin
    alpha c_t - 1/sigma_t^2 is below its tolerance, unless ``force`` is set.
    The refusal's ``report`` and the report's ``convexity`` are the run's one
    certificate, :func:`check_control_certificate` of the problem it trains.
    The learning curve logs the mean-network train/test MSE every
    ``eval_every`` iterations (at least 1, else :class:`ContractError`),
    indexed by the cumulative number of network rollouts, from the weights
    each step left.

    The all-zero weight vector is always a stationary point of the
    exponentiated objective (zero-mean layer noise through an odd
    transfer makes every gradient component vanish there), so training
    starts from a small random init of scale 0.05 drawn from a
    derived stream, and reports the final, not the averaged, weights.
    A training set with no rows is a :class:`ContractError`.
    """
    if train.size == 0:
        raise ContractError("the training set has no rows")
    if eval_every < 1:
        raise ContractError(f"eval_every must be >= 1, got {eval_every}")
    _check_features(cfg, train)
    dyn, cost, policy0, model = build_control_problem(cfg, train)
    cert = check_control_certificate(cost, model)
    if not cert.holds and not force:
        raise CertificateError(
            "refusing: per-layer certificate alpha*penalty >= 1/sigma^2 fails "
            f"(worst margin {cert.margin:.6g}); pass force to train anyway "
            "with a void certificate",
            report=cert,
        )
    shape = policy0.gains.shape  # (n_layers, w, w)
    constraint = FeasibleSet.ball(np.zeros(policy0.gains.size), radius)
    init_stream, train_stream = sampler.split(2)
    policy0 = policy0.with_gains(0.05 * init_stream.normal(shape))
    test_ds = test if test is not None and test.size > 0 else train

    curve = []

    def record(i, theta, *_):
        if i > 1 and (i - 1) % eval_every == 0:  # theta_i: the weights step i - 1 left
            ws = theta.reshape(shape)
            curve.append(((i - 1) * batch, mse(cfg, ws, train), mse(cfg, ws, test_ds)))

    config = SolverConfig(iterations=iterations, batch=batch, averaging=False)
    trained, report = train_policy(dyn, cost, policy0, model, method, config,
                                   constraint, train_stream, record)
    final_train, final_test = (mse(cfg, trained.gains, ds) for ds in (train, test_ds))
    curve.append((iterations * batch, final_train, final_test))
    return NoisyNetReport(weights=trained.gains, curve=curve, convexity=report.convexity,
                          final_train_mse=final_train, final_test_mse=final_test, run=report)
