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
per-sample (n, N-1, m, q) tensor; batches and the step-size pilot do not.
A batch draws all of its noise on the calling thread, in the order of a
step-by-step rollout (s_1, then eps_t and xi_t for each t), and runs in
row blocks of 2**14 // max(n, m, q) rollouts, so the widest per-step
array of a block (states, controls or features) holds 2**14 entries: each
block's per-step temporaries, weights and scores stay in cache.  A block
holds its whole trajectory, S (N, b, n), U and Y (N-1, b, m) and the stage
costs (N, b), as views of one allocation: glibc's malloc trims its heap
once the free top exceeds twice the mmap threshold, which rises to the
largest memory-mapped chunk freed, so four arrays freed together (8.7 MB
for 4096 rollouts of 29 steps, against a 3.9 MB threshold set by S) went
back to the system after every batch and were faulted in again, while one
chunk of that size keeps its pages.  Within a block, the steps run in
chunks whose (steps x rows x max(n, m, q)) entries fit the same budget: a
chunk's eps draw, control costs, likelihood-ratio scores and moments are
one stacked product each, so a small batch makes each of these calls once
per chunk rather than once per step, with the bits of the per-step
products.  The blocks of a fully vectorized problem run on a helper thread
while the calling thread draws, each chunk as soon as the noise of its
steps has landed, and then on both threads, each taking the next block
index (:func:`~riskconvex.objective._map_blocks`); they are summed in
block order, so the bits do not depend on the thread count.  A batch of
one block whose steps make one chunk, as ``control train``'s, has nothing
to run during the draw and runs after it on the calling thread alone.  A
batch of one block keeps the bits of one unblocked pass; on more blocks,
only the block sums of the moments round differently.  A Jacobian returned
as ``np.broadcast_to`` of one matrix is applied to the whole batch as one
product, and the adjoint recursion passes each Jacobian straight into its
product, so a block holds one Jacobian at a time.
"""

from __future__ import annotations

import functools
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .csvio import write_csv
from .errors import (
    ContractError,
    DivergenceError,
    FieldEvaluationError,
)
from .fields import _bound_limit, _first_violation
from .objective import (
    _BLOCK_ENTRIES,
    ConvexityCertificate,
    _drawn,
    _map_blocks,
    _row_blocks,
    check_exponents,
    check_std_err,
    convexity_certificate,
)
from .sampling import GaussianSampler, as_covariance, as_psd_weight, spd_factor
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
    Vectorized callables must be functions of their arguments alone: a
    large batch calls them concurrently, from several threads, on
    disjoint row blocks.  The draw callables run on the calling thread.
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
    cost) and must stay below ``bound``, which the rollout engine asserts
    at every evaluation.  ``control_weights[t-1]`` is the PSD quadratic weight
    R_t for t = 1..N-1.  ``vectorized`` promises that both callables
    accept a leading batch axis; otherwise they run per row.  Vectorized
    callables must be functions of their arguments alone: a large batch
    calls them concurrently, from several threads, on disjoint row blocks.
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


def as_gains(gains, shape=None) -> np.ndarray:
    """The one shape rule of a gain set: ``gains``, an (N-1, m, q) array or
    N-1 (m x q) matrices, as a new (N-1, m, q) float64 array.  ``shape``
    defaults to the count and the first gain's shape.  Another count, or
    a gain of another shape, is a :class:`ContractError` (naming its step)."""
    if shape is None:
        shape = (len(gains),) + (np.shape(gains[0]) if len(gains) else ())
    if len(shape) != 3:
        raise ContractError(f"gains must stack to (N-1, m, q), got {shape}")
    n_steps, m, q = shape
    if not (isinstance(gains, np.ndarray) and gains.shape == tuple(shape)):
        if len(gains) != n_steps:
            raise ContractError(f"need {n_steps} gain matrices, got {len(gains)}")
        for t, k in enumerate(gains, start=1):
            if np.shape(k) != (m, q):
                raise ContractError(f"gain at t={t} must be {m}x{q}, got shape {np.shape(k)}")
    return np.array(gains, dtype=float)


@dataclass
class Policy:
    """Feedback policy u_t = K_t phi(s_t, t), linear in the gains.

    ``gains`` is one (N-1, m, q) array (:func:`as_gains`) of the gains
    K_t, t = 1..N-1; ``features`` maps (s, t) to a q-vector.  The optional
    features Jacobian d phi / d s (q x n) enables the model-based gradient;
    like the dynamics Jacobians, a broadcast one is applied as one product.
    ``vectorized`` promises that both callables accept a leading batch
    axis; otherwise they run per row.  Vectorized callables must be
    functions of their arguments alone: a large batch calls them
    concurrently, from several threads, on disjoint row blocks.
    """

    gains: np.ndarray
    features: Callable
    features_jacobian: Optional[Callable] = None
    vectorized: bool = False

    def __setattr__(self, name, value):
        # Construction and later assignments alike store the stacked copy.
        super().__setattr__(name, as_gains(value) if name == "gains" else value)

    @property
    def n_steps(self) -> int:
        return self.gains.shape[0]

    @property
    def control_dim(self) -> int:
        return self.gains.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.gains.shape[2]

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
        if not 0.0 < self.alpha < np.inf:
            raise ContractError("alpha must be positive and finite")
        self.control_noise = [as_covariance(s) for s in self.control_noise]
        factors = [spd_factor(s, name=f"control noise at t={t}")
                   for t, s in enumerate(self.control_noise, start=1)]
        self.noise_inv = [inv for inv, _ in factors]
        self.noise_root = [root for _, root in factors]

    @property
    def n_steps(self) -> int:
        return len(self.control_noise)

    @property
    def control_dim(self) -> int:
        return self.control_noise[0].shape[0]


def check_control_certificate(cost: ControlCost, model: ControlRiskModel) -> ConvexityCertificate:
    """Margin lambda_min(alpha R_t - inv(Sigma_t)) for each control step."""
    if len(cost.control_weights) != model.n_steps:
        raise ContractError(
            f"cost has {len(cost.control_weights)} control steps, model has {model.n_steps}"
        )
    if cost.control_dim != model.control_dim:
        raise ContractError("control dimension mismatch between cost and noise model")
    return convexity_certificate(model.alpha, np.array(cost.control_weights),
                                 np.array(model.noise_inv))


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


@functools.lru_cache(maxsize=256)
def _step_chunks(n_steps: int, rows: int, width: int) -> tuple:
    """The ``n_steps`` steps of a block of ``rows`` rollouts of ``width``
    entries as slices of _BLOCK_ENTRIES // (rows * width) steps, at least
    one: a chunk's (steps, rows, width) entries fit in one row block's, so
    its noise, control costs, scores and moments are each one stacked
    product that stays in cache.  A block of a batch of several blocks
    fills the budget alone, so its chunks are single steps."""
    steps = max(1, _BLOCK_ENTRIES // (rows * width))
    return tuple(slice(t, min(t + steps, n_steps)) for t in range(0, n_steps, steps))


def _stacked(PHI, steps: slice) -> np.ndarray:
    """The features of a chunk of ``steps`` as one (steps, b, q) array:
    a view when ``PHI`` is an array or the chunk is one step."""
    if isinstance(PHI, np.ndarray):
        return PHI[steps]
    if steps.stop - steps.start == 1:
        return PHI[steps.start][None]
    return np.stack(PHI[steps])


def _shaped(value, name: str, shape: tuple) -> np.ndarray:
    """``value`` as a float array, or :class:`ContractError` naming it when
    its shape is not ``shape``."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ContractError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


_PAIR = np.ones(2)


def _row_quads(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x_b' M x_b for every row x_b of x (..., w), M (w, w) or stacked
    along x's leading axes.  Rows of two entries take a product and a BLAS
    row sum: faster than the einsum, and with its bits, since a sum of two
    terms has one order.  Wider rows keep the einsum, whose order of
    additions a row sum would not keep."""
    xm = x @ M
    if x.shape[-1] != 2:
        return np.einsum("...i,...i->...", xm, x)
    xm *= x
    return xm @ _PAIR


def _vjp(J: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v_b' J_b for every row b.  A Jacobian whose rows share one matrix
    (stride 0 on the batch axis, as ``np.broadcast_to`` returns) is
    applied as one product v @ J[0]."""
    if J.strides[0] == 0:
        return v @ J[0]
    return np.einsum("bij,bi->bj", J, v)


class _Trajectory(NamedTuple):
    """Rollouts of b rows, as :meth:`_RolloutEngine.forward` returns them."""

    S: np.ndarray       # (N, b, nd) states
    U: np.ndarray       # (N-1, b, m) mean controls
    Y: np.ndarray       # (N-1, b, m) realized controls
    XI: np.ndarray      # (N-1, b, p) disturbances
    PHI: object         # S[:-1] when the features return their states, else a list of (b, q)
    J: np.ndarray       # (b,) costs, the left fold of the stage costs
    stage: np.ndarray   # (N, b) stage costs
    chunks: tuple       # the chunks of steps (_step_chunks)


class _RolloutEngine:
    """The batched rollout engine.  Construction validates the problem and
    resolves the dimensions, the state-cost limit, R_t and the noise
    factors (stacked (N-1, m, m), so a chunk of steps is one product) and
    the lifted callables once; gains come in per call as one stacked
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
        self.dyn = dyn
        self.shape = policy.gains.shape
        # Of a row block (objective._row_blocks): the widest per-step array,
        # s_t (b, n), u_t, y_t, eps_t (b, m) or phi_t (b, q), so each fills
        # at most the block's 2**14 entries.
        self.width = max(dyn.state_dim, dyn.control_dim, policy.feature_dim)
        # Row loops of per-row callables hold the GIL: their blocks run serially.
        self.parallel = dyn.vectorized and cost.vectorized and policy.vectorized
        self.alpha = model.alpha
        self.bound, self.limit = cost.bound, _bound_limit(cost.bound)
        self.R = np.array(cost.control_weights)
        self.noise_root, self.noise_inv = np.array(model.noise_root), np.array(model.noise_inv)
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

    def _checked_state_cost(self, s: np.ndarray, t: int, start: int = 0) -> np.ndarray:
        """The state costs l(s, t) of the batch ``s``, or
        :class:`FieldEvaluationError` carrying the first state that breaks
        the bound and naming its rollout, ``start`` being the batch index
        of ``s[0]``."""
        vals = np.asarray(self.state_cost(s, t), dtype=float)
        i = _first_violation(vals, self.limit)
        if i is not None:
            raise FieldEvaluationError(
                f"state cost {np.ravel(vals)[i]} violates bound {self.bound} at t={t} "
                f"in rollout {start + i}", theta=s[i]
            )
        return vals

    def draw(self, sampler: GaussianSampler, n: int, s1=None):
        """The noise (s1, eps, xi) of n rollouts, drawn whole
        (:meth:`drawing`)."""
        noise, parts = self.drawing(sampler, n, s1)
        for _ in parts:
            pass
        return noise

    def drawing(self, sampler: GaussianSampler, n: int, s1=None):
        """(noise, parts): the arrays (s1, eps, xi) of the noise of n
        rollouts, s_1 (n, nd), eps (N-1, n, m) and xi (N-1, n, p), and an
        iterator that fills them in stream order as it runs, yielding the
        steps drawn so far (the ``draw`` of
        :func:`~riskconvex.objective._map_blocks`): s_1 unless given, then
        eps_t and xi_t for t = 1..N-1.  No draw depends on a state, so
        drawing them apart from the rollouts leaves the stream unchanged.
        numpy fills a draw in stream order, so eps is drawn and scaled into
        its array one chunk of steps (:func:`_step_chunks`) and one row
        block at a time: a one-block batch whose eps_t no disturbance draw
        interleaves takes a chunk's eps in one call, and a larger batch
        needs no (n, m) temporary."""
        dyn = self.dyn
        N, nd, m, p = dyn.horizon, dyn.state_dim, dyn.control_dim, dyn.disturbance_dim
        # s_1 stays 0 unless it is given or drawn.
        noise = (np.zeros((n, nd)), np.empty((N - 1, n, m)), np.zeros((N - 1, n, p)))
        return noise, self._draw_parts(sampler, noise, s1)

    def _draw_parts(self, sampler: GaussianSampler, noise: tuple, s1):
        """The iterator of :meth:`drawing`, filling ``noise``."""
        dyn = self.dyn
        out, eps, xi = noise
        n, N, m, p = out.shape[0], dyn.horizon, dyn.control_dim, dyn.disturbance_dim
        rng = sampler.rng
        if s1 is not None:
            out[...] = s1
        elif dyn.init_state_batch is not None:
            out[...] = dyn.init_state_batch(rng, n)
        elif dyn.init_state is not None:
            for row in out:
                row[...] = dyn.init_state(rng)
        disturbed = p > 0 and (dyn.disturbance_batch is not None or dyn.disturbance is not None)
        chunks = ([slice(t, t + 1) for t in range(N - 1)] if disturbed
                  else _step_chunks(N - 1, n, self.width))
        blocks = _row_blocks(n, self.width)
        for steps in chunks:
            for rows in blocks:
                np.matmul(sampler.normal((steps.stop - steps.start, rows.stop - rows.start, m)),
                          self.noise_root[steps], out=eps[steps, rows])
            t = steps.stop
            if disturbed:
                if dyn.disturbance_batch is not None:
                    xi[t - 1] = dyn.disturbance_batch(rng, t, n)
                else:
                    xi[t - 1] = np.stack([np.asarray(dyn.disturbance(rng, t), dtype=float)
                                          for _ in range(n)])
            yield t

    def forward(self, K: np.ndarray, s1: np.ndarray, eps: np.ndarray, xi: np.ndarray,
                start: int = 0, ready=_drawn):
        """The :class:`_Trajectory` of the rollouts of the b rows of ``s1``
        under the stacked gains K with the noise eps (N-1, b, m) and xi
        (N-1, b, p), a row block of :meth:`drawing` or one frozen
        realization (b = 1).  The steps run in order, each checking its
        state costs against the bound and its next states for finiteness;
        the control costs 0.5 u_t' R_t u_t of a chunk are one stacked
        product.  ``start`` is the batch index of row 0, which errors name;
        ``ready(t)`` returns once the noise of steps 1..t has landed, and
        is called before each chunk reads it."""
        dyn = self.dyn
        N, nd, m = dyn.horizon, dyn.state_dim, dyn.control_dim
        b = s1.shape[0]
        chunks = _step_chunks(N - 1, b, self.width)
        # One allocation holds the whole trajectory (module docstring).
        s_end = N * b * nd
        u_end = s_end + (N - 1) * b * m
        y_end = u_end + (N - 1) * b * m
        buf = np.empty(y_end + N * b)
        S = buf[:s_end].reshape(N, b, nd)
        U = buf[s_end:u_end].reshape(N - 1, b, m)
        Y = buf[u_end:y_end].reshape(N - 1, b, m)
        stage = buf[y_end:].reshape(N, b)
        PHI = []
        views = True  # every phi_t is S[t - 1] itself
        total = np.zeros(b)
        # The transposed gains, contiguous for a batch's products; a single
        # row keeps the transposed views, with which its product rounds
        # differently.
        KT = K.transpose(0, 2, 1)
        if b > 1:
            KT = np.ascontiguousarray(KT)
        for steps in chunks:
            ready(steps.stop)
            if steps.start == 0:
                S[0] = s1  # drawn before eps_1
            for t in range(steps.start + 1, steps.stop + 1):
                # Callables see rows of S, so features that return s itself
                # keep no second copy of the states alive.
                s = S[t - 1]
                phi = np.asarray(self.features(s, t), dtype=float)
                views = views and phi is s
                PHI.append(phi)
                np.matmul(phi, KT[t - 1], out=U[t - 1])
                stage[t - 1] = self._checked_state_cost(s, t, start)
                S[t] = self.step(s, np.add(U[t - 1], eps[t - 1], out=Y[t - 1]), xi[t - 1], t)
                if not np.isfinite(S[t]).all():
                    raise DivergenceError(f"non-finite state at t={t + 1}", step=t + 1)
            stage[steps] += 0.5 * _row_quads(U[steps], self.R[steps])
            for t in range(steps.start, steps.stop):
                total += stage[t]
        stage[N - 1] = self._checked_state_cost(S[N - 1], N, start)
        total += stage[N - 1]
        return _Trajectory(S, U, Y, xi, S[:-1] if views else PHI, total, stage, chunks)

    def _scores(self, method: str, K: np.ndarray, traj):
        """Yield (steps, g) for each chunk of steps, g (steps, b, m) such
        that row b's raw G_t = g[t - 1 - steps.start, b] phi_t[b]': the
        likelihood-ratio score, one stacked product per chunk, or, chunk
        by chunk backward from t = N-1, the adjoint recursion of
        :func:`policy_gradient_model_based` as two-operand vector-Jacobian
        products, O(b n (n + m + q)) per step."""
        S, U, Y, XI = traj.S, traj.U, traj.Y, traj.XI
        if method == "derivative_free":
            for steps in traj.chunks:
                yield steps, ((Y[steps] - U[steps]) @ self.noise_inv[steps]
                              + self.alpha * (U[steps] @ self.R[steps]))
            return
        N = S.shape[0]
        lam = np.asarray(self.state_cost_grad(S[N - 1], N), dtype=float)
        for steps in reversed(traj.chunks):
            g = np.empty(U[steps].shape)
            for t in range(steps.stop, steps.start, -1):
                # Each Jacobian goes straight into its product, so one dense
                # (b, n, n), (b, n, m) or (b, q, n) Jacobian is alive at a time.
                s, u, y, xi = S[t - 1], U[t - 1], Y[t - 1], XI[t - 1]
                g_t = g[t - 1 - steps.start]
                g_t[...] = u @ self.R[t - 1] + _vjp(
                    np.asarray(self.jac_control(s, y, xi, t), dtype=float), lam)
                if t == 1:  # nothing reads lam_1
                    break
                lam = (np.asarray(self.state_cost_grad(s, t), dtype=float)
                       + _vjp(np.asarray(self.jac_state(s, y, xi, t), dtype=float), lam)
                       + _vjp(np.asarray(self.features_jacobian(s, t), dtype=float),
                              g_t @ K[t - 1]))
            yield steps, g

    def raw_gradients(self, method: str, K: np.ndarray, traj) -> np.ndarray:
        """The raw G_t of every row, (b, N-1, m, q)."""
        G = np.empty((traj.J.shape[0],) + self.shape)
        for steps, g in self._scores(method, K, traj):
            G[:, steps] = np.einsum("tbm,tbq->btmq", g, _stacked(traj.PHI, steps))
        return G

    def _block_moments(self, K: np.ndarray, noise, w: np.ndarray, start: int, n: int,
                       method: str, second: bool, ready=_drawn):
        """(this block's share of the batch mean, of the second moment or
        None) for the rollouts of one row block of the ``noise`` of an
        n-rollout batch, rows ``start`` on, whose w = exp(alpha J) it writes
        into ``w``: with scale = alpha w (model-based) or w
        (derivative-free) and c = scale / n, the shares are (c g_t)' phi_t
        and n ((c g_t)^2)' (phi_t^2) = ((scale g_t)^2)' (phi_t^2) / n, one
        stacked product per chunk of steps; ``ready`` is :meth:`forward`'s."""
        traj = self.forward(K, *noise, start, ready)
        np.exp(check_exponents(self.alpha * traj.J, start), out=w)
        c = (self.alpha * w if method == "model_based" else w)[:, None] / n
        mean = np.empty(self.shape)
        sq = np.empty(self.shape) if second else None
        for steps, g in self._scores(method, K, traj):
            phi = _stacked(traj.PHI, steps)
            g *= c
            cg_t = g.transpose(0, 2, 1)
            np.matmul(cg_t, phi, out=mean[steps])
            if second:
                g *= g
                np.matmul(cg_t, phi * phi, out=sq[steps])
                sq[steps] *= n
        return mean, sq

    def moments(self, K: np.ndarray, sampler: GaussianSampler, n: int, method: str,
                second: bool = False):
        """(batch mean, batch second moment or None, w = exp(alpha J)) of
        the gradient samples of n rollouts, with no per-sample tensor.

        The calling thread draws the noise of the whole batch
        (:meth:`drawing`) while each row block runs the forward pass, J, w
        and the scores (:meth:`_block_moments`) on any thread of
        :func:`~riskconvex.objective._map_blocks`, each chunk of steps once
        its noise has landed, and the blocks' shares are summed in block
        order.  An overflowing exp(alpha J) raises
        :class:`EstimateOverflowError` naming its rollout; on a batch of
        several blocks, this error, :class:`DivergenceError` and the
        state-cost :class:`FieldEvaluationError` report the first failure
        of the first block that fails."""
        (s1, eps, xi), draw = self.drawing(sampler, n)
        blocks = _row_blocks(n, self.width)
        w = np.empty(n)

        def block(i, ready):
            rows = blocks[i]
            return self._block_moments(K, (s1[rows], eps[:, rows], xi[:, rows]), w[rows],
                                       rows.start, n, method, second, ready)

        # One block whose steps run as one chunk needs the whole draw at once.
        overlap = len(blocks) > 1 or len(_step_chunks(self.shape[0], n, self.width)) > 1
        parts = _map_blocks(block, len(blocks), self.parallel and overlap, draw)
        mean, sq = parts[0]
        for block_mean, block_sq in parts[1:]:
            mean += block_mean
            if second:
                sq += block_sq
        return mean, sq, w


def _single(dyn, cost, policy, model, sampler, mode="noisy", s1=None, frozen=None,
            method=None):
    """One rollout as an engine batch of one: (Rollout, raw G of ``method``).
    Mean mode is the replay of zero noise from s_1 (zero unless given).
    A given s1 must be (n,), and a frozen realization must hold s1 (n,),
    eps (N-1, m) and xi (N-1, p): another shape is a
    :class:`ContractError` naming it."""
    engine = _RolloutEngine(dyn, cost, policy, model)
    if method is not None:
        engine.check_method(method)
    if mode not in ("noisy", "mean"):
        raise ContractError(f"unknown rollout mode {mode!r}")
    N, nd, m, p = dyn.horizon, dyn.state_dim, dyn.control_dim, dyn.disturbance_dim
    if s1 is not None:
        s1 = _shaped(s1, "s1", (nd,))
    if mode == "mean" and frozen is None:
        frozen = FrozenNoise(s1=np.zeros(nd) if s1 is None else s1,
                             eps=np.zeros((N - 1, m)), xi=np.zeros((N - 1, p)))
    if frozen is None:
        noise = engine.draw(sampler, 1, s1)
    else:  # the frozen realization as a batch of one; the Rollout keeps a copy of xi
        noise = (_shaped(frozen.s1, "frozen noise s1", (nd,))[None],
                 _shaped(frozen.eps, "frozen noise eps", (N - 1, m))[:, None],
                 _shaped(frozen.xi, "frozen noise xi", (N - 1, p))[:, None].copy())
    traj = engine.forward(policy.gains, *noise)
    expo = check_exponents(model.alpha * traj.J)
    r = Rollout(states=traj.S[:, 0], controls=traj.U[:, 0], realized=traj.Y[:, 0],
                disturbances=traj.XI[:, 0], stage_costs=traj.stage[:, 0],
                cost=float(traj.J[0]), exp_cost=float(np.exp(expo[0])), alpha=model.alpha)
    return r, None if method is None else engine.raw_gradients(method, policy.gains, traj)[0]


def rollout(dyn: Dynamics, cost: ControlCost, policy: Policy, model: ControlRiskModel,
            sampler: GaussianSampler, mode: str = "noisy",
            s1=None, frozen: Optional[FrozenNoise] = None) -> Rollout:
    """Simulate one trajectory under the policy (the engine at batch one).

    mode "noisy" draws y_t ~ N(u_t, Sigma_t) and xi_t from the
    disturbance sampler; mode "mean" replays zero noise, y_t = u_t and
    xi_t = 0 (and s_1 = 0 unless given); any other mode is a
    :class:`ContractError`.  ``frozen`` replays a fixed noise
    realization regardless of mode.  Raises
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

    The noise of all n rollouts is drawn in the stream order of a
    step-by-step rollout, and the rollouts run in row blocks, each chunk
    of steps once its noise has landed (module docstring).  The samples
    are reduced per step as moments, summed over the blocks, never
    stored: with
    scale = alpha w (model-based) or w (derivative-free), w = exp(alpha J),
    the mean is (scale g_t / n)' phi_t and the second moment
    E2 = ((scale g_t)^2)' (phi_t^2) / n, then
    var = n / (n - 1) max(E2 - mean^2, 0) and std_err = sqrt(var / n).
    This one-pass variance has relative rounding error about
    eps (1 + SNR^2) per entry, SNR = |mean| / sd (Chan, Golub & LeVeque
    1983), far below the sampling error 1 / sqrt(2n) of a standard error
    for noisy Monte Carlo samples; entries whose samples are all exactly
    zero (phi_1 = 0 when s_1 = 0) come out exactly 0.  ``exp_cost_mean``
    and ``exp_cost_std_err`` are the two-pass mean and std of w, which
    keep their bits however the batch is blocked.  A standard error whose
    squares overflow raises :class:`EstimateOverflowError`.  Errors name
    rollouts by their batch index; on a batch of several blocks, a
    :class:`DivergenceError` (with its ``step``), a state-cost
    :class:`FieldEvaluationError` or an overflowing exp(alpha J) is the
    first failure of the first block that fails.
    """
    if n < 2:
        raise ContractError("batch gradient estimation needs n >= 2")
    engine = _RolloutEngine(dyn, cost, policy, model)
    engine.check_method(method)
    with np.errstate(over="ignore", invalid="ignore"):
        mean, sq, costs = engine.moments(policy.gains, sampler, n, method, second=True)
        var = np.maximum(sq - mean * mean, 0.0) * (n / (n - 1))
        std_err = np.sqrt(var / n)
        exp_cost_mean = float(costs.mean())
        exp_cost_std_err = float(costs.std(ddof=1) / np.sqrt(n))
    return BatchGradientEstimate(
        mean=mean,
        std_err=check_std_err(std_err),
        exp_cost_mean=exp_cost_mean,
        exp_cost_std_err=check_std_err(exp_cost_std_err),
        n=n,
    )


def _caller_stacklevel() -> int:
    """The ``stacklevel`` with which the function calling this names, in its
    warnings, the line that called into the library: the first frame whose
    module is not a library module of the package, the CLI counting as a
    caller (``skip_file_prefixes`` of Python 3.12, which 3.10 lacks).  So a
    warning of :func:`train_policy` names the caller of
    :func:`~riskconvex.noisynet.train_noisy_net` as well."""
    level, frame = 2, sys._getframe(2)
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if not module.startswith(__package__ + ".") or module == __package__ + ".cli":
            break
        level += 1
        frame = frame.f_back
    return level


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
    start = np.ravel(policy0.gains if config.theta0 is None else config.theta0)
    if start.size != dim:
        raise ContractError(f"theta0 has size {start.size} != stacked gain size {dim}")
    cert = check_control_certificate(cost, model)
    if not cert.holds:
        warnings.warn(
            f"per-step certificate fails (worst margin {cert.margin:.3e}); "
            "the optimality certificate in the report is void",
            stacklevel=_caller_stacklevel(),
        )

    def oracle(theta, n, stream, second):
        mean, sq, w = engine.moments(theta.reshape(shape), stream, n, method, second)
        return mean.ravel(), sq, w.sum() / n

    report = projected_sgd(oracle, start, constraint, config, sampler, cert, callback)
    trained = policy0.with_gains(report.theta_hat.reshape(shape))
    return trained, report


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
