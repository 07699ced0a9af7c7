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
single rollout is a batch of one.  The engine meets every problem
callable as one checked batch callable (:func:`~riskconvex.fields._lifted`),
by one row rule: a vectorized result must have the batch's shape, the
results of a callable that is not ``vectorized`` are checked row by row
against the row's shape and stacked, and a ``*_batch`` draw is preferred
to its per-row form when given.  Anything else is a
:class:`ContractError` naming the callable, t and a per-row call's row,
never broadcast over the batch.  Vectorized callables must be functions
of their arguments alone: a large batch calls them concurrently, from
several threads, on disjoint row blocks.  Batch estimation draws from derived
sampler streams and reduces in fixed order: the batch mean and second
moment are reduced per step as small matrix products (g_t' phi_t), so only
the single-rollout estimators build a per-sample (n, N-1, m, q) tensor;
batches and the step-size pilot do not.
Batches run in row blocks of 2**14 // max(n, m, q) rollouts, and a block
in chunks of steps (:func:`_step_chunks`), so the temporaries of each
hold about 2**14 entries per per-step array (memory and the GIL set the
size, see :data:`~riskconvex.objective._BLOCK_ENTRIES`).
:meth:`_RolloutEngine.moments` tells how a batch draws its noise and runs
its blocks: one block on the calling thread alone, several on it and a
helper, with bits that depend on the layout (n, width) and the sampler,
never on the thread count.  Each batch of a training run draws its own
noise from the run stream when it runs.  A block holds its trajectory,
S (N, b, n), U (N-1, b, m) and the stage costs of one chunk of steps
(all N of them for a batch of one), as views of one allocation, whose
pages glibc's malloc keeps from batch to batch: arrays freed together
crossed its heap-trim threshold and were faulted in again every batch.
Its realized controls Y (N-1, b, m) are written over its noise eps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .csvio import write_csv
from .errors import (
    ContractError,
    DivergenceError,
    FieldEvaluationError,
)
from .fields import _bound_limit, _first_violation, _lifted
from .objective import (
    _BLOCK_ENTRIES,
    ConvexityCertificate,
    _checked_alpha,
    _map_blocks,
    _row_blocks,
    check_exponents,
    check_std_err,
    convexity_certificate,
)
from .sampling import GaussianSampler, _factored_noise, as_psd_weight, as_steps
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
    s_1 (None means s_1 = 0); their ``*_batch`` forms draw b rows at once
    and are preferred when given.  ``vectorized`` promises that step and
    the Jacobians accept a leading batch axis; otherwise they run per row,
    each row's result checked against its row's shape (the module's row
    rule).  ``disturbance*`` runs on any thread with its block's own
    generator, so it too must be a function of its arguments alone;
    ``init_state*`` runs on the calling thread.
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
    R_t for t = 1..N-1, kept as one (N-1, m, m) array.  ``vectorized``
    promises that both callables accept a leading batch axis; otherwise
    they run per row, each row's result checked against its row's shape
    (the module's row rule).
    """

    state_cost: Callable
    control_weights: np.ndarray
    bound: float
    state_cost_grad: Optional[Callable] = None
    vectorized: bool = False

    def __post_init__(self):
        self.bound = float(self.bound)
        if not np.isfinite(self.bound):
            raise ContractError("state cost bound must be finite")
        self.control_weights = as_psd_weight(as_steps(self.control_weights, name="control weight"),
                                             name="control weight")


@dataclass
class Policy:
    """Feedback policy u_t = K_t phi(s_t, t), linear in the gains.

    ``gains`` is one (N-1, m, q) array
    (:func:`~riskconvex.sampling.as_steps`) of the gains
    K_t, t = 1..N-1; ``features`` maps (s, t) to a q-vector.  The optional
    features Jacobian d phi / d s (q x n) enables the model-based gradient;
    like the dynamics Jacobians, a broadcast one is applied as one product.
    ``vectorized`` promises that both callables accept a leading batch
    axis; otherwise they run per row, each row's result checked against
    its row's shape (the module's row rule).
    """

    gains: np.ndarray
    features: Callable
    features_jacobian: Optional[Callable] = None
    vectorized: bool = False

    def __setattr__(self, name, value):
        # Construction and later assignments alike store the stacked copy.
        super().__setattr__(name, as_steps(value) if name == "gains" else value)

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
    """Risk factor and per-step control-noise covariances Sigma_t, one
    (N-1, m, m) array; their inverses ``noise_inv`` and symmetric square
    roots ``noise_root``, stacked alike, are its one factored noise, read-only.
    """

    alpha: float
    control_noise: np.ndarray

    def __post_init__(self):
        self.alpha = _checked_alpha(self.alpha)
        self._noise = _factored_noise(self.control_noise, name="control noise")
        self.control_noise, self.noise_inv, self.noise_root = self._noise


def check_control_certificate(cost: ControlCost, model: ControlRiskModel) -> ConvexityCertificate:
    """Margin lambda_min(alpha R_t - inv(Sigma_t)) for each control step."""
    if cost.control_weights.shape != model.control_noise.shape:
        raise ContractError(f"cost control weights {cost.control_weights.shape} and model "
                            f"noise {model.control_noise.shape} differ")
    return convexity_certificate(model.alpha, cost.control_weights, model.noise_inv)


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


@functools.lru_cache(maxsize=256)
def _step_chunks(n_steps: int, rows: int, width: int) -> tuple:
    """The ``n_steps`` steps of a block of ``rows`` rollouts of ``width``
    entries as slices of _BLOCK_ENTRIES // (rows * width) steps, at least
    one: a chunk's (steps, rows, width) entries fit in one row block's, so
    its noise, control costs, scores and moments are each one stacked
    product no larger than a block's arrays, with the bits of the per-step
    products.  A block of a batch of several blocks fills the budget
    alone, so its chunks are single steps."""
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
# 0-d array operands of the per-step arithmetic: numpy takes them about
# 0.13 us faster per call than the Python floats 0.0 and 0.5, with the same
# bits.
_ZERO = np.zeros(())
_HALF = np.full((), 0.5)


def _row_quads(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x_b' M x_b for every row x_b of x (..., w), M (w, w) or stacked
    along x's leading axes.  Narrow rows skip the einsum and keep its
    bits.  A row of two takes a product and a BLAS row sum, since a sum of
    two terms has one order.  A row of one entry is x * M * x plus 0.0:
    the einsum's one-term sum 0 + p turns -0.0 into 0.0, and so erases
    the only way x * M can differ from x @ M, the sign of a zero (a
    vector x keeps the matrix product, whose shape differs).  Wider rows
    keep the einsum, whose order of additions a row sum would not keep."""
    width = x.shape[-1]
    if width > 2:
        return np.einsum("...i,...i->...", x @ M, x)
    if width == 2:
        xm = x @ M
        xm *= x
        return xm @ _PAIR
    xm = x * M if x.ndim > 1 else x @ M
    xm *= x
    xm += _ZERO
    return xm[..., 0]


def _vjp(J: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v_b' J_b for every row b.  A Jacobian whose rows share one matrix
    (stride 0 on the batch axis, as ``np.broadcast_to`` returns) is
    applied as one product v @ J[0]."""
    if J.strides[0] == 0:
        return v @ J[0]
    return np.einsum("bij,bi->bj", J, v)


def _reduced(cg_t: np.ndarray, phi: np.ndarray, out: np.ndarray) -> None:
    """np.matmul(cg_t, phi, out) over b rows, cg_t (steps, 1, b), phi (steps,
    b, 1), summed in order in pieces of 8192 rows: one matmul is a BLAS dot,
    which OpenBLAS splits over its threads past 10000 rows, rounding by their count."""
    np.matmul(cg_t[..., :8192], phi[:, :8192], out)
    for k in range(8192, phi.shape[1], 8192):
        out += cg_t[..., k:k + 8192] @ phi[:, k:k + 8192]


class _Trajectory(NamedTuple):
    """Rollouts of b rows, as :meth:`_RolloutEngine.forward` returns them."""

    S: np.ndarray       # (N, b, nd) states
    U: np.ndarray       # (N-1, b, m) mean controls
    Y: np.ndarray       # (N-1, b, m) realized controls, written over the noise eps
    XI: np.ndarray      # (N-1, b, p) disturbances
    PHI: object         # S[:-1] when the features return their states, else a list of (b, q)
    J: np.ndarray       # (b,) costs, the left fold of the stage costs
    stage: np.ndarray   # the (N, 1) stage costs of a batch of one, else one chunk's rows
    chunks: tuple       # the chunks of steps (_step_chunks)


class _RolloutEngine:
    """The batched rollout engine.  Construction validates the problem and
    resolves the dimensions, the state-cost limit, R_t and the noise
    factors (stacked (N-1, m, m), so a chunk of steps is one product) and
    the lifted callables once; gains come in per call as one stacked
    (N-1, m, q) array, so a training loop rebuilds nothing per iteration."""

    def __init__(self, dyn: Dynamics, cost: ControlCost, policy: Policy,
                 model: ControlRiskModel):
        steps = (dyn.horizon - 1, dyn.control_dim)  # leading axes of every per-step stack
        for name, arr in (("cost control weights", cost.control_weights),
                          ("model noise", model.control_noise), ("policy gains", policy.gains)):
            if arr.shape[:2] != steps:
                raise ContractError(f"{name} must stack {steps[0]} steps of {steps[1]} "
                                    f"controls, got shape {arr.shape}")
        self.dyn = dyn
        self.shape = policy.gains.shape
        # Of a row block (objective._row_blocks): the widest per-step array,
        # s_t (b, n), u_t, y_t, eps_t (b, m) or phi_t (b, q), so each fills
        # at most the block's 2**14 entries.
        self.width = max(dyn.state_dim, dyn.control_dim, policy.feature_dim)
        # Row loops of per-row callables hold the GIL: their blocks run serially.
        self.parallel = dyn.vectorized and cost.vectorized and policy.vectorized
        self.alpha = model.alpha
        self.alpha_op = np.full((), model.alpha)  # a 0-d operand, as _HALF
        self.bound, self.limit = cost.bound, _bound_limit(cost.bound)
        self.R, self.noise_inv, self.noise_root = (cost.control_weights, model.noise_inv,
                                                   model.noise_root)
        # Each problem callable, under its own name, as one checked batch callable
        # of its row shape (fields._lifted); a *_batch draw when given.
        nd, m, q = dyn.state_dim, dyn.control_dim, policy.feature_dim
        for part, name, row in ((dyn, "step", (nd,)), (dyn, "jacobian_state", (nd, nd)),
                                (dyn, "jacobian_control", (nd, m)), (cost, "state_cost", ()),
                                (cost, "state_cost_grad", (nd,)), (policy, "features", (q,)),
                                (policy, "features_jacobian", (q, nd))):
            setattr(self, name, _lifted(getattr(part, name), name, row, part.vectorized))
        for name, row in (("init_state", (nd,)), ("disturbance", (dyn.disturbance_dim,))):
            batch = getattr(dyn, name + "_batch")
            setattr(self, name, _lifted(getattr(dyn, name), name, row, False, draw=True)
                    if batch is None else _lifted(batch, name + "_batch", row, True, draw=True))
        # A disturbance draw follows each step's eps in the stream.
        self.disturbed = dyn.disturbance_dim > 0 and self.disturbance is not None

    def check_method(self, method: str) -> None:
        if method not in ("model_based", "derivative_free"):
            raise ContractError(f"unknown gradient method {method!r}")
        if method == "model_based" and None in (self.jacobian_state, self.jacobian_control,
                                                self.features_jacobian, self.state_cost_grad):
            raise ContractError("model-based gradient requires dynamics and features "
                                "Jacobians and state cost gradients")

    def _checked_state_cost(self, s: np.ndarray, t: int, start: int = 0) -> np.ndarray:
        """The state costs l(s, t) of the batch ``s``, or
        :class:`FieldEvaluationError` carrying the first state that breaks
        the bound and naming its rollout, ``start`` being the batch index
        of ``s[0]``."""
        vals = self.state_cost(s, t)
        i = _first_violation(vals, self.limit)
        if i is not None:
            raise FieldEvaluationError(
                f"state cost {np.ravel(vals)[i]} violates bound {self.bound} at t={t} "
                f"in rollout {start + i}", theta=s[i]
            )
        return vals

    def draw(self, sampler: GaussianSampler, n: int, s1=None) -> tuple:
        """The noise (s1, eps, xi) of n rollouts, drawn whole in stream
        order, the one order of every stream, on this thread: s_1 (n, nd) by
        ``init_state*`` unless ``s1`` is given (0 with neither), then eps_t
        and xi_t for t = 1..N-1, eps (N-1, n, m) and xi (N-1, n, p), which
        stays 0 unless drawn.  No draw depends on a state, so drawing them
        whole before the rollouts leaves the stream unchanged.  numpy fills
        a draw in stream order, so eps is drawn and scaled into its array
        one chunk of steps (:func:`_step_chunks`) at a time: a batch whose
        eps_t no disturbance draw interleaves takes a chunk's eps in one
        call.  Only s_1 and the disturbances read ``sampler.rng``."""
        dyn, T = self.dyn, self.shape[0]  # T = N - 1 steps
        if s1 is None:
            s1 = (np.zeros((n, dyn.state_dim)) if self.init_state is None
                  else self.init_state(sampler.rng, n))
        eps, xi = np.empty((T, n, dyn.control_dim)), np.zeros((T, n, dyn.disturbance_dim))
        chunks = ([slice(t, t + 1) for t in range(T)] if self.disturbed
                  else _step_chunks(T, n, self.width))
        for steps in chunks:
            np.matmul(sampler.normal((steps.stop - steps.start, n, dyn.control_dim)),
                      self.noise_root[steps], out=eps[steps])
            if self.disturbed:  # a chunk of one step, t = steps.stop
                xi[steps.start] = self.disturbance(sampler.rng, steps.stop, n)
        return s1, eps, xi

    def forward(self, K: np.ndarray, s1: np.ndarray, eps: np.ndarray, xi: np.ndarray,
                start: int = 0):
        """The :class:`_Trajectory` of the rollouts of the b rows of ``s1``
        under the stacked gains K with the noise eps (N-1, b, m) and xi
        (N-1, b, p): a row block's fresh noise (:meth:`draw`) or a copy of
        one frozen realization (b = 1), since the realized controls
        y_t = u_t + eps_t are written over eps_t.  The steps run in order,
        each checking its state costs against the bound and its next states
        for finiteness; the control costs 0.5 u_t' R_t u_t of a chunk are
        one stacked product, and J folds a chunk's stage costs in step order
        before the next chunk reuses their rows.  ``start`` is the batch
        index of row 0, which errors name."""
        dyn = self.dyn
        N, nd, m = dyn.horizon, dyn.state_dim, dyn.control_dim
        b = s1.shape[0]
        chunks = _step_chunks(N - 1, b, self.width)
        # One allocation holds S, U and the stage costs (module docstring):
        # all N rows of them for a batch of one, else the first chunk's, the
        # longest, reused chunk by chunk.
        s_end = N * b * nd
        u_end = s_end + (N - 1) * b * m
        buf = np.empty(u_end + (N if b == 1 else chunks[0].stop) * b)
        S = buf[:s_end].reshape(N, b, nd)
        U = buf[s_end:u_end].reshape(N - 1, b, m)
        stage = buf[u_end:].reshape(-1, b)
        J = np.zeros(b)  # the left fold of the stage costs from 0.0
        PHI = []
        views = True  # every phi_t is S[t - 1] itself
        features, step, state_cost = self.features, self.step, self._checked_state_cost
        # The transposed gains, contiguous for a batch's products; a single
        # row keeps the transposed views, with which its product rounds
        # differently.
        KT = K.transpose(0, 2, 1)
        if b > 1:
            KT = np.ascontiguousarray(KT)
        for steps in chunks:
            if steps.start == 0:
                S[0] = s1  # drawn before eps_1
            costs = stage[steps] if b == 1 else stage[:steps.stop - steps.start]
            for t in range(steps.start + 1, steps.stop + 1):
                # Callables see rows of S, so features that return s itself
                # keep no second copy of the states alive.
                s, u, y = S[t - 1], U[t - 1], eps[t - 1]
                phi = features(s, t)
                views = views and phi is s
                PHI.append(phi)
                np.matmul(phi, KT[t - 1], out=u)
                costs[t - 1 - steps.start] = state_cost(s, t, start)
                nxt = step(s, np.add(u, y, out=y), xi[t - 1], t)  # y_t over eps_t
                S[t] = nxt
                if not np.isfinite(nxt).all():
                    raise DivergenceError(f"non-finite state at t={t + 1}", step=t + 1)
            costs += _HALF * _row_quads(U[steps], self.R[steps])
            for row in costs:
                J += row
        stage[-1] = state_cost(S[N - 1], N, start)
        J += stage[-1]
        return _Trajectory(S, U, eps, xi, S[:-1] if views else PHI, J, stage, chunks)

    def _scores(self, method: str, K: np.ndarray, traj):
        """Yield (steps, g) for each of the chunks of steps of ``traj``, g
        (steps, b, m) such that row b's raw G_t = g[t - 1 - steps.start, b]
        phi_t[b]': the likelihood-ratio score, one stacked product per
        chunk, or, chunk by chunk backward from t = N-1, the adjoint
        recursion of :func:`policy_gradient_model_based` as two-operand
        vector-Jacobian products, O(b n (n + m + q)) per step."""
        S, U, Y, XI, chunks = traj.S, traj.U, traj.Y, traj.XI, traj.chunks
        if method == "derivative_free":
            for steps in chunks:
                yield steps, ((Y[steps] - U[steps]) @ self.noise_inv[steps]
                              + self.alpha_op * (U[steps] @ self.R[steps]))
            return
        N = S.shape[0]
        lam = self.state_cost_grad(S[N - 1], N)
        for steps in reversed(chunks):
            g = np.empty(U[steps].shape)
            for t in range(steps.stop, steps.start, -1):
                # Each Jacobian goes straight into its product, so one dense
                # (b, n, n), (b, n, m) or (b, q, n) Jacobian is alive at a time.
                s, u, y, xi = S[t - 1], U[t - 1], Y[t - 1], XI[t - 1]
                g_t = g[t - 1 - steps.start]
                g_t[...] = u @ self.R[t - 1] + _vjp(self.jacobian_control(s, y, xi, t), lam)
                if t == 1:  # nothing reads lam_1
                    break
                lam = (self.state_cost_grad(s, t) + _vjp(self.jacobian_state(s, y, xi, t), lam)
                       + _vjp(self.features_jacobian(s, t), g_t @ K[t - 1]))
            yield steps, g

    def raw_gradients(self, method: str, K: np.ndarray, traj) -> np.ndarray:
        """The raw G_t of every row, (b, N-1, m, q)."""
        G = np.empty((traj.J.shape[0],) + self.shape)
        for steps, g in self._scores(method, K, traj):
            G[:, steps] = np.einsum("tbm,tbq->btmq", g, _stacked(traj.PHI, steps))
        return G

    def _shares(self, method: str, K: np.ndarray, traj, c: np.ndarray, n: int, mean, sq) -> None:
        """Write one row block's share of the mean of an n-rollout batch,
        and of its second moment unless ``sq`` is None: with scale =
        alpha w (model-based) or w (derivative-free) and c = scale / n
        (b, 1), (c g_t)' phi_t and n ((c g_t)^2)' (phi_t^2), one product
        per chunk of steps (:func:`_reduced` for a one-by-one moment over
        more than 8192 rows)."""
        product = _reduced if self.shape[1:] == (1, 1) and len(c) > 8192 else np.matmul
        for steps, g in self._scores(method, K, traj):
            phi = _stacked(traj.PHI, steps)
            g *= c
            cg_t = g.transpose(0, 2, 1)
            product(cg_t, phi, mean[steps])
            if sq is not None:
                g *= g
                product(cg_t, phi * phi, sq[steps])
                sq[steps] *= n

    def _block_moments(self, K: np.ndarray, noise, w: np.ndarray, start: int, n: int,
                       method: str, second: bool):
        """(this block's share of the batch mean, of the second moment or
        None) for the rollouts of one row block with ``noise``, rows
        ``start`` on of an n-rollout batch, on this thread: its
        :meth:`forward` pass, whose w = exp(alpha J) it writes into ``w``,
        then its :meth:`_shares`."""
        traj = self.forward(K, *noise, start)
        np.exp(check_exponents(self.alpha_op * traj.J, start), out=w)
        mean, sq = np.empty(self.shape), np.empty(self.shape) if second else None
        c = (self.alpha_op * w if method == "model_based" else w)[:, None] / n
        self._shares(method, K, traj, c, n, mean, sq)
        return mean, sq

    def moments(self, K: np.ndarray, sampler: GaussianSampler, n: int, method: str,
                second: bool = False):
        """(batch mean, batch second moment or None, w = exp(alpha J)) of
        the gradient samples of n rollouts, with no per-sample tensor.

        A batch of one row block is drawn whole from ``sampler``
        (:meth:`draw`) and runs (:meth:`_block_moments`) on the calling
        thread, which starts no thread.  A batch of several draws s_1 of
        all its rollouts on the calling thread, then splits ``sampler``
        into one stream per block; each block, on any thread of
        :func:`~riskconvex.objective._map_blocks`, draws its eps_t and
        xi_t from its stream and runs :meth:`_block_moments`, and the
        shares are summed in block order.  An overflowing exp(alpha J)
        raises :class:`EstimateOverflowError` naming its rollout; on a
        batch of several blocks, this error, :class:`DivergenceError` and
        the state-cost :class:`FieldEvaluationError` report the first
        failure of the first block that fails, and leave the sampler as a
        successful batch does."""
        w = np.empty(n)
        blocks = _row_blocks(n, self.width)
        if len(blocks) == 1:
            noise = self.draw(sampler, n)
            return (*self._block_moments(K, noise, w, 0, n, method, second), w)
        # s_1 = 0 unless drawn: then each block makes its own rows
        s1 = None if self.init_state is None else self.init_state(sampler.rng, n)
        streams = sampler.split(len(blocks))

        def block(i):
            rows = blocks[i]
            noise = self.draw(streams[i], rows.stop - rows.start, None if s1 is None else s1[rows])
            return self._block_moments(K, noise, w[rows], rows.start, n, method, second)

        (mean, sq), *rest = _map_blocks(block, len(blocks), self.parallel)
        for block_mean, block_sq in rest:
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
    :class:`ContractError` naming it, and so is an s1 given with a frozen
    realization, which holds its own."""
    engine = _RolloutEngine(dyn, cost, policy, model)
    if method is not None:
        engine.check_method(method)
    if mode not in ("noisy", "mean"):
        raise ContractError(f"unknown rollout mode {mode!r}")
    N, nd, m, p = dyn.horizon, dyn.state_dim, dyn.control_dim, dyn.disturbance_dim
    if s1 is not None and frozen is not None:
        raise ContractError("give s1 or frozen noise, not both: frozen.s1 is the initial state")
    if s1 is not None:
        s1 = _shaped(s1, "s1", (nd,))
    if mode == "mean" and frozen is None:
        frozen = FrozenNoise(s1=np.zeros(nd) if s1 is None else s1,
                             eps=np.zeros((N - 1, m)), xi=np.zeros((N - 1, p)))
    if frozen is None:
        noise = engine.draw(sampler, 1, None if s1 is None else s1[None])
    else:  # the frozen realization as a batch of one; the Rollout keeps copies of eps and xi
        noise = (_shaped(frozen.s1, "frozen noise s1", (nd,))[None],
                 _shaped(frozen.eps, "frozen noise eps", (N - 1, m))[:, None].copy(),
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
    realization, its own s_1 included, regardless of mode; giving ``s1``
    too is a :class:`ContractError`.  Raises
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
    step-by-step rollout, and the rollouts run in row blocks, each block
    once its noise has been drawn (module docstring).  The samples
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
        # np.std(ddof=1)'s own arithmetic, in place on the batch's own w:
        # same bits, and no (n,) temporary.
        costs -= exp_cost_mean
        costs *= costs
        exp_cost_std_err = float(np.sqrt(costs.sum() / (n - 1)) / np.sqrt(n))
    return BatchGradientEstimate(
        mean=mean,
        std_err=check_std_err(std_err),
        exp_cost_mean=exp_cost_mean,
        exp_cost_std_err=check_std_err(exp_cost_std_err),
        n=n,
    )


def train_policy(dyn: Dynamics, cost: ControlCost, policy0: Policy,
                 model: ControlRiskModel, method: str, config: SolverConfig,
                 constraint: FeasibleSet, sampler: GaussianSampler,
                 sink: Optional[Callable] = None):
    """Projected SGD over the stacked gains, run by :func:`~riskconvex.solver.projected_sgd`
    from the gains of ``policy0`` (or ``config.theta0``, step-major like
    ``policy0.gains.ravel()``) under :func:`check_control_certificate`.

    Returns (trained Policy with the averaged gains when config.averaging
    is set, else the final gains, and a SolverReport).  The objective
    trace records the batch mean of exp(alpha J) at each iterate.
    ``sink`` is the driver's per-iteration sink; its theta is the
    step-major ``ravel`` of the stacked gains.
    """
    engine = _RolloutEngine(dyn, cost, policy0, model)
    engine.check_method(method)
    shape = engine.shape

    def oracle(theta, n, stream, second):
        mean, sq, w = engine.moments(theta.reshape(shape), stream, n, method, second)
        return mean.ravel(), sq, w.sum() / n

    report = projected_sgd(oracle, policy0.gains.ravel(), constraint, config, sampler,
                           check_control_certificate(cost, model), sink)
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
