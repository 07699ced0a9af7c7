"""Structured linear controller design via determinant maximization.

For a noiseless linear system s_{t+1} = A_t s_t + B_t y_t with s_1 = 0,
quadratic state costs 0.5 s' Q_t s and state feedback u_t = K_t s_t, the
risk-sensitive expectation E[exp(alpha J(K))] has a closed form: with the
block trajectory map M (x = M y), S = blockdiag(inv(Sigma_t)),
R = blockdiag(R_t), Q = blockdiag(Q_t) and K placed block-diagonally,

    W(K) = S - S K M - M' K' S - M' (K' (alpha R - S) K + alpha Q) M,

the expectation is det(W)^(-1/2) / sqrt(prod det Sigma_t) when W > 0 and
+inf otherwise.  Minimizing the expectation is therefore the program

    maximize log det W(K)  subject to  W(K) >= 0,

which is concave in K whenever alpha R >= S.  synthesize() runs Newton
ascent on the free gain entries that W can see, with step backtracking,
and falls back to a projected gradient step when the Hessian does not
factor or no Newton step improves; the log det's own blow-up near a
singular W acts as the barrier.

Evaluation is factorized.  K only ever multiplies the row blocks M_t of
M, so KM is the stack of K_t M_t, and with D = alpha R - S

    W(K) = S - alpha M'QM - S KM - (S KM)' - KM' D KM,

where S KM and D KM are blockwise products and M'QM is a constant that
the :class:`LinearSystem` builds on first use and keeps.  One Cholesky
factor L of W then gives everything: W > 0 exactly when it exists,
log det W = 2 sum(log diag L), and the gradient's solves with W are two
triangular solves.  With p = (N-1) m, an evaluation costs one p x p
product and one factorization, O(p^3) with small constants; eigenvalues
of W are computed only when a caller reads ``DetMaxResult.min_eig`` or
``feasible``.  The Newton system comes from the same factor
(:func:`_newton_terms`): one more pair of triangular solves and three
products, then a Cholesky of the r x r system, r being the number of
visible free entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from .control import as_gains
from .csvio import read_matrix, write_csv
from .errors import ConfigError, ContractError
from .objective import ConvexityCertificate, convexity_certificate, psd_tolerance
from .sampling import as_covariance, as_psd_weight, spd_factor
from .solver import FeasibleSet


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Time-varying linear system with quadratic costs and control noise.

    ``A[t-1]`` (n x n) and ``B[t-1]`` (n x m) define
    s_{t+1} = A_t s_t + B_t y_t for t = 1..N-1; ``Q[t-1]`` (n x n, PSD)
    weights the state cost at t = 1..N; ``R[t-1]`` (m x m, PSD) and
    ``sigma[t-1]`` (m x m, PD) are the control cost and noise at
    t = 1..N-1.  A and B must be finite, Q and R are checked by
    :func:`as_psd_weight`, sigma by the conditioning rule of
    :func:`spd_factor` (:class:`IllConditionedError`).

    The system is read-only, its fields tuples of read-only copies.  It
    builds the constants of W(K) on first use and keeps nothing else, so
    threads may share it.
    """

    A: tuple
    B: tuple
    Q: tuple
    R: tuple
    sigma: tuple
    horizon: int

    def __post_init__(self):
        N = self.horizon
        if N < 2:
            raise ContractError("horizon must be >= 2")
        copies = {"A": [np.atleast_2d(np.array(a, dtype=float)) for a in self.A],
                  "B": [np.atleast_2d(np.array(b, dtype=float)) for b in self.B],
                  "Q": [as_psd_weight(q, name=f"Q at t={t}") for t, q in enumerate(self.Q, 1)],
                  "R": [as_psd_weight(r, name=f"R at t={t}") for t, r in enumerate(self.R, 1)],
                  "sigma": [as_covariance(s) for s in self.sigma]}
        for name, mats in copies.items():
            for mat in mats:
                mat.setflags(write=False)
            object.__setattr__(self, name, tuple(mats))  # past the frozen __setattr__
        for t, s in enumerate(self.sigma, start=1):
            spd_factor(s, name=f"control noise at t={t}")  # _build_block_operators inverts
        for name in copies:
            count = N if name == "Q" else N - 1
            if len(getattr(self, name)) != count:
                raise ContractError(f"need {count} {name} matrices")
        n, m = self.B[0].shape
        shapes = {"A": (n, n), "B": (n, m), "Q": (n, n), "R": (m, m), "sigma": (m, m)}
        for name, shape in shapes.items():
            for t, mat in enumerate(getattr(self, name), start=1):
                if mat.shape != shape:
                    raise ContractError(f"{name} at t={t} must be {shape[0]}x{shape[1]}")
                if not np.isfinite(mat).all():  # Q, R and sigma were checked when copied
                    raise ContractError(f"{name} at t={t} must be finite")

    @property
    def state_dim(self) -> int:
        return self.B[0].shape[0]

    @property
    def control_dim(self) -> int:
        return self.B[0].shape[1]

    @cached_property
    def _operators(self) -> _BlockOperators:
        """The constants of W(K), built on the first det-max call."""
        return _build_block_operators(self)


@dataclass(frozen=True, eq=False)
class _BlockOperators:
    """Stacked trajectory-space operators of a linear system: the
    constants that every W(K) evaluation reuses, computed once per
    system (field comments).  An evaluation returns what it computes and
    stores nothing; :func:`synthesize` carries the factor of its iterate.
    """

    noise_weight: np.ndarray  # S = blockdiag(inv(Sigma_t))
    state_dim: int
    control_dim: int
    horizon: int
    traj_rows: np.ndarray     # M_t: M[:(N-1) n] as (N-1, n, (N-1) m)
    state_gram: np.ndarray    # M' Q M
    noise_blocks: np.ndarray  # S_t = inv(Sigma_t), (N-1, m, m)
    cost_blocks: np.ndarray   # R_t, (N-1, m, m)
    noise_max_eig: float      # largest eigenvalue of S
    cost_max_eig: float       # largest eigenvalue of R
    log_det_sigma: float      # sum_t log det Sigma_t

    def stack(self, gains) -> np.ndarray:
        """Gains K_1..K_{N-1} (:func:`~riskconvex.control.as_gains`) as
        one (N-1, m, n) array of finite entries."""
        G = as_gains(gains, (self.horizon - 1, self.control_dim, self.state_dim))
        finite = np.isfinite(G).all(axis=(1, 2))
        if not finite.all():
            raise ContractError(f"gain at t={int(np.argmin(finite)) + 1} must be finite")
        return G

    def _alpha_terms(self, alpha: float) -> _AlphaTerms:
        """The gain-free terms of W(K) at this alpha."""
        if not 0.0 < alpha < math.inf:
            raise ContractError("alpha must be positive and finite")
        # R and S are block-diagonal, so alpha R >= S block by block.
        return _AlphaTerms(D=alpha * self.cost_blocks - self.noise_blocks,
                           base=self.noise_weight - alpha * self.state_gram,
                           tol=psd_tolerance(alpha * self.cost_max_eig, self.noise_max_eig),
                           convexity=convexity_certificate(alpha, self.cost_blocks,
                                                           self.noise_blocks))

    def _evaluate(self, terms: _AlphaTerms, G: np.ndarray):
        """(W, Z, L) at stacked gains G: W(K), Z = S + D KM and the
        Cholesky factor L of W (None when W is not positive definite).

        W = S - alpha M'QM - S KM - (S KM)' - KM' D KM: KM, S KM and D KM
        are blockwise, and KM' (D KM) is the only dense product.  W is
        formed as base - (T + T') with T = S KM + KM' D KM / 2, which is
        exactly symmetric.
        """
        p = self.state_gram.shape[0]
        KM = np.matmul(G, self.traj_rows)                       # K_t M_t, (N-1, m, p)
        DKM = np.matmul(terms.D, KM).reshape(p, p)
        T = KM.reshape(p, p).T @ DKM
        T *= 0.5
        T += np.matmul(self.noise_blocks, KM).reshape(p, p)
        W = terms.base - (T + T.T)
        # Imported on first use: scipy.linalg adds 0.1-0.25 s to
        # `import riskconvex`, and only synthesis uses it.
        from scipy.linalg.lapack import dpotrf

        L, info = dpotrf(W, lower=1, clean=0)   # lower factor; upper triangle left as is
        return W, self.noise_weight + DKM, L if info == 0 else None


@dataclass(frozen=True)
class _AlphaTerms:
    D: np.ndarray                    # D_t = alpha R_t - S_t, (N-1, m, m)
    base: np.ndarray                 # S - alpha M'QM
    tol: float                       # scale-relative semidefiniteness tolerance of W
    convexity: ConvexityCertificate  # alpha R_t >= S_t, step by step


def _build_block_operators(sys: LinearSystem) -> _BlockOperators:
    """Assemble the constants of W(K) from the block trajectory map M.

    Block (i, j) of M is (A_{i-1} ... A_{j+1}) B_j for
    i > j and zero otherwise; the first block row is zero because
    s_1 = 0.  The block rows follow the dynamics, M_i = A_{i-1} M_{i-1}
    with B_{i-1} in column block i-1: one (n x n) @ (n x p) product per
    row, p = (N-1) m.
    """
    N, n, m = sys.horizon, sys.state_dim, sys.control_dim
    rows = np.zeros((N, n, (N - 1) * m))
    for i in range(1, N):
        np.matmul(sys.A[i - 1], rows[i - 1], out=rows[i])
        rows[i, :, (i - 1) * m:i * m] = sys.B[i - 1]
    M = rows.reshape(N * n, (N - 1) * m)
    from scipy.linalg import block_diag  # on first use, as in _evaluate

    noise_blocks = np.array([np.linalg.inv(s) for s in sys.sigma])
    noise_blocks = 0.5 * (noise_blocks + noise_blocks.transpose(0, 2, 1))
    cost_blocks = np.array(sys.R)
    gram = M.T @ block_diag(*sys.Q) @ M
    return _BlockOperators(
        noise_weight=block_diag(*noise_blocks),
        state_dim=n,
        control_dim=m,
        horizon=N,
        traj_rows=rows[:N - 1],
        state_gram=0.5 * (gram + gram.T),
        noise_blocks=noise_blocks,
        cost_blocks=cost_blocks,
        noise_max_eig=float(np.linalg.eigvalsh(noise_blocks).max()),
        cost_max_eig=float(np.linalg.eigvalsh(cost_blocks).max()),
        log_det_sigma=float(sum(np.linalg.slogdet(s)[1] for s in sys.sigma)),
    )


@dataclass
class DetMaxResult:
    """Objective value, feasibility, and the W matrix at one gain setting.

    ``min_eig`` and ``feasible`` are exact but lazy: the first read of
    either runs one ``eigvalsh(W)``, which the objective itself never
    needs.  ``W`` is the result's own array.
    """

    value: float                     # log det W, -inf when W is not positive definite
    W: np.ndarray
    convexity: ConvexityCertificate  # alpha R >= S (concavity of log det W)
    tol: float                       # scale-relative semidefiniteness tolerance

    @cached_property
    def min_eig(self) -> float:
        return float(np.linalg.eigvalsh(self.W)[0])

    @property
    def feasible(self) -> bool:
        """min eigenvalue >= -tol (expectation finite up to tol)."""
        return bool(self.min_eig >= -self.tol)


def _log_det(L: Optional[np.ndarray]) -> float:
    """log det W = 2 sum(log diag L) from the Cholesky factor L of W;
    -inf when W is not positive definite (L is None)."""
    return -math.inf if L is None else 2.0 * float(np.log(L.diagonal()).sum())


def detmax_objective(sys: LinearSystem, alpha: float, gains) -> DetMaxResult:
    """log det W(K) with the feasibility flag W(K) >= 0.

    ``gains`` is an (N-1, m, n) array or a list of (m x n) matrices, of
    finite entries.  W is assembled blockwise (module docstring) from
    the constants ``sys`` keeps and factored once: the value is
    2 sum(log diag L) for its Cholesky factor L, and -inf when W is not
    positive definite.  With p = (N-1) m that costs one p x p product
    and one p x p Cholesky.  The ``feasible`` flag tolerates eigenvalues
    down to -tol (scale-relative), matching the case split where an
    indefinite W makes the expectation +inf; it and ``min_eig`` come
    from ``eigvalsh(W)``, run only when one of them is read.
    """
    ops = sys._operators
    G = ops.stack(gains)
    terms = ops._alpha_terms(float(alpha))
    W, _, L = ops._evaluate(terms, G)
    return DetMaxResult(value=_log_det(L), W=W, convexity=terms.convexity, tol=terms.tol)


def detmax_gradient(sys: LinearSystem, alpha: float, gains):
    """Gradient of log det W with respect to each K_t (exact).

    d log det W / dK is the block diagonal of -2 Z W^-1 M' with
    Z = S + (alpha R - S) K M.  From the Cholesky factor of W,
    Y = W^-1 Z' takes two triangular solves, and block t of the gradient
    is -2 (M_t Y_t)', Y_t being the t-th block of m columns of Y; no
    inverse and no off-diagonal block is formed.  Cost: one assembly of
    W, one Cholesky and the p x p solves.
    ``synthesize`` gets the same gradient from its Newton pass
    (:func:`_newton_terms`).  Where W is not positive definite, log det W
    is -inf and has no gradient: :class:`ContractError`.

    Returns the gradient as one (N-1, m, n) array.
    """
    ops = sys._operators
    G = ops.stack(gains)
    _, Z, L = ops._evaluate(ops._alpha_terms(float(alpha)), G)
    return _gradient(ops, _solve_w(L, Z.T))


def _solve_w(L: Optional[np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """W^-1 rhs by two triangular solves with the Cholesky factor L of W;
    :class:`ContractError` when W is not positive definite (L is None)."""
    if L is None:
        raise ContractError("W(K) is not positive definite: log det W has no gradient")
    from scipy.linalg.lapack import dpotrs

    return dpotrs(L, rhs, lower=1)[0]


def _gradient(blocks: _BlockOperators, Y: np.ndarray) -> np.ndarray:
    """Blocks -2 (M_t Y_t)' of the gradient, from Y = W^-1 Z'."""
    N, m = blocks.horizon, blocks.control_dim
    return -2.0 * np.einsum("tna,atm->tmn", blocks.traj_rows, Y.reshape(-1, N - 1, m))


@dataclass(frozen=True)
class _Coordinates:
    """Directions in gain space, each moving one gain row.

    Coordinate k moves row ``row[k] = t m + i`` of the stacked gains
    (row i of K_t) along ``vectors[k]`` (length n); ``traj[:, k]`` is
    M_t' vectors[k], the coordinate's effect on the rows of KM.
    """

    row: np.ndarray      # (r,)
    vectors: np.ndarray  # (r, n)
    traj: np.ndarray     # (p, r)

    def expand(self, x: np.ndarray, shape) -> np.ndarray:
        """The stacked gains sum_k x_k e_row[k] vectors[k]', of ``shape``."""
        out = np.zeros(shape)
        np.add.at(out.reshape(-1, shape[-1]), self.row, x[:, None] * self.vectors)
        return out


def _visible_coordinates(blocks: _BlockOperators, masks: np.ndarray) -> _Coordinates:
    """An orthonormal basis, row by row, of the free gain directions that
    W(K) can see.

    W depends on row i of K_t only through K_t[i, F] M_t[F], F the free
    columns of that row, so the directions u with u' M_t[F] = 0 are
    invisible: all of K_1 (s_1 = 0), and K_2 outside range(B_1).  The
    gradient vanishes there and the Hessian is singular.  The basis of a
    row is the left singular vectors of M_t[F] whose singular value
    passes numpy's numerical-rank cutoff s_max max(n, p) eps, so a Newton
    step moves no gain entry that W cannot see.
    """
    n = blocks.state_dim
    rows = masks.reshape(-1, n)
    mats = blocks.traj_rows[np.arange(rows.shape[0]) // blocks.control_dim] * rows[:, :, None]
    U, s, Vt = np.linalg.svd(mats, full_matrices=False)
    row, k = np.nonzero(s > s[:, :1] * max(mats.shape[1:]) * np.finfo(float).eps)
    # M_t[F]' u_k = s_k v_k for the left and right singular vectors u_k, v_k.
    return _Coordinates(row=row, vectors=U[row, :, k] * rows[row],
                        traj=(s[row, k, None] * Vt[row, k]).T)


def _newton_terms(blocks: _BlockOperators, terms: _AlphaTerms, Z: np.ndarray,
                  L: Optional[np.ndarray], coords: _Coordinates):
    """(gradient, -H, g) of log det W at the gains whose evaluation gave
    Z and L (:meth:`_BlockOperators._evaluate`): the gradient as an
    (N-1, m, n) array, and the negated Hessian and the gradient in the
    coordinates ``coords``.

    With X = W^-1, D = blockdiag(alpha R_t - S_t), U the matrix whose
    column k is M_t' u_k and r_k the row coordinate k moves,

        -H[k, l] = 2 [ B[k, l] B[l, k] + (Z X Z' + D)[r_k, r_l] (U' X U)[k, l] ],

    B = (Z X U)[r, :], and g = -2 diag(B).  Y = X Z' is solved once, for
    the gradient; Z X U = Y' U and Z X Z' = Z Y, so the Hessian costs one
    more pair of triangular solves (against U) and three small products.
    -H is positive semidefinite when alpha R_t >= S_t at every step.
    W must be positive definite there (:func:`_solve_w`).
    """
    Y = _solve_w(L, Z.T)
    grad = _gradient(blocks, Y)
    m = blocks.control_dim
    U, row = coords.traj, coords.row
    ZXZ = Z @ Y
    steps = np.arange(blocks.horizon - 1)
    ZXZ.reshape(-1, m, blocks.horizon - 1, m)[steps, :, steps, :] += terms.D
    neg_hess = U.T @ _solve_w(L, U)
    neg_hess *= ZXZ[np.ix_(row, row)]
    B = (Y.T @ U)[row]
    neg_hess += B * B.T
    neg_hess *= 2.0
    return grad, neg_hess, -2.0 * B.diagonal()


def _ascent_directions(blocks: _BlockOperators, terms: _AlphaTerms, Z: np.ndarray,
                       L: np.ndarray, coords: _Coordinates):
    """(gradient, Newton direction, Newton decrement) at the gains whose
    evaluation gave Z and L, the first two as (N-1, m, n) arrays.  The
    direction is x = (-H)^-1 g in ``coords`` and the decrement g'x, twice
    the gain the Newton model predicts; both are None when there is no
    coordinate or -H is not positive definite."""
    grad, neg_hess, g = _newton_terms(blocks, terms, Z, L, coords)
    if not g.size:
        return grad, None, None
    from scipy.linalg.lapack import dpotrf, dpotrs

    factor, info = dpotrf(neg_hess, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        return grad, None, None
    x = dpotrs(factor, g, lower=1)[0]
    return grad, coords.expand(x, grad.shape), float(g @ x)


def closed_form_expectation(sys: LinearSystem, alpha: float, gains) -> float:
    """E[exp(alpha J(K))] in closed form: exp(-(log det W + sum log det Sigma_t)/2).

    The Gaussian normalizer c = sqrt((2 pi)^{m(N-1)} prod det Sigma_t)
    cancels the (2 pi) powers of the integral, leaving the determinant
    ratio; everything is computed in log form, with sum log det Sigma_t
    kept by ``sys``.  Returns +inf when W is not positive definite.
    """
    res = detmax_objective(sys, alpha, gains)
    if res.value == -math.inf:
        return math.inf
    return math.exp(-0.5 * (res.value + sys._operators.log_det_sigma))


# The Newton stop: a predicted gain of at most this many units of
# roundoff of the objective, eps (1 + |log det W|), cannot be seen.
_ROUNDING_GAIN = 8 * np.finfo(float).eps
# The step rules and tolerances of synthesize (see its docstring).
_STEP0 = 1.0
_BACKTRACK = 0.5
_STEP_TOL = 1e-14
_GRAD_TOL = 1e-9


@dataclass
class SynthesisConfig:
    """The iteration budget of :func:`synthesize`."""

    max_iters: int = 300

    def __post_init__(self):
        if self.max_iters < 1:
            raise ContractError("max_iters must be >= 1")


@dataclass
class SynthesisReport:
    gains: np.ndarray   # (N-1, m, n)
    objective: float
    success: bool
    converged: bool
    iterations: int
    grad_norm: float
    convexity: ConvexityCertificate
    message: str = ""


def synthesize(sys: LinearSystem, alpha: float, structure: Optional[list] = None,
               feasible: Optional[FeasibleSet] = None,
               config: Optional[SynthesisConfig] = None) -> SynthesisReport:
    """Maximize log det W over structured gains by Newton ascent.

    ``structure`` is an optional list of (m x n) boolean masks, True
    where the entry is free; masked (False) entries are held at zero.
    ``feasible`` optionally projects the stacked free gains, (N-1) m n
    entries in the step-major ``ravel`` of the stacked gains.  Starts at K = 0;
    if that is infeasible the report flags failure.

    Each iteration takes the exact Newton direction on the free entries
    that W can see (:func:`_visible_coordinates`; the others never move),
    tried first at step 1.  When -H does not factor (it can be indefinite
    where alpha R_t < S_t) or no Newton step improves the objective (a
    ``feasible`` projection can cause this), the iteration takes a
    projected gradient step instead, its step starting from twice the
    last accepted gradient step (at most 1).  Either way steps are halved
    until the objective improves, which also keeps W positive definite.
    The run stops when the gradient norm is at most 1e-9 (1 + |log det W|)
    (converged), when the gain the Newton model predicts, half the
    decrement g'(-H)^-1 g, is at most 8 eps (1 + |log det W|), a few
    rounding units of the objective, or when neither step improves at a
    step above 1e-14; the last two count as converged when the gradient
    norm is at most sqrt(1e-9) (1 + |log det W|).
    """
    blocks = sys._operators
    cfg = config or SynthesisConfig()
    alpha = float(alpha)
    N, n, m = sys.horizon, sys.state_dim, sys.control_dim
    if structure is None:
        masks = np.ones((N - 1, m, n), dtype=bool)
    else:
        masks = [np.asarray(mk, dtype=bool) for mk in structure]
        if len(masks) != N - 1 or any(mk.shape != (m, n) for mk in masks):
            raise ContractError(f"structure needs {N - 1} boolean masks of shape {(m, n)}")
        masks = np.array(masks)
    if feasible is not None and feasible.dim != masks.size:
        raise ContractError(f"feasible set dimension {feasible.dim} != {masks.size} gain entries")

    def apply_constraints(G):
        G = G * masks
        if feasible is not None:
            G = feasible.project(G.ravel()).reshape(G.shape) * masks
        return G

    gains = apply_constraints(np.zeros((N - 1, m, n)))
    terms = blocks._alpha_terms(alpha)
    _, Z, L = blocks._evaluate(terms, gains)
    value = _log_det(L)
    if value == -math.inf:
        return SynthesisReport(gains=gains, objective=value, success=False,
                               converged=False, iterations=0, grad_norm=math.nan,
                               convexity=terms.convexity,
                               message="no feasible start: W(0) is not positive definite")

    coords = _visible_coordinates(blocks, masks)

    def line_search(direction, step):
        """Backtrack from ``step`` until the objective improves; the
        accepted step (gains, value, Z and L move there), or None."""
        nonlocal gains, value, Z, L
        while step > _STEP_TOL:
            moved = gains + step * direction
            cand = apply_constraints(moved)
            _, cand_Z, cand_L = blocks._evaluate(terms, cand)
            cand_value = _log_det(cand_L)
            # value is finite, so an improvement also means W(cand) > 0.
            if cand_value > value:
                gains, value, Z, L = cand, cand_value, cand_Z, cand_L
                return step
            if np.array_equal(moved, gains):
                break  # rounding is monotone: every shorter step gives this same candidate
            step *= _BACKTRACK
        return None

    step = _STEP0
    converged = False
    grad_norm = math.inf
    it = 0
    for it in range(1, cfg.max_iters + 1):
        grad, newton, decrement = _ascent_directions(blocks, terms, Z, L, coords)
        grad *= masks
        grad_norm = math.sqrt(float(np.sum(grad**2)))
        if grad_norm <= _GRAD_TOL * (1.0 + abs(value)):
            converged = True
            break
        if newton is not None:
            if 0.5 * decrement <= _ROUNDING_GAIN * (1.0 + abs(value)):
                # No step can show a gain the objective's rounding hides.
                converged = grad_norm <= math.sqrt(_GRAD_TOL) * (1.0 + abs(value))
                break
            if line_search(newton, 1.0) is not None:
                continue
        accepted = line_search(grad, min(_STEP0, step / _BACKTRACK))
        if accepted is None:
            converged = grad_norm <= math.sqrt(_GRAD_TOL) * (1.0 + abs(value))
            break
        step = accepted
    return SynthesisReport(gains=gains, objective=value, success=True,
                           converged=converged, iterations=it, grad_norm=grad_norm,
                           convexity=terms.convexity)


def write_gains_csv(directory, gains) -> None:
    """One file per step, K_01.csv, K_02.csv, ...; rows are matrix rows.

    ``gains`` is one gain set (:func:`~riskconvex.control.as_gains`).
    The header row names the columns col_0..col_{q-1}; the step index
    lives in the filename.
    """
    gains = as_gains(gains)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = [f"col_{j}" for j in range(gains.shape[2])]
    for t, k in enumerate(gains, start=1):
        write_csv(directory / f"K_{t:02d}.csv", k, header=header)


def read_gains_csv(directory, shape) -> np.ndarray:
    """Read gains written by :func:`write_gains_csv`, ordered by step.

    ``shape`` is the (steps, rows, cols) the caller needs, and the gains
    come back as one array of it; another file count or matrix shape is
    a ``ConfigError`` naming the directory or the file.
    """
    directory = Path(directory)
    steps, rows, cols = shape
    # K_100.csv follows K_99.csv: shorter names first, then by name.
    paths = sorted(directory.glob("K_*.csv"), key=lambda p: (len(p.name), p.name))
    if len(paths) != steps:
        raise ConfigError(f"{directory}: expected {steps} gain files K_*.csv, "
                          f"found {len(paths)}")
    gains = [read_matrix(path, header=True)[1] for path in paths]
    for path, k in zip(paths, gains):
        if k.shape != (rows, cols):
            raise ConfigError(f"{path}: expected a {rows}x{cols} gain, "
                              f"found {k.shape[0]}x{k.shape[1]}")
    return np.array(gains)
