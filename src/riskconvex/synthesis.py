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

which is concave in K whenever alpha R >= S.  synthesize() runs projected
gradient ascent with step backtracking; the log det's own blow-up near a
singular W acts as the barrier.

Evaluation is factorized.  K only ever multiplies the row blocks M_t of
M, so KM is the stack of K_t M_t, and with D = alpha R - S

    W(K) = S - alpha M'QM - S KM - (S KM)' - KM' D KM,

where S KM and D KM are blockwise products and M'QM is a constant of the
problem (:class:`BlockOperators` holds it with the other constants).
One Cholesky factor L of W then gives everything: W > 0 exactly when it
exists, log det W = 2 sum(log diag L), and the gradient's solves with W
are two triangular solves.  With p = (N-1) m, an evaluation costs one
p x p product and one factorization, O(p^3) with small constants;
eigenvalues of W are computed only when a caller reads
``DetMaxResult.min_eig`` or ``feasible``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .csvio import read_float_table, write_csv
from .errors import ContractError
from .objective import certificate_margins, psd_tolerance
from .sampling import as_covariance, as_psd_weight
from .solver import FeasibleSet


@dataclass
class LinearSystem:
    """Time-varying linear system with quadratic costs and control noise.

    ``A[t-1]`` (n x n) and ``B[t-1]`` (n x m) define
    s_{t+1} = A_t s_t + B_t y_t for t = 1..N-1; ``Q[t-1]`` (n x n, PSD)
    weights the state cost at t = 1..N; ``R[t-1]`` (m x m) and
    ``sigma[t-1]`` (m x m, PD) are the control cost and noise at
    t = 1..N-1.
    """

    A: list
    B: list
    Q: list
    R: list
    sigma: list
    horizon: int

    def __post_init__(self):
        N = self.horizon
        if N < 2:
            raise ContractError("horizon must be >= 2")
        self.A = [np.atleast_2d(np.asarray(a, dtype=float)) for a in self.A]
        self.B = [np.atleast_2d(np.asarray(b, dtype=float)) for b in self.B]
        self.Q = [as_psd_weight(q, name=f"Q at t={t}") for t, q in enumerate(self.Q, start=1)]
        self.R = [as_covariance(r) for r in self.R]
        self.sigma = [as_covariance(s) for s in self.sigma]
        if len(self.A) != N - 1 or len(self.B) != N - 1:
            raise ContractError(f"need {N - 1} A and B matrices")
        if len(self.Q) != N:
            raise ContractError(f"need {N} state cost matrices")
        if len(self.R) != N - 1 or len(self.sigma) != N - 1:
            raise ContractError(f"need {N - 1} control cost and noise matrices")
        n, m = self.B[0].shape
        for t in range(N - 1):
            if self.A[t].shape != (n, n):
                raise ContractError(f"A at t={t + 1} must be {n}x{n}")
            if self.B[t].shape != (n, m):
                raise ContractError(f"B at t={t + 1} must be {n}x{m}")
            if self.R[t].shape != (m, m) or self.sigma[t].shape != (m, m):
                raise ContractError(f"R and sigma at t={t + 1} must be {m}x{m}")
        for t in range(N):
            if self.Q[t].shape != (n, n):
                raise ContractError(f"Q at t={t + 1} must be {n}x{n}")

    @property
    def state_dim(self) -> int:
        return self.B[0].shape[0]

    @property
    def control_dim(self) -> int:
        return self.B[0].shape[1]


@dataclass
class BlockOperators:
    """Stacked trajectory-space operators of a linear system.

    Besides the dense operators it holds the constants that every W(K)
    evaluation reuses, computed once: the row blocks M_t that the gains
    act on, the Gram matrix M' Q M, and the per-step blocks of S and R
    with their largest eigenvalues.  It also keeps the last evaluation
    (W, Z and the Cholesky factor of W, keyed by exact equality of alpha
    and the stacked gains), so the gradient at an iterate the objective
    just accepted reuses its factorization.
    """

    traj_map: np.ndarray      # M, (N n) x ((N-1) m); x = M y, first block row 0
    noise_weight: np.ndarray  # S = blockdiag(inv(Sigma_t))
    control_cost: np.ndarray  # R = blockdiag(R_t)
    state_cost: np.ndarray    # Q = blockdiag(Q_t)
    state_dim: int
    control_dim: int
    horizon: int
    traj_rows: np.ndarray     # M_t: M[:(N-1) n] as (N-1, n, (N-1) m)
    state_gram: np.ndarray    # M' Q M
    noise_blocks: np.ndarray  # S_t = inv(Sigma_t), (N-1, m, m)
    cost_blocks: np.ndarray   # R_t, (N-1, m, m)
    noise_max_eig: float      # largest eigenvalue of S
    cost_max_eig: float       # largest eigenvalue of R
    _alpha_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _last_eval: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def place_gains(self, gains) -> np.ndarray:
        """Block placement of K_t into the m(N-1) x nN gain operator."""
        n, m, N = self.state_dim, self.control_dim, self.horizon
        G = self.stack(gains)
        K = np.zeros((m * (N - 1), n * N))
        for t in range(N - 1):
            K[t * m:(t + 1) * m, t * n:(t + 1) * n] = G[t]
        return K

    def stack(self, gains) -> np.ndarray:
        """Gains K_1..K_{N-1}, a list of (m x n) matrices or already
        stacked, as one (N-1, m, n) array."""
        n, m, N = self.state_dim, self.control_dim, self.horizon
        if isinstance(gains, np.ndarray) and gains.ndim == 3:
            if gains.shape[1:] == (m, n) and len(gains) == N - 1:
                return gains.astype(float, copy=False)
            gains = list(gains)
        gains = [np.atleast_2d(np.asarray(k, dtype=float)) for k in gains]
        if len(gains) != N - 1:
            raise ContractError(f"need {N - 1} gain matrices")
        for t, k in enumerate(gains):
            if k.shape != (m, n):
                raise ContractError(f"gain at t={t + 1} must be {m}x{n}")
        return np.array(gains)

    def _alpha_terms(self, alpha: float) -> _AlphaTerms:
        """The gain-free terms of W(K) at this alpha; the last alpha's
        are kept, so a synthesis run computes them once."""
        terms = self._alpha_cache.get(alpha)
        if terms is None:
            # R and S are block-diagonal, so alpha R >= S block by block.
            margins, tols = certificate_margins(alpha, self.cost_blocks, self.noise_blocks)
            terms = _AlphaTerms(D=alpha * self.cost_blocks - self.noise_blocks,
                                base=self.noise_weight - alpha * self.state_gram,
                                tol=psd_tolerance(alpha * self.cost_max_eig, self.noise_max_eig),
                                convexity_advisory=bool(np.all(margins >= -tols)))
            self._alpha_cache.clear()
            self._alpha_cache[alpha] = terms
        return terms

    def _evaluate(self, alpha: float, G: np.ndarray):
        """(terms, W, Z, L) at stacked gains G: the alpha terms, W(K),
        Z = S + D KM and the Cholesky factor L of W (None when W is not
        positive definite).  The last call's result is returned again
        for an equal (alpha, G)."""
        last = self._last_eval
        if last is not None and last[0] == alpha and np.array_equal(last[1], G):
            return last[2]
        terms = self._alpha_terms(alpha)
        W, Z = _w_matrix(self, terms, G)
        out = (terms, W, Z, _cholesky(W))
        self._last_eval = (alpha, G.copy(), out)
        return out


@dataclass(frozen=True)
class _AlphaTerms:
    D: np.ndarray             # D_t = alpha R_t - S_t, (N-1, m, m)
    base: np.ndarray          # S - alpha M'QM
    tol: float                # scale-relative semidefiniteness tolerance of W
    convexity_advisory: bool  # alpha R_t >= S_t at every step (certificate_margins)


def build_block_operators(sys: LinearSystem) -> BlockOperators:
    """Assemble the block trajectory map, the block-diagonal weights and
    the constants of W(K).

    Block (i, j) of the trajectory map is (A_{i-1} ... A_{j+1}) B_j for
    i > j and zero otherwise; the first block row is zero because
    s_1 = 0.
    """
    N, n, m = sys.horizon, sys.state_dim, sys.control_dim
    M = np.zeros((N * n, (N - 1) * m))
    for j in range(1, N):           # control index
        block = sys.B[j - 1]
        M[j * n:(j + 1) * n, (j - 1) * m:j * m] = block
        for i in range(j + 2, N + 1):  # state index i > j+1
            block = sys.A[i - 2] @ block
            M[(i - 1) * n:i * n, (j - 1) * m:j * m] = block

    def blockdiag(mats):
        size = sum(b.shape[0] for b in mats)
        out = np.zeros((size, size))
        pos = 0
        for b in mats:
            out[pos:pos + b.shape[0], pos:pos + b.shape[0]] = b
            pos += b.shape[0]
        return out

    noise_blocks = np.array([np.linalg.inv(s) for s in sys.sigma])
    noise_blocks = 0.5 * (noise_blocks + noise_blocks.transpose(0, 2, 1))
    cost_blocks = np.array(sys.R)
    state_cost = blockdiag(sys.Q)
    gram = M.T @ state_cost @ M
    return BlockOperators(
        traj_map=M,
        noise_weight=blockdiag(noise_blocks),
        control_cost=blockdiag(cost_blocks),
        state_cost=state_cost,
        state_dim=n,
        control_dim=m,
        horizon=N,
        traj_rows=M[:(N - 1) * n].reshape(N - 1, n, (N - 1) * m),
        state_gram=0.5 * (gram + gram.T),
        noise_blocks=noise_blocks,
        cost_blocks=cost_blocks,
        noise_max_eig=float(np.linalg.eigvalsh(noise_blocks).max()),
        cost_max_eig=float(np.linalg.eigvalsh(cost_blocks).max()),
    )


@dataclass
class DetMaxResult:
    """Objective value, feasibility, and the W matrix at one gain setting.

    ``min_eig`` and ``feasible`` are exact but lazy: the first read of
    either runs one ``eigvalsh(W)``, which the objective itself never
    needs.
    """

    value: float            # log det W, -inf when W is not positive definite
    W: np.ndarray
    convexity_advisory: bool  # whether alpha R >= S held (concavity of log det W)
    tol: float              # scale-relative semidefiniteness tolerance

    @cached_property
    def min_eig(self) -> float:
        return float(np.linalg.eigvalsh(self.W)[0])

    @property
    def feasible(self) -> bool:
        """min eigenvalue >= -tol (expectation finite up to tol)."""
        return bool(self.min_eig >= -self.tol)


def _w_matrix(blocks: BlockOperators, terms: _AlphaTerms, G: np.ndarray):
    """(W, Z) at stacked gains G, with Z = S + D KM.

    W = S - alpha M'QM - S KM - (S KM)' - KM' D KM: KM, S KM and D KM
    are blockwise, and KM' (D KM) is the only dense product.  W is
    formed as base - (T + T') with T = S KM + KM' D KM / 2, which is
    exactly symmetric.
    """
    p = blocks.state_gram.shape[0]
    KM = np.matmul(G, blocks.traj_rows)                     # K_t M_t, (N-1, m, p)
    DKM = np.matmul(terms.D, KM).reshape(p, p)
    T = KM.reshape(p, p).T @ DKM
    T *= 0.5
    T += np.matmul(blocks.noise_blocks, KM).reshape(p, p)
    return terms.base - (T + T.T), blocks.noise_weight + DKM


def _cholesky(W: np.ndarray) -> Optional[np.ndarray]:
    """Lower Cholesky factor of W (upper triangle left as is), or None
    when W is not positive definite."""
    # Imported on first use: scipy.linalg adds 0.1-0.25 s to
    # `import riskconvex`, and only synthesis uses it.
    from scipy.linalg.lapack import dpotrf

    L, info = dpotrf(W, lower=1, clean=0)
    return L if info == 0 else None


def detmax_objective(sys: LinearSystem, alpha: float, gains,
                     blocks: Optional[BlockOperators] = None) -> DetMaxResult:
    """log det W(K) with the feasibility flag W(K) >= 0.

    ``gains`` is a list of (m x n) matrices or an (N-1, m, n) array.
    W is assembled blockwise (module docstring) and factored once: the
    value is 2 sum(log diag L) for its Cholesky factor L, and -inf when
    W is not positive definite.  With p = (N-1) m that costs one p x p
    product and one p x p Cholesky.  The ``feasible`` flag tolerates
    eigenvalues down to -tol (scale-relative), matching the case split
    where an indefinite W makes the expectation +inf; it and ``min_eig``
    come from ``eigvalsh(W)``, run only when one of them is read.
    """
    if blocks is None:
        blocks = build_block_operators(sys)
    alpha = float(alpha)
    if not alpha > 0.0:
        raise ContractError("alpha must be positive")
    terms, W, _, L = blocks._evaluate(alpha, blocks.stack(gains))
    value = -math.inf if L is None else 2.0 * float(np.log(L.diagonal()).sum())
    return DetMaxResult(value=value, W=W, convexity_advisory=terms.convexity_advisory,
                        tol=terms.tol)


def detmax_gradient(sys: LinearSystem, alpha: float, gains,
                    blocks: Optional[BlockOperators] = None):
    """Gradient of log det W with respect to each K_t (exact).

    d log det W / dK is the block diagonal of -2 Z W^-1 M' with
    Z = S + (alpha R - S) K M.  From the Cholesky factor of W,
    Y = W^-1 Z' takes two triangular solves, and block t of the gradient
    is -2 (M_t Y_t)', Y_t being the t-th block of m columns of Y; no
    inverse and no off-diagonal block is formed.  Cost: one assembly of
    W, one Cholesky and the p x p solves; the first two are skipped when
    the last evaluation on ``blocks`` was at the same alpha and gains, as
    for the iterate ``synthesize`` just accepted.  Where W is indefinite,
    Y comes from an LU solve and the result is the gradient of
    log |det W|.

    Returns an (N-1, m, n) array when ``gains`` is one, else a list.
    """
    if blocks is None:
        blocks = build_block_operators(sys)
    N, m = blocks.horizon, blocks.control_dim
    _, W, Z, L = blocks._evaluate(float(alpha), blocks.stack(gains))
    if L is None:
        Y = np.linalg.solve(W, Z.T)
    else:
        from scipy.linalg.lapack import dpotrs

        Y = dpotrs(L, Z.T, lower=1)[0]
    grad = -2.0 * np.einsum("tna,atm->tmn", blocks.traj_rows, Y.reshape(-1, N - 1, m))
    return grad if isinstance(gains, np.ndarray) else list(grad)


def closed_form_expectation(sys: LinearSystem, alpha: float, gains,
                            blocks: Optional[BlockOperators] = None) -> float:
    """E[exp(alpha J(K))] in closed form: exp(-(log det W + sum log det Sigma_t)/2).

    The Gaussian normalizer c = sqrt((2 pi)^{m(N-1)} prod det Sigma_t)
    cancels the (2 pi) powers of the integral, leaving the determinant
    ratio; everything is computed in log form.  Returns +inf when W is
    not positive definite.
    """
    res = detmax_objective(sys, alpha, gains, blocks=blocks)
    if res.value == -math.inf:
        return math.inf
    log_det_sigmas = 0.0
    for s in sys.sigma:
        sign, logdet = np.linalg.slogdet(s)
        if sign <= 0:
            raise ContractError("control noise covariance must be positive definite")
        log_det_sigmas += logdet
    return math.exp(-0.5 * (res.value + log_det_sigmas))


@dataclass
class SynthesisConfig:
    max_iters: int = 300
    step0: float = 1.0
    grad_tol: float = 1e-9
    step_tol: float = 1e-14
    backtrack: float = 0.5


@dataclass
class SynthesisReport:
    gains: list
    objective: float
    success: bool
    converged: bool
    iterations: int
    grad_norm: float
    convexity_advisory: bool
    message: str = ""


def synthesize(sys: LinearSystem, alpha: float, structure: Optional[list] = None,
               feasible: Optional[FeasibleSet] = None,
               config: Optional[SynthesisConfig] = None) -> SynthesisReport:
    """Maximize log det W over structured gains by projected gradient ascent.

    ``structure`` is an optional list of (m x n) boolean masks, True
    where the entry is free; masked (False) entries are held at zero.
    ``feasible`` optionally projects the stacked free gains.  Steps are
    halved until W stays positive definite and the objective improves.
    Starts at K = 0; if that is infeasible the report flags failure.
    """
    blocks = build_block_operators(sys)
    cfg = config or SynthesisConfig()
    N, n, m = sys.horizon, sys.state_dim, sys.control_dim
    if structure is None:
        masks = np.ones((N - 1, m, n), dtype=bool)
    else:
        masks = [np.asarray(mk, dtype=bool) for mk in structure]
        if len(masks) != N - 1 or any(mk.shape != (m, n) for mk in masks):
            raise ContractError(f"structure needs {N - 1} boolean masks of shape {(m, n)}")
        masks = np.array(masks)

    def apply_constraints(G):
        # G.ravel() is the step-major order of control.stack_gains.
        G = G * masks
        if feasible is not None:
            G = feasible.project(G.ravel()).reshape(G.shape) * masks
        return G

    gains = apply_constraints(np.zeros((N - 1, m, n)))
    res = detmax_objective(sys, alpha, gains, blocks=blocks)
    if res.value == -math.inf:
        return SynthesisReport(gains=list(gains), objective=res.value, success=False,
                               converged=False, iterations=0, grad_norm=math.nan,
                               convexity_advisory=res.convexity_advisory,
                               message="no feasible start: W(0) is not positive definite")

    value = res.value
    advisory = res.convexity_advisory
    step = cfg.step0
    converged = False
    grad_norm = math.inf
    it = 0
    for it in range(1, cfg.max_iters + 1):
        grad = detmax_gradient(sys, alpha, gains, blocks=blocks) * masks
        grad_norm = math.sqrt(float(np.sum(grad**2)))
        if grad_norm <= cfg.grad_tol * (1.0 + abs(value)):
            converged = True
            break
        step = min(cfg.step0, step / cfg.backtrack)  # allow the step to regrow
        accepted = False
        while step > cfg.step_tol:
            cand = apply_constraints(gains + step * grad)
            cand_value = detmax_objective(sys, alpha, cand, blocks=blocks).value
            # value is finite, so an improvement also means W(cand) > 0.
            if cand_value > value:
                gains, value = cand, cand_value
                accepted = True
                break
            step *= cfg.backtrack
        if not accepted:
            converged = grad_norm <= math.sqrt(cfg.grad_tol) * (1.0 + abs(value))
            break
    return SynthesisReport(gains=list(gains), objective=value, success=True,
                           converged=converged, iterations=it, grad_norm=grad_norm,
                           convexity_advisory=advisory)


def write_gains_csv(directory, gains) -> None:
    """One file per step, K_01.csv, K_02.csv, ...; rows are matrix rows.

    The header row names the columns col_0..col_{q-1}; the step index
    lives in the filename.
    """
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for t, k in enumerate(gains, start=1):
        k = np.atleast_2d(np.asarray(k, dtype=float))
        header = [f"col_{j}" for j in range(k.shape[1])]
        write_csv(directory / f"K_{t:02d}.csv", k, header=header)


def read_gains_csv(directory) -> list:
    """Read gains written by :func:`write_gains_csv`, ordered by step."""
    from pathlib import Path

    directory = Path(directory)
    paths = sorted(directory.glob("K_*.csv"))
    if not paths:
        raise ContractError(f"no gain files K_*.csv found in {directory}")
    gains = []
    for path in paths:
        _, rows = read_float_table(path, header=True)
        gains.append(np.array(rows))
    return gains
