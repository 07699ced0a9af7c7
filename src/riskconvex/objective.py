"""Risk-averse convexified objectives and their Monte Carlo estimators.

Given a bounded field f, a risk factor alpha, perturbation covariance
Sigma and quadratic weight R, the convexified objective is

    (1/alpha) * log E[exp(alpha f(theta + w))] + 0.5 theta' R theta,
    w ~ N(0, Sigma),

and its exponentiated form is

    G(theta) = E[exp(alpha f(theta + w) + 0.5 alpha theta' R theta)].

The problem is convex whenever alpha R - inv(Sigma) is positive
semidefinite; :func:`check_convexity_certificate` evaluates that margin.
Aggregation of exponentials always subtracts the max exponent first, and
standard errors of log-of-mean estimates use the delta method.

The estimators draw, perturb and evaluate the field in row blocks of
2**14 // k points, so the field's temporaries stay in cache; each block
writes into one per-sample array that is reduced once, in the order of
a single draw of n rows.  A batch of two or more blocks of a vectorized
field runs its blocks on the calling thread and, when a second CPU is
usable, one helper thread (:func:`_map_blocks`); the calling thread makes
every draw, in stream order, so the results keep their bits at any thread
count.  On a batch of several blocks, an error is the first one of the
first block that fails; an overflowing exponent is named by its batch
index.  After an estimator raises, how far its sampler has advanced
depends on the thread count (the calling thread draws up to two blocks
ahead), so a caller that goes on after an error takes a fresh sampler.

All estimators are pure given their sampler, so they are safe to call
from multiple threads as long as each thread owns its own sampler (see
:mod:`riskconvex.sampling`).
"""

from __future__ import annotations

import collections
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    DegenerateEstimateError,
    EstimateOverflowError,
)
from .fields import ScalarField
from .sampling import GaussianSampler, as_covariance, as_psd_weight, spd_factor

LOG_FLOAT_MAX = float(np.log(np.finfo(np.float64).max))

# Entries of one row block: a (rows x width) float64 array of 128 KiB, so a
# block's temporaries stay in cache instead of streaming through memory,
# even with one block in flight on each of two threads.  The layout
# depends on n and the width alone, never on the thread count, so the
# bits do not either.
_BLOCK_ENTRIES = 2**14


def _block_rows(width: int) -> int:
    """Rows of one row block of ``width``-wide rows: 2**14 // width."""
    return max(1, _BLOCK_ENTRIES // width)


def _row_blocks(n: int, width: int) -> list:
    """Slices of rows 0..n-1 in blocks of :func:`_block_rows` rows; the last
    block also takes the remainder, so no block is a sliver and a batch
    of fewer than two blocks is the one slice(0, n)."""
    rows = _block_rows(width)
    if n < 2 * rows:  # the common small batch, kept cheap
        return [slice(0, n)]
    count = n // rows
    return [slice(i * rows, (i + 1) * rows if i < count - 1 else n) for i in range(count)]


# Helper threads a batch may use besides the calling thread.  One helper
# (two usable CPUs) is the configuration whose wall time and peak memory
# were measured; each further helper would add its own malloc arena and
# two more blocks drawn ahead, so more usable CPUs do not add helpers.
_MAX_HELPERS = 1

_POOLS: dict = {}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _pool() -> tuple:
    """(executor, helpers) of this process, built on first use: ``helpers``
    is one less than the usable CPUs, at most :data:`_MAX_HELPERS`, and
    ``executor`` a thread pool of that many threads (None for none).  It is
    keyed by process id: a forked child has none of its parent's threads,
    so it builds its own."""
    pid = os.getpid()
    pool = _POOLS.get(pid)
    if pool is None:
        from concurrent.futures import ThreadPoolExecutor

        helpers = max(0, min(_MAX_HELPERS, _usable_cpus() - 1))
        executor = ThreadPoolExecutor(helpers, "riskconvex-blocks") if helpers else None
        pool = _POOLS.setdefault(pid, (executor, helpers))
    return pool


def _map_blocks(work, inputs, count: int, parallel: bool = True) -> list:
    """[work(i, x) for i, x in enumerate(inputs)] over the ``count`` blocks
    of a batch, run on the calling thread and the pool's helpers.

    ``inputs`` is read on the calling thread alone, in order, so any draw
    it makes keeps its place in the stream; the results come back in
    block order.  One block, a pool without helpers or ``parallel`` off
    (row loops of non-vectorized callables hold the GIL) run the plain
    loop.  Otherwise a block may run on any thread, so ``work`` must
    depend on its arguments alone (:class:`_Batch`).  If blocks fail, no
    block after the lowest failed one is taken, and that block's error is
    raised: the error the plain loop raises."""
    executor, helpers = _pool() if parallel and count > 1 else (None, 0)
    helpers = min(helpers, count - 1)
    if helpers < 1:
        return [work(i, x) for i, x in enumerate(inputs)]
    return _Batch(work, inputs, count, helpers).run(executor)


class _Batch:
    """One :func:`_map_blocks` call on the calling thread and ``helpers``
    helper tasks.  The calling thread draws the inputs, keeping up to two
    blocks per helper drawn ahead, and runs a block whenever that many are
    ready or nothing is left to draw; helpers take ready blocks.  Blocks
    are taken in order under one lock.  The call returns only once every
    helper that joined has left, also when it is interrupted; a helper
    task that starts after the call closed does nothing, so a call never
    waits for a thread that is busy elsewhere (a nested call) or gone (a
    forked child).  Helpers run under the caller's numpy error state."""

    def __init__(self, work, inputs, count: int, helpers: int):
        import threading

        self.work, self.inputs, self.helpers = work, iter(inputs), helpers
        self.cond = threading.Condition()
        self.results = [None] * count
        self.ready = collections.deque()  # (i, input) drawn and not yet taken
        self.drawn = 0
        self.limit = count  # the lowest failed block; no block from it on is taken
        self.errors = {}
        self.active = 0  # helpers inside the batch
        self.closed = False
        self.errstate = np.geterr()

    def run(self, executor) -> list:
        for _ in range(self.helpers):
            try:
                executor.submit(self.help)
            except RuntimeError:  # no thread to be had: the caller runs the blocks
                break
        try:
            self.lead()
        finally:
            self.close()
        if self.errors:
            raise self.errors[min(self.errors)]
        return self.results

    def close(self) -> None:
        """Close the batch and wait for the helpers inside it.  An interrupt
        during the wait is raised once they have left, so no helper still
        runs a block when the call is over."""
        interrupt = None
        while True:
            try:
                with self.cond:
                    self.closed = True
                    self.cond.notify_all()
                    while self.active:
                        self.cond.wait()
                break
            except BaseException as exc:  # KeyboardInterrupt: wait on, then raise it
                interrupt = exc
        if interrupt is not None:
            raise interrupt

    def takeable(self) -> bool:
        return bool(self.ready) and self.ready[0][0] < self.limit

    def lead(self) -> None:
        ahead = 2 * self.helpers
        while True:
            with self.cond:
                take = self.takeable() and (len(self.ready) >= ahead or self.drawn >= self.limit)
                if take:
                    i, x = self.ready.popleft()
                elif self.drawn >= self.limit:
                    return
            if take:
                # An interrupt here is not a block error: it leaves at once.
                self.run_block(i, x, Exception)
                continue
            x = next(self.inputs)
            with self.cond:
                self.ready.append((self.drawn, x))
                self.drawn += 1
                self.cond.notify()

    def help(self) -> None:
        with self.cond:
            if self.closed:
                return
            self.active += 1
        try:
            with np.errstate(**self.errstate):
                while True:
                    with self.cond:
                        while not self.takeable():
                            if self.closed or self.drawn >= self.limit:
                                return
                            self.cond.wait()
                        i, x = self.ready.popleft()
                    self.run_block(i, x, BaseException)
        finally:
            with self.cond:
                self.active -= 1
                self.cond.notify_all()

    def run_block(self, i: int, x, catch) -> None:
        """Store block i's result, or its error of class ``catch``, which
        run() re-raises on the calling thread."""
        try:
            self.results[i] = self.work(i, x)
        except catch as exc:
            with self.cond:
                self.errors[i] = exc
                self.limit = min(self.limit, i)
                self.cond.notify_all()


@dataclass
class RiskModel:
    """The triple (alpha, Sigma, R) governing the transform.

    Attributes:
        alpha: risk factor, finite and > 0.
        sigma: perturbation covariance, symmetric positive definite (k x k).
        reg: quadratic weight, symmetric positive semidefinite (k x k).
        sigma_inv, sigma_root: Sigma's inverse and root, factored once
            (:class:`IllConditionedError` here when Sigma is ill-conditioned).
    """

    alpha: float
    sigma: np.ndarray
    reg: np.ndarray

    def __post_init__(self):
        self.alpha = float(self.alpha)
        if not 0.0 < self.alpha < np.inf:
            raise ContractError("alpha must be positive and finite")
        self.sigma = as_covariance(self.sigma)
        self.reg = as_psd_weight(self.reg, dim=self.sigma.shape[0], name="reg")
        self.sigma_inv, self.sigma_root = spd_factor(self.sigma, name="sigma")

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    def quad(self, theta) -> float:
        """0.5 * theta' R theta."""
        theta = np.asarray(theta, dtype=float)
        return 0.5 * float(theta @ self.reg @ theta)

    def sampler(self, seed) -> GaussianSampler:
        """A raw N(0, I) stream of this model's dimension."""
        return GaussianSampler(seed, dim=self.dim)


def isotropic_model(alpha: float, sigma_sq: float, kappa: float, dim: int) -> RiskModel:
    """RiskModel with Sigma = sigma_sq * I and R = kappa * I."""
    return RiskModel(alpha, sigma_sq * np.eye(dim), kappa * np.eye(dim))


@dataclass
class ConvexityCertificate:
    """Result of the certificate check alpha R >= inv(Sigma)."""

    holds: bool
    margin: float
    tol: float


def psd_tolerance(lam_max_areg, lam_max_sigma_inv):
    """Scale-relative semidefiniteness tolerance of the convexity
    certificate, elementwise on arrays (see :func:`certificate_margins`)."""
    return 1e-10 * (1.0 + lam_max_areg + lam_max_sigma_inv)


def certificate_margins(alpha: float, regs, noise_invs) -> tuple[np.ndarray, np.ndarray]:
    """(margins, tols) of the convexity condition alpha R_t >= inv(Sigma_t)
    over stacked (T, k, k) blocks R_t and inv(Sigma_t): margin_t =
    lambda_min(sym(alpha R_t - inv(Sigma_t))), tol_t = psd_tolerance(
    lambda_max(alpha R_t), lambda_max(inv(Sigma_t))), and step t holds when
    margin_t >= -tol_t.  Every certificate check in the package is this rule.
    """
    areg = alpha * np.asarray(regs, dtype=float)
    noise_invs = np.asarray(noise_invs, dtype=float)
    d = areg - noise_invs
    margins = np.linalg.eigvalsh(0.5 * (d + d.transpose(0, 2, 1)))[:, 0]
    tols = psd_tolerance(np.linalg.eigvalsh(areg)[:, -1], np.linalg.eigvalsh(noise_invs)[:, -1])
    return margins, tols


def check_convexity_certificate(model: RiskModel) -> ConvexityCertificate:
    """Check the convexity condition alpha R >= inv(Sigma), the one-block
    case of :func:`certificate_margins`.

    Returns the smallest eigenvalue of alpha R - inv(Sigma) as the margin;
    the certificate holds when the margin is >= -tol with a scale-relative
    tolerance.
    """
    margins, tols = certificate_margins(model.alpha, model.reg[None], model.sigma_inv[None])
    margin, tol = float(margins[0]), float(tols[0])
    return ConvexityCertificate(holds=margin >= -tol, margin=margin, tol=tol)


@dataclass
class Estimate:
    """A Monte Carlo estimate with its standard error and sample count."""

    value: float
    std_err: float
    n: int


def _check_args(f: ScalarField, model: RiskModel, sampler: GaussianSampler, n: int,
                theta, min_n: int = 2) -> np.ndarray:
    """Validate the dimensions and sample count; return theta as a (k,) array."""
    if f.dim != model.dim:
        raise ContractError(f"field dim {f.dim} does not match model dim {model.dim}")
    if sampler.dim != model.dim:
        raise ContractError(f"sampler dim {sampler.dim} does not match model dim {model.dim}")
    if n < min_n:
        raise ContractError(f"need at least {min_n} samples, got {n}")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.dim,):
        raise ContractError(f"theta must have shape ({model.dim},), got {theta.shape}")
    return theta


def _perturbed(model: RiskModel, theta, raw: np.ndarray) -> np.ndarray:
    """The points theta + w, w ~ N(0, Sigma), of raw N(0, I) draws: the
    draws times the symmetric root."""
    return theta + raw @ model.sigma_root


def _block_draws(blocks: list, sampler: GaussianSampler):
    """The raw N(0, I) draws of each row block, drawn in block order."""
    return (sampler.draw(rows.stop - rows.start) for rows in blocks)


def _field_values(f: ScalarField, model: RiskModel, theta, n: int,
                  sampler: GaussianSampler) -> np.ndarray:
    """f at n points theta + w, (n,): drawn, perturbed and evaluated one
    row block at a time, in the order of one draw of n rows."""
    vals = np.empty(n)
    blocks = _row_blocks(n, model.dim)

    def block(i, raw):
        vals[blocks[i]] = f.evaluate_batch(_perturbed(model, theta, raw))

    _map_blocks(block, _block_draws(blocks, sampler), len(blocks), f.vectorized)
    return vals


def smoothed_value(f: ScalarField, model: RiskModel, theta, n: int,
                   sampler: GaussianSampler) -> Estimate:
    """Monte Carlo estimate of the smoothed value E[f(theta + w)]."""
    theta = _check_args(f, model, sampler, n, theta)
    vals = _field_values(f, model, theta, n, sampler)
    se = float(vals.std(ddof=1) / np.sqrt(n))
    return Estimate(value=float(vals.mean()), std_err=se, n=n)


def log_mean_exp(a: np.ndarray) -> tuple[float, float]:
    """(log mean exp(a), delta-method std err of it), with max subtraction.

    The weights w = exp(a - max a) lie in (0, 1] with the largest exactly
    1, so their variance comes from one pass of sums,
    (sum w^2 - sum w * mean w) / (n - 1), clipped at 0: its rounding is
    about eps (1 + mean^2 / variance) relative (Chan, Golub & LeVeque
    1983), and equal weights give exactly 0.  The input is not modified.

    Raises :class:`ContractError` for fewer than 2 exponents,
    :class:`EstimateOverflowError` naming the first +inf exponent, and
    :class:`DegenerateEstimateError` naming the first NaN exponent or
    when every exponent is -inf.
    """
    a = np.asarray(a, dtype=float)
    if a.size < 2:
        raise ContractError(f"need at least 2 samples, got {a.size}")
    m = float(a.max())
    if np.isnan(m):
        i = int(np.argmax(np.isnan(a)))
        raise DegenerateEstimateError(f"exponent at sample {i} is NaN", sample_index=i)
    if m == np.inf:
        i = int(np.argmax(a == np.inf))
        raise EstimateOverflowError(f"exponent at sample {i} is +inf", sample_index=i)
    if m == -np.inf:
        raise DegenerateEstimateError("every sampled exponent underflowed to -inf")
    w = a - m
    np.exp(w, out=w)
    s1 = w.sum()
    mean_w = s1 / a.size
    var_w = np.maximum(w @ w - s1 * mean_w, 0.0) / (a.size - 1)
    return m + float(np.log(mean_w)), float(np.sqrt(var_w / a.size)) / float(mean_w)


def log_exp_objective(f: ScalarField, model: RiskModel, theta, n: int,
                      sampler: GaussianSampler) -> Estimate:
    """Estimate of (1/alpha) log E[exp(alpha f(theta+w))] + 0.5 theta' R theta."""
    theta = _check_args(f, model, sampler, n, theta)
    vals = _field_values(f, model, theta, n, sampler)
    vals *= model.alpha
    lme, se = log_mean_exp(vals)
    return Estimate(value=lme / model.alpha + model.quad(theta),
                    std_err=se / model.alpha, n=n)


def check_exponents(expo: np.ndarray, start: int = 0) -> np.ndarray:
    """Return the exponents, or raise EstimateOverflowError naming the
    first sample whose exp() would overflow; ``start`` is the batch index
    of ``expo[0]`` when ``expo`` is one row block of a batch."""
    over = expo > LOG_FLOAT_MAX
    if over.any():
        i = int(np.argmax(over))
        raise EstimateOverflowError(
            f"exponent {expo[i]:.6g} at sample {start + i} exceeds the representable range",
            sample_index=start + i,
        )
    return expo


def check_std_err(se):
    """Return the standard error(s), or raise EstimateOverflowError when
    one is not finite: the squares of finite exp-weighted samples can
    overflow.  Callers form them under ``np.errstate(over="ignore",
    invalid="ignore")``."""
    finite = np.isfinite(se)
    if not finite.all():
        bad = np.ravel(se)[np.argmin(np.ravel(finite))]
        raise EstimateOverflowError(f"a standard error is {bad}: the squared samples overflow")
    return se


def _grad_samples(f: ScalarField, model: RiskModel, theta: np.ndarray, n: int,
                  sampler: GaussianSampler) -> np.ndarray:
    """n single-draw gradient samples of G, (n, k): per draw w,
    alpha exp(alpha f(theta+w) + 0.5 alpha theta' R theta) (grad f(theta+w) + R theta),
    drawn, evaluated and scaled in place one row block at a time.  An
    overflowing exponent raises for the first one of the first block
    that has one, named by its batch index."""
    out = np.empty((n, model.dim))
    shift = model.reg @ theta
    quad = model.alpha * model.quad(theta)
    blocks = _row_blocks(n, model.dim)

    def block(i, raw):
        points = _perturbed(model, theta, raw)
        expo = check_exponents(model.alpha * f.evaluate_batch(points) + quad, blocks[i].start)
        samples = out[blocks[i]]
        np.add(f.grad_batch(points), shift, out=samples)
        samples *= (model.alpha * np.exp(expo))[:, None]

    _map_blocks(block, _block_draws(blocks, sampler), len(blocks), f.vectorized)
    return out


def exp_objective(f: ScalarField, model: RiskModel, theta, n: int,
                  sampler: GaussianSampler) -> Estimate:
    """Estimate of G(theta) = E[exp(alpha f(theta+w) + 0.5 alpha theta' R theta)];
    :class:`EstimateOverflowError` when its standard error overflows."""
    theta = _check_args(f, model, sampler, n, theta)
    vals = _field_values(f, model, theta, n, sampler)
    g = np.exp(check_exponents(model.alpha * vals + model.alpha * model.quad(theta)))
    with np.errstate(over="ignore", invalid="ignore"):
        value, se = float(g.mean()), float(g.std(ddof=1) / np.sqrt(n))
    return Estimate(value=value, std_err=check_std_err(se), n=n)


def unbiased_grad_mean(f: ScalarField, model: RiskModel, theta, n: int,
                       sampler: GaussianSampler) -> tuple[np.ndarray, np.ndarray]:
    """Mean and per-coordinate standard error of n single-draw gradient
    samples; :class:`EstimateOverflowError` when a standard error overflows."""
    if f.gradient is None:
        raise ContractError("unbiased_grad_mean requires a field with a gradient")
    theta = _check_args(f, model, sampler, n, theta)
    samples = _grad_samples(f, model, theta, n, sampler)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = samples.mean(axis=0)
        # np.std(axis=0, ddof=1)'s own arithmetic, reusing the mean and, in
        # place, the samples: same bits, and no second (n, k) array.
        samples -= mean
        samples *= samples
        se = np.sqrt(samples.sum(axis=0) / (n - 1)) / np.sqrt(n)
    return mean, check_std_err(se)
