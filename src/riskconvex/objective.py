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

A batch draws its noise in row blocks of 2**14 // k points, in stream
order, and perturbs and evaluates the field one block at a time, so its
temporaries are those of a block per thread (``_BLOCK_ENTRIES``); each
block writes into one per-sample array that is reduced once.  Each block
of a vectorized field goes on one queue once its rows have landed, and
the calling thread, after the draw, and a helper thread that the call
starts and waits for, during it, take blocks off that queue
(:func:`_map_blocks`), so no block waits and the results keep their bits
at any thread count.  On a batch of several blocks, an
error is the first one of the first block that fails, raised once the
whole batch is drawn; an overflowing exponent is named by its batch
index.

All estimators are pure given their sampler, so they are safe to call
from multiple threads as long as each thread owns its own sampler (see
:mod:`riskconvex.sampling`).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    DegenerateEstimateError,
    EstimateOverflowError,
)
from .fields import ScalarField
from .sampling import GaussianSampler, _factored_noise, as_psd_weight

LOG_FLOAT_MAX = float(np.log(np.finfo(np.float64).max))

# Entries of one row block: a (rows x width) float64 array of 128 KiB.  The
# cache does not set this size: on one thread, a 2**18-rollout batch of
# mc_large_n's 2 x 2 system took 37.3 ms in blocks of 2**14 entries and
# 35.9 ms in blocks of 2**16 (2-vCPU x86 container, numpy 2.4).  Memory and
# the GIL do.  A batch holds one block's temporaries per thread in flight,
# and larger multi-block rows, which hand the GIL between the two threads
# less often, raised mc_large_n's peak RSS from 97 to 108-112 MB (12-15%);
# smaller blocks hand it over more often.  The width is the
# widest per-row array: the draw dimension k of the static estimators, and
# max(n, m, q) of a rollout step (control._RolloutEngine.width).  The
# layout depends on n and the width alone, never on the thread count, so
# the bits do not either.
_BLOCK_ENTRIES = 2**14


def _block_rows(width: int) -> int:
    """Rows of one row block of ``width``-wide rows: 2**14 // width."""
    return max(1, _BLOCK_ENTRIES // width)


@functools.lru_cache(maxsize=256)
def _row_blocks(n: int, width: int) -> tuple:
    """Slices of rows 0..n-1 in blocks of :func:`_block_rows` rows; the last
    block also takes the remainder, so no block is a sliver and a batch
    of fewer than two blocks is the one slice(0, n).  Cached, as every
    batch asks for its blocks."""
    rows = _block_rows(width)
    if n < 2 * rows:
        return (slice(0, n),)
    count = n // rows
    return tuple(slice(i * rows, (i + 1) * rows if i < count - 1 else n) for i in range(count))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _map_blocks(work, count: int, parallel: bool = True, draw=None) -> list:
    """[work(i) for i in range(count)] over the ``count`` blocks of a batch,
    run on the calling thread and one helper thread of this call while or
    after ``draw`` draws the batch.

    ``draw``, when given (a static batch of several blocks; the blocks of
    a rollout batch draw their own), is called as ``draw(landed)`` on the
    calling thread: it draws the batch's noise in stream order and calls
    ``landed(i)`` once the rows of block i are drawn.  The plain loop
    (``parallel`` off, as row loops of non-vectorized callables hold the
    GIL; one block; one usable CPU, read on every call of several blocks,
    so a later ``sched_setaffinity`` is honoured) draws the whole batch
    first and then runs the blocks.  Otherwise the call starts one daemon
    helper thread, ``riskconvex-blocks``, and a block is handed out only
    once its rows have landed, so no block waits: ``landed`` puts i on one
    queue, which holds every index from the start when there is no draw.
    The helper takes indices off that queue until it reaches an end mark,
    while the calling thread draws; then the calling thread does the same.
    There is one end mark for the helper and one for the calling thread,
    put after the last index, or for the helper when the call raises.  The
    helper runs under the caller's numpy error state.  The draw is whole
    before the call raises an error of its own blocks, and an error of the
    draw wins, as it would come first in the plain loop.  If blocks fail,
    no block after the lowest failed one starts, and that block's error is
    raised: the plain loop's error.  The call returns or raises only after
    its helper has ended, also when interrupted.  A thread the system
    refuses to start leaves every block to the calling thread.  Each call
    starts its own helper, so a nested call, or one of several concurrent
    callers, never waits for a thread busy elsewhere."""
    if not (parallel and count > 1 and _usable_cpus() > 1):
        if draw is not None:
            draw(lambda i: None)
        if count == 1:  # the common small batch: no comprehension frame
            return [work(0)]
        return [work(i) for i in range(count)]
    import queue
    import threading

    results, errors = [None] * count, {}
    # count, then each failed block: none from the lowest on starts; -1 once
    # the call raises.  Appends lose no failure when two blocks fail at
    # once, as a min-and-store could.
    stops = [count]
    # Block indices as they land, then end marks (None).  With a SimpleQueue
    # instead, mc_large_n's peak RSS read 101-104 MB in 42 of 42 runs,
    # against 96-97 MB in about half the runs with this deque-backed queue:
    # glibc more often kept a freed draw array in the calling thread's arena.
    todo = queue.Queue()
    ended = threading.Event()  # set by the helper's last act
    errstate = np.geterr()

    def run(catch) -> None:
        """Run blocks off the queue under the caller's error state until an
        end mark; keep errors of ``catch``."""
        with np.errstate(**errstate):
            for i in iter(todo.get, None):
                if i >= min(stops):
                    return
                try:
                    results[i] = work(i)
                except catch as exc:
                    errors[i] = exc
                    stops.append(i)

    def helper() -> None:
        try:
            run(BaseException)  # a helper's error is re-raised on the calling thread
        finally:
            ended.set()

    thread = threading.Thread(target=helper, name="riskconvex-blocks", daemon=True)
    try:
        try:
            thread.start()
        except RuntimeError:  # no thread to be had: the caller runs the blocks
            thread = None
        if draw is None:
            for i in range(count):
                todo.put(i)
        else:
            draw(todo.put)
        todo.put(None)
        todo.put(None)
        run(Exception)  # an interrupt is not a block error: it leaves at once
    except BaseException:
        stops.append(-1)  # the call raises: the helper starts no further block
        todo.put(None)  # and, waiting for an index, gets an end mark
        raise
    finally:
        # The wait is on the helper's end event, then join(): on Python 3.11
        # a Ctrl-C in join() alone can mark a thread that still runs as stopped.
        interrupt = None
        while thread is not None:
            try:
                ended.wait()
                thread.join()
                break
            except BaseException as exc:  # KeyboardInterrupt: wait on, then raise it
                interrupt = exc
        if interrupt is not None:
            raise interrupt
    if errors:
        raise errors[min(errors)]
    return results


def _checked_alpha(alpha) -> float:
    """``alpha`` as a float: the one rule of every risk factor, 0 < alpha < inf."""
    if not 0.0 < float(alpha) < np.inf:
        raise ContractError("alpha must be positive and finite")
    return float(alpha)


@dataclass
class RiskModel:
    """The triple (alpha, Sigma, R) governing the transform.

    Attributes:
        alpha: risk factor, finite and > 0.
        sigma: perturbation covariance, symmetric positive definite (k x k).
        reg: quadratic weight, symmetric positive semidefinite (k x k).
        sigma_inv, sigma_root: Sigma's inverse and root; with sigma, read-only
            views of the model's one-step factored noise (IllConditionedError).
    """

    alpha: float
    sigma: np.ndarray
    reg: np.ndarray

    def __post_init__(self):
        self.alpha = _checked_alpha(self.alpha)
        self._noise = _factored_noise(np.atleast_2d(self.sigma)[None], name="sigma")
        self.sigma, self.sigma_inv, self.sigma_root = (arr[0] for arr in self._noise)
        self.reg = as_psd_weight(self.reg, dim=self.dim, name="reg")

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


@dataclass(frozen=True, eq=False)
class ConvexityCertificate:
    """Verdict of the convexity condition alpha R_t >= inv(Sigma_t), step by
    step (one step for a static model), built by :func:`convexity_certificate`:
    ``margins[t]`` = lambda_min(sym(alpha R_t - inv(Sigma_t))) with the
    scale-relative tolerance ``tols[t]``.  It ``holds`` when every margin_t >=
    -tol_t; ``margin`` is the worst margin and ``tol`` the tolerance at its step."""

    margins: np.ndarray
    tols: np.ndarray

    @property
    def holds(self) -> bool:
        return bool(np.all(self.margins >= -self.tols))

    @property
    def margin(self) -> float:
        return float(self.margins.min())

    @property
    def tol(self) -> float:
        return float(self.tols[np.argmin(self.margins)])


def psd_tolerance(lam_max_areg, lam_max_sigma_inv):
    """Scale-relative semidefiniteness tolerance of the convexity
    certificate, elementwise on arrays (see :func:`convexity_certificate`)."""
    return 1e-10 * (1.0 + lam_max_areg + lam_max_sigma_inv)


def convexity_certificate(alpha: float, regs, noise_invs) -> ConvexityCertificate:
    """The convexity condition alpha R_t >= inv(Sigma_t) over stacked
    (T, k, k) blocks R_t and inv(Sigma_t): margin_t =
    lambda_min(sym(alpha R_t - inv(Sigma_t))), tol_t = psd_tolerance(
    lambda_max(alpha R_t), lambda_max(inv(Sigma_t))), and step t holds when
    margin_t >= -tol_t.  Every certificate check in the package is this rule.
    """
    areg = alpha * np.asarray(regs, dtype=float)
    d = areg - noise_invs
    margins = np.linalg.eigvalsh(0.5 * (d + d.transpose(0, 2, 1)))[:, 0]
    tols = psd_tolerance(np.linalg.eigvalsh(areg)[:, -1], np.linalg.eigvalsh(noise_invs)[:, -1])
    return ConvexityCertificate(margins=margins, tols=tols)


def check_convexity_certificate(model: RiskModel) -> ConvexityCertificate:
    """Check the convexity condition alpha R >= inv(Sigma), the one-step
    case of :func:`convexity_certificate`; ``margin`` is the smallest
    eigenvalue of alpha R - inv(Sigma)."""
    return convexity_certificate(model.alpha, model.reg[None], model._noise.inv)


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


def _block_draws(sampler: GaussianSampler, n: int, blocks: tuple) -> tuple:
    """(draws, parts): the (n, k) raw draws of a batch in ``blocks``, and
    the ``draw`` of :func:`_map_blocks` that fills them block by block in
    stream order, calling ``landed(i)`` as block i lands (numpy fills a
    draw in stream order, so the bits are those of one draw of n rows).
    A batch of one block is drawn here, with nothing left to draw."""
    if len(blocks) == 1:
        return sampler.draw(n), None
    draws = np.empty((n, sampler.dim))

    def parts(landed):
        for i, rows in enumerate(blocks):
            draws[rows] = sampler.draw(rows.stop - rows.start)
            landed(i)

    return draws, parts


def _field_values(f: ScalarField, model: RiskModel, theta, n: int,
                  sampler: GaussianSampler) -> np.ndarray:
    """f at n points theta + w, (n,): drawn, perturbed and evaluated one
    row block at a time, a block as soon as its draws have landed."""
    vals = np.empty(n)
    blocks = _row_blocks(n, model.dim)
    raw, parts = _block_draws(sampler, n, blocks)

    def block(i):
        rows = blocks[i]
        vals[rows] = f.evaluate_batch(_perturbed(model, theta, raw[rows]))

    _map_blocks(block, len(blocks), f.vectorized, parts)
    return vals


def _field_mean(vals: np.ndarray) -> float:
    """The mean of field values; :class:`DegenerateEstimateError` naming
    the first -inf value, whose mean is -inf and spread NaN, and
    :class:`EstimateOverflowError` when the sum of the finite values
    overflows."""
    i = int(np.argmin(vals))
    if vals[i] == -np.inf:
        raise DegenerateEstimateError(f"field value at sample {i} is -inf", sample_index=i)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(vals.mean())
    if not np.isfinite(mean):
        raise EstimateOverflowError(f"the mean of the field values is {mean}: their sum overflows")
    return mean


def smoothed_value(f: ScalarField, model: RiskModel, theta, n: int,
                   sampler: GaussianSampler) -> Estimate:
    """Monte Carlo estimate of the smoothed value E[f(theta + w)];
    :class:`EstimateOverflowError` when its mean or standard error
    overflows."""
    theta = _check_args(f, model, sampler, n, theta)
    vals = _field_values(f, model, theta, n, sampler)
    value = _field_mean(vals)
    with np.errstate(over="ignore", invalid="ignore"):
        se = float(vals.std(ddof=1) / np.sqrt(n))
    return Estimate(value=value, std_err=check_std_err(se), n=n)


def log_mean_exp(a: np.ndarray) -> tuple[float, float]:
    """(log mean exp(a), delta-method std err of it), with max subtraction.

    The weights w = exp(a - max a) lie in (0, 1] with the largest exactly
    1, so their variance comes from one pass of sums,
    (sum w^2 - sum w * mean w) / (n - 1), clipped at 0: its rounding is
    about eps (1 + mean^2 / variance) relative (Chan, Golub & LeVeque
    1983), and equal weights give exactly 0.  sum w^2 is an einsum, not a
    BLAS dot, so its bits do not depend on the BLAS thread count.  The
    input is not modified.

    Raises :class:`ContractError` for fewer than 2 exponents,
    :class:`EstimateOverflowError` naming the first +inf exponent, and
    :class:`DegenerateEstimateError` naming the first NaN exponent or
    when every exponent is -inf.
    """
    a = np.asarray(a, dtype=float)
    return _log_mean_exp(a, np.empty(a.shape))


def _log_mean_exp(a: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """:func:`log_mean_exp` of the float array ``a``, with the weights made
    in ``w``, which may be ``a`` itself (``a`` is then overwritten)."""
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
    np.subtract(a, m, out=w)
    np.exp(w, out=w)
    s1 = w.sum()
    mean_w = s1 / a.size
    var_w = np.maximum(np.einsum("i,i", w, w) - s1 * mean_w, 0.0) / (a.size - 1)
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
    of ``expo[0]`` when ``expo`` is one row block of a batch.  NaN
    exponents pass, as ``expo > LOG_FLOAT_MAX`` is false for them; the
    NaN-ignoring maximum keeps them from hiding an overflow."""
    if np.fmax.reduce(expo, axis=None, initial=-np.inf) > LOG_FLOAT_MAX:
        i = int(np.argmax(expo > LOG_FLOAT_MAX))
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
    each row block's samples written over its draws in the output.  An
    overflowing exponent raises for the first one of the first block that
    has one, named by its batch index."""
    shift = model.reg @ theta
    quad = model.alpha * model.quad(theta)
    blocks = _row_blocks(n, model.dim)
    out, parts = _block_draws(sampler, n, blocks)

    def block(i):
        rows = blocks[i]
        samples = out[rows]
        points = _perturbed(model, theta, samples)
        expo = check_exponents(model.alpha * f.evaluate_batch(points) + quad, rows.start)
        np.add(f.grad_batch(points), shift, out=samples)
        samples *= (model.alpha * np.exp(expo))[:, None]

    _map_blocks(block, len(blocks), f.vectorized, parts)
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
