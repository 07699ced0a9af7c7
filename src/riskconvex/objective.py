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
order, and perturbs and evaluates the field one block at a time, so the
field's temporaries stay in cache; each block writes into one per-sample
array that is reduced once.  The blocks of a vectorized field run on one
helper thread, when a second CPU is usable, while the calling thread
draws, each block as soon as its draws have landed, and then on both
threads, each taking the next block index (:func:`_map_blocks`), so the
results keep their bits at any thread count.  On a batch of several
blocks, an error is the first one of the first block that fails, raised
once the whole batch is drawn; an overflowing exponent is named by its
batch index.

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
from .sampling import GaussianSampler, as_covariance, as_psd_weight, spd_factor

LOG_FLOAT_MAX = float(np.log(np.finfo(np.float64).max))

# Entries of one row block: a (rows x width) float64 array of 128 KiB, so a
# block's temporaries stay in cache instead of streaming through memory,
# even with one block in flight on each of two threads.  The width is the
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


# Helper threads a batch may use besides the calling thread.  One helper
# (two usable CPUs) is the configuration whose wall time and peak memory
# were measured; each further helper would add its own malloc arena and
# one more block in flight, so more usable CPUs do not add helpers.
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


def _drawn(reach) -> None:
    """The ``ready`` of a block whose batch has been drawn: nothing to wait for."""


class _DrawStopped(Exception):
    """A batch's draw stopped before it reached the noise a block waits for."""


def _map_blocks(work, count: int, parallel: bool = True, draw=None) -> list:
    """[work(i, ready) for i in range(count)] over the ``count`` blocks of a
    batch, run on the calling thread and the pool's helpers while or after
    ``draw`` draws the batch.

    ``draw``, when given, draws the batch's noise in stream order on the
    calling thread as it is iterated, and yields how far it has got (rows
    of a static batch, steps of a rollout batch) as each part lands.
    ``work`` calls ``ready(reach)`` before it reads noise up to ``reach``;
    ``ready`` returns once the draw has got that far.  The plain loop
    (``parallel`` off, as row loops of non-vectorized callables hold the
    GIL; one block and nothing to draw; a pool without helpers) draws the
    whole batch first and then runs the blocks.  Otherwise each helper
    task takes the next index off one queue, filled at the start, until
    none is left, while the calling thread draws, one progress counter (a
    ``threading.Condition``) telling the blocks what has landed; then the
    calling thread takes indices too.  Helpers run under the caller's
    numpy error state.  The draw is whole before the call raises an error
    of its own blocks, and an error of the draw wins, as it would come
    first in the plain loop.  If blocks fail, no block after the lowest
    failed one starts, and that block's error is raised: the plain loop's
    error.  The call returns once its started tasks have finished, also
    when interrupted (a block waiting for the draw wakes up when the draw
    stops), and then drops ``work``: a task that starts late (queued by a
    refused thread start) finds no index left and keeps no array alive.
    An unstarted task is cancelled, so a call never waits for a thread
    busy elsewhere (a nested call) or gone (a forked child)."""
    helpers = 0
    if parallel and (count > 1 or draw is not None):
        executor, helpers = _pool()
        helpers = min(helpers, count if draw is not None else count - 1)
    if helpers < 1:
        if draw is not None:
            for _ in draw:
                pass
        if count == 1:  # the common small batch: no comprehension frame
            return [work(0, _drawn)]
        return [work(i, _drawn) for i in range(count)]
    import threading
    from collections import deque
    from concurrent.futures import wait

    results, errors = [None] * count, {}
    # count, then each failed block: none from the lowest on starts; -1 once
    # the call raises.  Appends lose no failure when two blocks fail at
    # once, as a min-and-store could.
    stops = [count]
    todo = deque(range(count))  # its pops are thread-safe
    errstate = np.geterr()
    reached = [0]  # how far the draw has got; inf once it is whole
    progress = threading.Condition()

    def ready(reach) -> None:
        """Wait until the draw has got as far as ``reach``, or stopped short of it."""
        if reached[0] >= reach:
            return
        with progress:
            while reached[0] < reach and min(stops) >= 0:
                progress.wait()
        if reached[0] < reach:
            raise _DrawStopped

    def advance(reach) -> None:
        with progress:
            reached[0] = reach
            progress.notify_all()

    def run(catch) -> None:
        """Run the next blocks under the caller's error state; keep errors of ``catch``."""
        with np.errstate(**errstate):
            while True:
                try:
                    i = todo.popleft()
                except IndexError:
                    return
                if i >= min(stops):
                    return
                try:
                    results[i] = work(i, ready)
                except catch as exc:
                    errors[i] = exc
                    stops.append(i)

    tasks = []
    try:
        try:
            for _ in range(helpers):  # a helper's error is re-raised on the calling thread
                tasks.append(executor.submit(run, BaseException))
        except RuntimeError:  # no thread to be had: the caller runs the blocks
            pass
        for reach in draw or ():
            advance(reach)
        advance(np.inf)
        run(Exception)  # an interrupt is not a block error: it leaves at once
    except BaseException:
        stops.append(-1)  # the call raises: helpers start no further block
        advance(reached[0])  # and a block waiting for the draw wakes up
        raise
    finally:
        started = [task for task in tasks if not task.cancel()]
        interrupt = None
        while True:
            try:
                wait(started)
                break
            except BaseException as exc:  # KeyboardInterrupt: wait on, then raise it
                interrupt = exc
        del work  # a task that starts late must not keep the batch's arrays alive
        if interrupt is not None:
            raise interrupt
    if errors:
        raise errors[min(errors)]
    return results


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
    noise_invs = np.asarray(noise_invs, dtype=float)
    d = areg - noise_invs
    margins = np.linalg.eigvalsh(0.5 * (d + d.transpose(0, 2, 1)))[:, 0]
    tols = psd_tolerance(np.linalg.eigvalsh(areg)[:, -1], np.linalg.eigvalsh(noise_invs)[:, -1])
    return ConvexityCertificate(margins=margins, tols=tols)


def check_convexity_certificate(model: RiskModel) -> ConvexityCertificate:
    """Check the convexity condition alpha R >= inv(Sigma), the one-block
    case of :func:`convexity_certificate`; ``margin`` is the smallest
    eigenvalue of alpha R - inv(Sigma)."""
    return convexity_certificate(model.alpha, model.reg[None], model.sigma_inv[None])


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
    stream order, yielding the rows drawn so far (numpy fills a draw in
    stream order, so the bits are those of one draw of n rows).  A batch
    of one block is drawn here, with nothing left to yield."""
    if len(blocks) == 1:
        return sampler.draw(n), None
    draws = np.empty((n, sampler.dim))

    def parts():
        for rows in blocks:
            draws[rows] = sampler.draw(rows.stop - rows.start)
            yield rows.stop

    return draws, parts()


def _field_values(f: ScalarField, model: RiskModel, theta, n: int,
                  sampler: GaussianSampler) -> np.ndarray:
    """f at n points theta + w, (n,): drawn, perturbed and evaluated one
    row block at a time, a block as soon as its draws have landed."""
    vals = np.empty(n)
    blocks = _row_blocks(n, model.dim)
    raw, parts = _block_draws(sampler, n, blocks)

    def block(i, ready):
        rows = blocks[i]
        ready(rows.stop)
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

    def block(i, ready):
        rows = blocks[i]
        ready(rows.stop)
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
