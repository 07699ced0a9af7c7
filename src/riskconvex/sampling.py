"""Seeded N(0, I) streams, the one shape rule of per-step matrices, and
the one factorization of every covariance.

Every source of randomness in the package flows through a
:class:`GaussianSampler`, so a single 64-bit seed reproduces a run bit for
bit.  Each risk model holds one factored noise (:func:`_factored_noise`)
and scales raw draws by its root.  A sampler is the only stateful object in
the library: use one per thread, or derive independent children with
:meth:`GaussianSampler.split` and reduce results in a fixed order.
Per-step matrices are stacked by :func:`as_steps`; the checks take one
matrix or such a stack, and the factorization a stack, in one batched pass.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ContractError, IllConditionedError

# Condition-number ceiling beyond which a covariance is treated as singular.
COND_LIMIT = 1e12

MAX_SEED = 2**64


def as_steps(mats, shape=None, name: str = "gain") -> np.ndarray:
    """The one shape rule of per-step matrices (gains, A_t, B_t, Q_t, R_t,
    Sigma_t, structure masks): ``mats``, a (T, rows, cols) array or T
    (rows x cols) matrices, as a new (T, rows, cols) float64 array of
    finite entries.  ``shape`` defaults to the count and the first
    matrix's shape.  A scalar or None in place of the sequence, another
    count, or a matrix of another shape (a scalar among them), with ragged
    rows or with a non-finite entry, is a :class:`ContractError` naming the
    matrices by ``name`` and the failing one by its step t."""
    try:
        count = len(mats)
    except TypeError:  # None, a scalar or a 0-d array
        raise ContractError(f"{name}s must be a sequence of matrices, got {mats!r}") from None
    if shape is None:
        shape = (count,) + (_matrix_shape(mats[0], name, 1) if count else ())
    if len(shape) != 3:
        raise ContractError(f"{name}s must stack to (steps, rows, cols), got {shape}")
    steps, rows, cols = shape
    if not (isinstance(mats, np.ndarray) and mats.shape == tuple(shape)):
        if count != steps:
            raise ContractError(f"need {steps} {name} matrices, got {count}")
        for t, mat in enumerate(mats, start=1):
            if _matrix_shape(mat, name, t) != (rows, cols):
                raise ContractError(
                    f"{name} at t={t} must be {rows}x{cols}, got shape {np.shape(mat)}")
    arr = np.array(mats, dtype=float)
    if not np.isfinite(arr).all():
        raise ContractError(
            f"{_first_failure(name, ~np.isfinite(arr).all(axis=(1, 2)))[0]} must be finite")
    return arr


def _matrix_shape(mat, name: str, t: int) -> tuple:
    """The shape of ``name``'s matrix at step t, or :class:`ContractError`
    naming it when its rows are ragged (numpy's untyped ValueError)."""
    try:
        return np.shape(mat)
    except ValueError as exc:
        raise ContractError(f"{name} at t={t} is ragged: its rows differ in shape") from exc


def _first_failure(name: str, bad: np.ndarray) -> tuple[str, int]:
    """(label, index) of the first matrix flagged in ``bad``, one flag per
    matrix: ``name`` and 0 for one matrix (0-d ``bad``), and
    '<name> at t=<t>' and t - 1 for step t of a stack."""
    i = int(np.argmax(bad))
    return (f"{name} at t={i + 1}" if bad.ndim else name), i


def as_covariance(cov, dim: int | None = None) -> np.ndarray:
    """Coerce a scalar or square array of finite entries into a validated
    covariance matrix, or a (T, k, k) stack into T of them."""
    arr = np.asarray(cov, dtype=float)
    if not np.isfinite(arr).all():
        raise ContractError("covariance entries must be finite")
    if arr.ndim == 0:
        arr = arr * np.eye(dim if dim is not None else 1)
    arr = np.atleast_2d(arr)
    if arr.ndim > 3 or arr.shape[-1] != arr.shape[-2] or arr.shape[-1] == 0:
        raise ContractError(f"covariance must be square and nonempty, got shape {arr.shape}")
    if dim is not None and arr.shape[-1] != dim:
        raise ContractError(f"covariance is {arr.shape[-1]}x{arr.shape[-1]}, expected dim {dim}")
    arr_t = arr.swapaxes(-1, -2)
    # np.allclose(arr, arr_t, rtol=1e-10, atol=1e-12) on finite entries,
    # without its NaN and infinity handling.
    close = abs(arr - arr_t) <= 1e-12 + 1e-10 * abs(arr_t)
    if not close.all():
        label = _first_failure("covariance", ~close.all(axis=(-2, -1)))[0]
        raise ContractError(f"{label} must be symmetric")
    return 0.5 * arr + 0.5 * arr_t  # halves first: no overflow near the float maximum


def as_psd_weight(mat, dim: int | None = None, name: str = "weight") -> np.ndarray:
    """:func:`as_covariance`, then require positive semidefiniteness up to
    the scale-relative slack lambda_min >= -1e-10 (1 + |lambda_max|)."""
    arr = as_covariance(mat, dim)
    w = np.linalg.eigvalsh(arr)
    bad = w[..., 0] < -1e-10 * (1.0 + abs(w[..., -1]))
    if bad.any():
        label, i = _first_failure(name, bad)
        raise ContractError(f"{label} must be positive semidefinite "
                            f"(min eigenvalue {w.reshape(-1, w.shape[-1])[i, 0]:.3e})")
    return arr


class _FactoredNoise(NamedTuple):
    """Read-only (T, k, k) stacks of Sigma_t, its inverse and its root."""

    cov: np.ndarray
    inv: np.ndarray
    root: np.ndarray


def _factored_noise(cov, name: str = "covariance") -> _FactoredNoise:
    """The one factorization of every covariance: Sigma_t stacked by :func:`as_steps`
    and checked by :func:`as_covariance`, with inverses and symmetric roots from one
    ``eigh``; :class:`IllConditionedError` names the first step with lambda_max <= 0
    or lambda_min <= lambda_max / COND_LIMIT.  A factored noise is returned as is."""
    if isinstance(cov, _FactoredNoise):
        return cov
    cov = as_covariance(as_steps(cov, name=name))
    w, v = np.linalg.eigh(cov)
    bad = (w[:, -1] <= 0.0) | (w[:, 0] <= w[:, -1] / COND_LIMIT)
    if bad.any():
        label, i = _first_failure(name, bad)
        raise IllConditionedError(f"{label} is not positive definite within conditioning "
                                  f"limits (eigenvalue range [{w[i, 0]:.3e}, {w[i, -1]:.3e}])")
    vt = v.swapaxes(-1, -2)
    noise = _FactoredNoise(cov, (v / w[:, None, :]) @ vt, (v * np.sqrt(w)[:, None, :]) @ vt)
    for arr in noise:
        arr.setflags(write=False)
    return noise


class GaussianSampler:
    """Reproducible stream of N(0, I) draws of dimension ``dim``.

    Args:
        seed: 64-bit integer or a ``numpy.random.SeedSequence`` (children
            derived by :meth:`split` pass a sequence).
        dim: dimension of each draw, at least 1.
    """

    def __init__(self, seed, *, dim: int):
        if isinstance(seed, np.random.SeedSequence):
            self.seed_sequence = seed
        else:
            seed = int(seed)
            if not 0 <= seed < MAX_SEED:
                raise ContractError(f"seed must be a 64-bit unsigned integer, got {seed}")
            self.seed_sequence = np.random.SeedSequence(seed)
        if int(dim) < 1:
            raise ContractError(f"dim must be at least 1, got {dim}")
        self._rng = np.random.default_rng(self.seed_sequence)
        self._dim = int(dim)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def rng(self) -> np.random.Generator:
        """Underlying generator, for integer draws and shuffles."""
        return self._rng

    def draw(self, n: int) -> np.ndarray:
        """n standard-normal draws, shape (n, dim)."""
        return self._rng.standard_normal((int(n), self._dim))

    def normal(self, shape) -> np.ndarray:
        """Standard-normal draws of any shape."""
        return self._rng.standard_normal(shape)

    def split(self, n: int) -> list["GaussianSampler"]:
        """Derive n independent child samplers of the same dimension.

        Children depend deterministically on the seed and on how many split()
        calls came before (one per rollout batch of several row blocks),
        never on how many draws were taken.
        """
        return [GaussianSampler(child, dim=self._dim)
                for child in self.seed_sequence.spawn(int(n))]
