"""Seeded N(0, I) streams, and the one factorization of every covariance.

Every source of randomness in the package flows through a
:class:`GaussianSampler`, so a single 64-bit seed reproduces a run bit for
bit.  The risk models own each covariance and scale raw draws by its
root from :func:`spd_factor`.  A sampler is the only stateful object in
the library: use one per thread, or derive independent children with
:meth:`GaussianSampler.split` and reduce results in a fixed order.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, IllConditionedError

# Condition-number ceiling beyond which a covariance is treated as singular.
COND_LIMIT = 1e12

MAX_SEED = 2**64


def as_covariance(cov, dim: int | None = None) -> np.ndarray:
    """Coerce a scalar or square array of finite entries into a validated
    covariance matrix."""
    arr = np.asarray(cov, dtype=float)
    if not np.isfinite(arr).all():
        raise ContractError("covariance entries must be finite")
    if arr.ndim == 0:
        arr = arr * np.eye(dim if dim is not None else 1)
    arr = np.atleast_2d(arr)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ContractError(f"covariance must be square and nonempty, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ContractError(f"covariance is {arr.shape[0]}x{arr.shape[0]}, expected dim {dim}")
    # np.allclose(arr, arr.T, rtol=1e-10, atol=1e-12) on finite entries,
    # without its NaN and infinity handling.
    if not (abs(arr - arr.T) <= 1e-12 + 1e-10 * abs(arr.T)).all():
        raise ContractError("covariance must be symmetric")
    return 0.5 * arr + 0.5 * arr.T  # halves first: no overflow near the float maximum


def as_psd_weight(mat, dim: int | None = None, name: str = "weight") -> np.ndarray:
    """:func:`as_covariance`, then require positive semidefiniteness up to
    the scale-relative slack lambda_min >= -1e-10 (1 + |lambda_max|)."""
    arr = as_covariance(mat, dim)
    w = np.linalg.eigvalsh(arr)
    if w[0] < -1e-10 * (1.0 + abs(w[-1])):
        raise ContractError(f"{name} must be positive semidefinite (min eigenvalue {w[0]:.3e})")
    return arr


def spd_factor(mat: np.ndarray, name: str = "covariance") -> tuple[np.ndarray, np.ndarray]:
    """(inverse, symmetric square root) of a symmetric positive-definite
    matrix from one eigendecomposition; :class:`IllConditionedError` when
    lambda_max <= 0 or lambda_min <= lambda_max / COND_LIMIT."""
    w, v = np.linalg.eigh(mat)
    if w[-1] <= 0.0 or w[0] <= w[-1] / COND_LIMIT:
        raise IllConditionedError(
            f"{name} is not positive definite within conditioning limits "
            f"(eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}])"
        )
    return (v / w) @ v.T, (v * np.sqrt(w)) @ v.T


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

        Children depend deterministically on the seed and on how many
        times split() has been called, never on how many draws were taken.
        """
        return [GaussianSampler(child, dim=self._dim)
                for child in self.seed_sequence.spawn(int(n))]
