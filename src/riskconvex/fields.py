"""Objective fields with declared upper bounds and optional gradients.

The risk-averse transform needs objectives that are bounded above so the
exponential moment exists.  :class:`ScalarField` carries that declared
bound and asserts it at every evaluation; :func:`clamp_bounded` turns an
unbounded objective into a bounded one with a smooth soft-min clamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import math

import numpy as np

from .errors import ContractError, FieldEvaluationError


def _first_violation(vals, bound: float) -> Optional[int]:
    """Index of the first of ``vals`` (0 for a scalar) that is NaN, +inf
    or above the limit bound + 1e-9 (1 + |bound|), the one floating-point
    slack of every bound check, else None.  The one comparison
    ``vals <= limit`` is false exactly for those; -inf passes."""
    ok = np.asarray(vals <= bound + 1e-9 * (1.0 + abs(bound)))
    return None if ok.all() else int(np.argmin(ok))


@dataclass
class RawField:
    """An objective with no declared upper bound, prior to clamping.

    ``vectorized`` promises that ``value`` (and ``gradient``) accept a
    stacked argument of shape (n, dim) and return shape (n,) ((n, dim)).
    """

    value: Callable
    dim: int
    gradient: Optional[Callable] = None
    vectorized: bool = False


@dataclass
class ScalarField:
    """Objective f with a finite declared upper bound.

    The field is evaluated on batches of points, (n, dim) -> (n,), by
    :meth:`evaluate_batch` and :meth:`grad_batch`.  The bound is asserted
    on every evaluation: NaN, +inf, or any value above
    ``upper_bound + 1e-9 (1 + |upper_bound|)`` raises
    :class:`FieldEvaluationError` carrying the offending point.  -inf
    values are legal (they only shrink the exponential moment).

    Attributes:
        value: callable theta -> float, or (n, dim) -> (n,) when vectorized.
        upper_bound: finite declared bound, value(theta) <= upper_bound.
        dim: dimension of theta.
        gradient: optional callable theta -> array of shape (dim,), or
            (n, dim) -> (n, dim) when vectorized.
        lipschitz: optional Lipschitz constant of ``value``.
        vectorized: whether value/gradient accept stacked (n, dim) input.
            Vectorized callables must be functions of their arguments
            alone: a large batch calls them concurrently, from several
            threads, on disjoint row blocks.
    """

    value: Callable
    upper_bound: float
    dim: int
    gradient: Optional[Callable] = None
    lipschitz: Optional[float] = None
    vectorized: bool = False

    def __post_init__(self):
        self.upper_bound = float(self.upper_bound)
        if not math.isfinite(self.upper_bound):
            raise ContractError("upper_bound must be finite")
        if self.dim < 1:
            raise ContractError("dim must be a positive integer")
        if self.lipschitz is not None and not self.lipschitz >= 0.0:
            raise ContractError("lipschitz constant must be nonnegative")

    def evaluate_batch(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        if self.vectorized:
            vals = np.asarray(self.value(thetas), dtype=float)
        else:
            vals = np.array([float(self.value(row)) for row in thetas])
        i = _first_violation(vals, self.upper_bound)
        if i is not None:
            raise FieldEvaluationError(
                f"field value {vals[i]} violates bound {self.upper_bound} at theta={thetas[i]!r}",
                theta=thetas[i],
            )
        return vals

    def grad_batch(self, thetas: np.ndarray) -> np.ndarray:
        if self.gradient is None:
            raise ContractError("this operation requires a field with a gradient")
        thetas = np.asarray(thetas, dtype=float)
        if self.vectorized:
            return np.asarray(self.gradient(thetas), dtype=float)
        return np.stack([np.asarray(self.gradient(row), dtype=float) for row in thetas])


def clamp_bounded(raw, mbar: float) -> ScalarField:
    """Soft-min clamp: returns the field mbar * tanh(raw(theta) / mbar).

    The clamp preserves differentiability (chain rule through sech^2) and
    guarantees value < mbar everywhere; at saturation the gradient
    underflows to zero, which is accepted.  A non-finite raw value at an
    evaluated point raises :class:`FieldEvaluationError` carrying theta.

    Args:
        raw: a :class:`RawField` or :class:`ScalarField` supplying value,
            dim, and optionally gradient.
        mbar: positive clamp level.
    """
    mbar = float(mbar)
    if not mbar > 0.0:
        raise ContractError("mbar must be positive")
    raw_value = raw.value
    raw_grad = raw.gradient
    vectorized = raw.vectorized

    def check(vals, theta):
        bad = ~np.isfinite(vals)
        if np.any(bad):
            if np.ndim(vals) == 0:
                point = theta
            else:
                point = np.asarray(theta)[int(np.argmax(bad))]
            raise FieldEvaluationError(
                f"raw field value is not finite at theta={point!r}", theta=point
            )

    def value(theta):
        v = np.asarray(raw_value(theta), dtype=float)
        check(v, theta)
        return mbar * np.tanh(v / mbar)

    grad = None
    if raw_grad is not None:

        def grad(theta):
            v = np.asarray(raw_value(theta), dtype=float)
            check(v, theta)
            g = np.asarray(raw_grad(theta), dtype=float)
            with np.errstate(over="ignore"):  # saturation underflows to 0 by design
                sech2 = 1.0 / np.cosh(v / mbar) ** 2
            if g.ndim == 2 and np.ndim(v) == 1:
                return sech2[:, None] * g
            return sech2 * g

    lipschitz = getattr(raw, "lipschitz", None)  # |d tanh| <= 1 preserves L
    return ScalarField(
        value=value,
        upper_bound=mbar,
        dim=raw.dim,
        gradient=grad,
        lipschitz=lipschitz,
        vectorized=vectorized,
    )


def linear_field(a, upper_bound: float = 1e9) -> ScalarField:
    """The field theta -> a . theta with Lipschitz constant ||a||.

    Linear fields are unbounded; the declared bound only promises that
    evaluations stay below it on the region actually sampled.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))

    def value(theta):
        return np.asarray(theta, dtype=float) @ a

    def gradient(theta):
        return np.broadcast_to(a, np.shape(theta)).copy()

    return ScalarField(
        value=value,
        upper_bound=float(upper_bound),
        dim=a.size,
        gradient=gradient,
        lipschitz=float(np.linalg.norm(a)),
        vectorized=True,
    )


def constant_field(c: float, dim: int) -> ScalarField:
    """The field theta -> c, with zero gradient."""
    c = float(c)

    def value(theta):
        return np.full(np.shape(theta)[:-1], c)

    def gradient(theta):
        theta = np.asarray(theta, dtype=float)
        return np.zeros_like(theta)

    return ScalarField(value=value, upper_bound=c, dim=dim, gradient=gradient,
                       lipschitz=0.0, vectorized=True)
