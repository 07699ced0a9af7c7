import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskconvex.errors import ContractError, FieldEvaluationError
from riskconvex.fields import RawField, ScalarField, clamp_bounded, constant_field, linear_field
from riskconvex.objective import isotropic_model, smoothed_value, unbiased_grad_mean
from riskconvex.solver import FeasibleSet, SolverConfig, solve

# Oracle: 2 * tanh(0.5) evaluated independently of the clamp implementation.
TWO_TANH_HALF = 0.9242343145200195  # float(2 * math.tanh(0.5))


def value_at(f, theta):
    """The field at one point, as a one-row batch."""
    return f.evaluate_batch(np.atleast_2d(theta))[0]


def grad_at(f, theta):
    return f.grad_batch(np.atleast_2d(theta))[0]


def quadratic_raw():
    return RawField(value=lambda th: float(th[0]) ** 2,
                    gradient=lambda th: np.array([2.0 * th[0]]), dim=1)


def test_clamp_at_zero_is_zero():
    f = clamp_bounded(quadratic_raw(), 10.0)
    assert value_at(f, [0.0]) == 0.0


def test_clamp_saturates_below_bound():
    # tanh < 1 exactly, but float64 rounds deep saturation to the bound
    f = clamp_bounded(quadratic_raw(), 10.0)
    v = value_at(f, [100.0])
    assert 9.99 <= v <= 10.0
    v_edge = value_at(f, [6.5])  # still strictly inside at moderate arguments
    assert 9.99 <= v_edge < 10.0


def test_clamp_scalar_value():
    f = clamp_bounded(RawField(value=lambda th: float(th[0]), dim=1), 2.0)
    assert value_at(f, [1.0]) == pytest.approx(TWO_TANH_HALF, abs=1e-15)
    assert math.isclose(TWO_TANH_HALF, 2.0 * math.tanh(0.5), rel_tol=1e-15)


def test_clamp_gradient_chain_rule():
    f = clamp_bounded(quadratic_raw(), 3.0)
    for x in (0.2, 1.0, 1.7):
        h = 1e-6
        fd = (value_at(f, [x + h]) - value_at(f, [x - h])) / (2.0 * h)
        assert grad_at(f, [x])[0] == pytest.approx(fd, rel=1e-6)


def test_clamp_gradient_underflows_at_saturation():
    f = clamp_bounded(quadratic_raw(), 1.0)
    assert grad_at(f, [50.0])[0] == 0.0


def test_clamp_rejects_nonpositive_bound_and_nonfinite_raw():
    with pytest.raises(ContractError):
        clamp_bounded(quadratic_raw(), 0.0)
    bad = RawField(value=lambda th: float("nan"), dim=1)
    with pytest.raises(FieldEvaluationError) as err:
        value_at(clamp_bounded(bad, 1.0), [3.0])
    assert err.value.theta is not None


@settings(max_examples=60, deadline=None)
@given(x=st.floats(-1e6, 1e6), mbar=st.floats(0.01, 1e3))
def test_clamp_always_within_bound(x, mbar):
    f = clamp_bounded(RawField(value=lambda th: float(th[0]), dim=1), mbar)
    assert abs(value_at(f, [x])) <= mbar


def test_scalar_field_bound_enforced_per_call():
    f = ScalarField(value=lambda th: float(th[0]), upper_bound=1.0, dim=1)
    assert value_at(f, [0.5]) == 0.5
    with pytest.raises(FieldEvaluationError):
        value_at(f, [2.0])
    with pytest.raises(FieldEvaluationError):
        f.evaluate_batch(np.array([[0.1], [5.0]]))


def test_scalar_field_allows_minus_infinity():
    f = ScalarField(value=lambda th: -math.inf, upper_bound=0.0, dim=1)
    assert value_at(f, [0.0]) == -math.inf


def test_scalar_field_requires_finite_bound_and_gradient_contract():
    with pytest.raises(ContractError):
        ScalarField(value=lambda th: 0.0, upper_bound=math.inf, dim=1)
    f = constant_field(0.0, 2)
    g = ScalarField(value=f.value, upper_bound=0.0, dim=2)
    with pytest.raises(ContractError):
        grad_at(g, [0.0, 0.0])


def test_linear_field_lipschitz_pairs():
    f = linear_field([3.0, 4.0])
    assert f.lipschitz == 5.0
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = rng.standard_normal(2), rng.standard_normal(2)
        gap = abs(value_at(f, a) - value_at(f, b))
        assert gap <= f.lipschitz * np.linalg.norm(a - b) + 1e-12


def test_vectorized_and_scalar_paths_agree():
    f = linear_field([1.0, -2.0])
    pts = np.array([[0.0, 1.0], [2.0, 0.5]])
    batch = f.evaluate_batch(pts)
    slow = ScalarField(value=lambda th: float(th @ np.array([1.0, -2.0])),
                       upper_bound=1e9, dim=2)
    assert slow.evaluate_batch(pts) == pytest.approx(batch)


def test_a_vectorized_clamp_scales_each_row_and_names_a_non_finite_row():
    raw = RawField(value=lambda th: np.sum(th * th, axis=-1), gradient=lambda th: 2.0 * th,
                   dim=2, vectorized=True)
    per_row = clamp_bounded(dataclasses.replace(raw, vectorized=False), 3.0)
    f = clamp_bounded(raw, 3.0)
    pts = np.array([[0.2, 1.0], [1.7, -1.0], [0.5, 0.0]])
    np.testing.assert_allclose(f.grad_batch(pts), per_row.grad_batch(pts), rtol=1e-14)
    pts[1, 0] = np.inf
    with pytest.raises(FieldEvaluationError) as err:
        f.evaluate_batch(pts)
    assert np.array_equal(err.value.theta, pts[1])


class TestResultShapes:
    """evaluate_batch must return (n,) and grad_batch (n, dim), on the
    vectorized and the per-row path; anything else is a ContractError
    naming the callable and both shapes, never broadcast over the batch."""

    model = isotropic_model(1.0, 1.0, 1.0, 2)

    @pytest.mark.parametrize("value,got", [
        (lambda th: 0.5, r"\(\)"),
        (lambda th: np.zeros((len(th), 1)), r"\(64, 1\)"),
    ], ids=["scalar", "column"])
    def test_a_value_of_another_shape(self, value, got):
        f = ScalarField(value=value, upper_bound=1.0, dim=2, gradient=np.zeros_like,
                        vectorized=True)
        for estimator in (smoothed_value, unbiased_grad_mean):
            with pytest.raises(ContractError,
                               match=rf"^field value must return shape \(64,\), got {got}$"):
                estimator(f, self.model, np.zeros(2), 64, self.model.sampler(1))

    @pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "per_row"])
    def test_a_gradient_of_another_shape(self, vectorized):
        # One (2,) gradient for the whole batch, or a float for each row.
        # A per-row gradient is checked row by row against (dim,).
        if vectorized:
            value, gradient = lambda th: np.zeros(len(th)), lambda th: np.ones(2)
            want = r"^field gradient must return shape \({}, 2\), got \(2,\)$"
        else:
            value, gradient = lambda th: 0.0, lambda th: 1.0
            want = r"^field gradient must return shape \(2,\) for every row, got \(\) for row 0$"
        f = ScalarField(value=value, upper_bound=1.0, dim=2, gradient=gradient,
                        vectorized=vectorized)
        with pytest.raises(ContractError, match=want.format(64)):
            unbiased_grad_mean(f, self.model, np.zeros(2), 64, self.model.sampler(1))
        with pytest.raises(ContractError, match=want.format(1)):
            solve(f, self.model, FeasibleSet.ball([0.0, 0.0], 1.0),
                  SolverConfig(iterations=2, zeta=1.0), self.model.sampler(1))


class TestRowRule:
    """A per-row field is stacked by the rollout engine's row rule
    (fields._stacked_rows): every row must have the row's shape, () for a
    value and (dim,) for a gradient, and the first row of another shape is
    a ContractError naming it."""

    model = isotropic_model(1.0, 1.0, 1.0, 2)

    def test_a_value_row_of_one_entry_is_refused(self):
        f = ScalarField(value=lambda th: np.array([0.5 * th[0]]), upper_bound=1.0, dim=2)
        with pytest.raises(ContractError, match=r"^field value must return shape \(\) for "
                                                r"every row, got \(1,\) for row 0$"):
            smoothed_value(f, self.model, np.zeros(2), 64, self.model.sampler(1))

    def test_gradient_rows_of_two_shapes_are_refused(self):
        # Rows 0-4 return (2,), row 5 and later (3,).
        calls = iter(range(10**6))
        f = ScalarField(value=lambda th: 0.0, upper_bound=1.0, dim=2,
                        gradient=lambda th: np.ones(2 if next(calls) < 5 else 3))
        with pytest.raises(ContractError, match=r"^field gradient must return shape \(2,\) for "
                                                r"every row, got \(3,\) for row 5$"):
            unbiased_grad_mean(f, self.model, np.zeros(2), 64, self.model.sampler(1))

    def test_rows_keep_the_bits_of_their_floats(self):
        # float() of each row, as an explicit loop would take it, and
        # np.stack of the gradient rows.
        value = lambda th: np.float32(th[0]) * 3 + th[1]  # noqa: E731
        gradient = lambda th: [np.float32(th[1]), th[0] / 3]  # noqa: E731
        f = ScalarField(value=value, upper_bound=1e9, dim=2, gradient=gradient)
        thetas = np.random.default_rng(0).standard_normal((9, 2))
        want = np.array([float(value(th)) for th in thetas])
        assert np.array_equal(f.evaluate_batch(thetas).view(np.int64), want.view(np.int64))
        want = np.stack([np.asarray(gradient(th), dtype=float) for th in thetas])
        assert np.array_equal(f.grad_batch(thetas).view(np.int64), want.view(np.int64))
