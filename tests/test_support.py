"""Checks of the test oracles in support.py against plain references."""

import numpy as np
import pytest

from riskconvex.benchmarks import ScalarBenchmark
from riskconvex.errors import ContractError
from riskconvex.sampling import GaussianSampler
from support import bump_field, riccati_gains, scalar_grid_objective


def step_by_step_grid_objective(bench, gain_grid, n_rollouts, sampler):
    """E[exp(alpha J)] over K_2 gains by the scalar recursion, one step at
    a time, on the noise draws of :func:`scalar_grid_objective`."""
    eps = sampler.normal((2, n_rollouts)) * np.sqrt(bench.sigma_u)
    out = np.empty(len(gain_grid))
    for idx, k in enumerate(gain_grid):
        s = np.zeros(n_rollouts)
        cost = np.zeros(n_rollouts)
        for t in (1, 2):
            u = k * s if t == 2 else np.zeros(n_rollouts)
            cost += 0.5 * bench.q * s**2 + 0.5 * bench.r * u**2
            s = bench.a * s + bench.b * (u + eps[t - 1])
        cost += 0.5 * bench.q * s**2
        out[idx] = np.exp(bench.alpha * cost).mean()
    return out


@pytest.mark.parametrize("bench", [ScalarBenchmark(),
                                   ScalarBenchmark(a=0.8, b=1.3, q=0.1, r=0.7,
                                                   sigma_u=0.6, alpha=1.5)],
                         ids=["default", "perturbed"])
def test_grid_oracle_matches_the_step_by_step_recursion(bench):
    grid = np.linspace(-2.0, 0.0, 41)
    fast = scalar_grid_objective(bench, grid, 10_000, GaussianSampler(5, dim=1))
    plain = step_by_step_grid_objective(bench, grid, 10_000, GaussianSampler(5, dim=1))
    np.testing.assert_allclose(fast, plain, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("horizon", [2, 4])
def test_grid_oracle_is_written_for_horizon_three(horizon):
    with pytest.raises(ContractError, match="horizon 3"):
        scalar_grid_objective(ScalarBenchmark(horizon=horizon), np.zeros(1), 10,
                              GaussianSampler(0, dim=1))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bump_field_value_matches_the_broadcast_form_bit_for_bit(dim):
    field = bump_field(np.random.default_rng(dim), dim)
    rng = np.random.default_rng(dim)  # the draws bump_field made, in order
    centers = rng.uniform(-2.0, 2.0, size=(4, dim))
    widths = rng.uniform(0.4, 1.2, size=4)
    weights = rng.uniform(-1.0, 1.0, size=4)
    pts = rng.uniform(-4.0, 4.0, size=(3000, dim))
    pts[:200] *= 20.0  # far points, where the bumps underflow to signed zeros
    d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    broadcast = (weights * np.exp(-0.5 * d2 / widths**2)).sum(axis=1)
    assert np.array_equal(field.value(pts).view(np.int64), broadcast.view(np.int64))


def test_riccati_gains_by_hand():
    # a = b = r = sigma = alpha = 1: from P_3 = q, P~ = q / (1 - q) and
    # K_2 = -P~ / (1 + P~) = -q; then P_2 = q + P~ (1 + K_2) = 2 q, and
    # K_1 (which acts on s_1 = 0) follows from P_2 the same way.
    bench = ScalarBenchmark()
    k1, k2 = riccati_gains(bench.system(), bench.alpha)
    q = bench.q
    assert k2[0, 0] == pytest.approx(-q, rel=1e-14)
    p2_tilde = 2.0 * q / (1.0 - 2.0 * q)
    assert k1[0, 0] == pytest.approx(-p2_tilde / (1.0 + p2_tilde), rel=1e-14)
    with pytest.raises(ContractError, match="infinite from step 2"):
        riccati_gains(ScalarBenchmark(q=1.5).system(), 1.0)
