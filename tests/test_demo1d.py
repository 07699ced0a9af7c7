import math
import warnings

import numpy as np
import pytest

from riskconvex.csvio import read_matrix
from riskconvex.demo1d import builtin_field, demo_curves, uniform_grid
from riskconvex.errors import CertificateError, ContractError
from riskconvex.objective import log_mean_exp
from riskconvex.sampling import GaussianSampler
from support import two_basin_reference


def test_uniform_grid_shape_and_bounds():
    g = uniform_grid(-3.0, 3.0, 7)
    assert g[0] == -3.0 and g[-1] == 3.0 and g.size == 7
    with pytest.raises(ContractError):
        uniform_grid(1.0, 0.0, 5)
    for lo, hi in ((-math.inf, 3.0), (-3.0, math.inf), (math.nan, 3.0)):
        with pytest.raises(ContractError, match="grid ends must be finite"):
            uniform_grid(lo, hi, 5)


def test_builtin_field_has_two_basins():
    f = builtin_field("two-basin")
    grid = np.linspace(-3, 3, 6001)
    vals = f.value(grid)
    assert np.max(vals) <= 1.0 + 1e-12
    # raw global minimum sits in the narrow well near +1.5
    assert abs(grid[np.argmin(vals)] - 1.5) < 0.05
    # the wide basin is a clear local minimum near -1
    wide = vals[(grid > -1.5) & (grid < -0.5)]
    assert wide.min() < 0.0


def test_builtin_field_gradient_matches_fd():
    f = builtin_field("two-basin")
    for x in (-1.3, 0.2, 1.45):
        h = 1e-6
        fd = (f.value(np.array([x + h]))[0] - f.value(np.array([x - h]))[0]) / (2 * h)
        assert f.gradient(np.array([x]))[0] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_two_basin_matches_closed_form_and_keeps_input():
    f = builtin_field("two-basin")
    theta = np.random.default_rng(0).uniform(-4.0, 4.0, 20001)
    theta[:3] = [-1.0, 1.5, 1.52]
    before = theta.copy()
    closed = (1.0 - 1.2 * np.exp(-0.5 * ((theta + 1.0) / 0.8) ** 2)
              - 2.0 * np.exp(-0.5 * ((theta - 1.5) / 0.05) ** 2))
    np.testing.assert_allclose(f.value(theta), closed, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(f.value(theta[:, None]), closed, rtol=0.0, atol=1e-14)
    assert np.array_equal(theta, before)


def _zeros_near(theta):
    """Points within 4000 ulps of theta where the reference is exactly 0."""
    pts = theta + np.arange(-4000, 4001) * np.spacing(theta)
    return pts[two_basin_reference(pts) == 0.0]


def _assert_same_bits(theta):
    f = builtin_field("two-basin")
    ref = two_basin_reference(theta)
    assert np.array_equal(f.value(theta).view(np.int64), ref.view(np.int64))
    assert np.array_equal(f.value(theta[:, None]).view(np.int64), ref.view(np.int64))


def test_two_basin_is_bit_identical_to_plain_exp_reference():
    # 1 - wide is exactly 0 near |theta + 1| = root, where the narrow well is 0.
    root = 0.8 * np.sqrt(2.0 * np.log(1.2))
    crossings = np.concatenate([_zeros_near(-1.0 + root), _zeros_near(-1.0 - root)])
    assert crossings.size >= 2
    # |theta - 1.5| in (1.85, 1.95): either side of where the clamp starts.
    band = np.linspace(0.0, 0.1, 200_001)[1:-1] + 1.85
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_same_bits(np.linspace(-8.0, 8.0, 4_000_001))
        _assert_same_bits(np.concatenate([1.5 - band, 1.5 + band]))
        _assert_same_bits(crossings)
        _assert_same_bits(np.array([np.inf, -np.inf, np.nan, 1.5, -1.0, 0.0]))


def test_unknown_field_id_rejected():
    with pytest.raises(ContractError):
        builtin_field("nope")


def test_uncertified_config_refuses_with_report():
    with pytest.raises(CertificateError) as err:
        demo_curves(1.0, 0.5, 1.0, uniform_grid(points=5), 100, GaussianSampler(0, dim=1))
    assert err.value.report is not None
    assert err.value.report.margin < 0


def test_constant_field_gives_pure_quadratic():
    grid = uniform_grid(points=21)
    curves = demo_curves(4.0, 0.5, 1.0, grid, 5000, GaussianSampler(1, dim=1),
                         field_id="constant")
    assert curves.convexified == pytest.approx(0.5 * grid**2, abs=1e-9)
    assert curves.smoothed == pytest.approx(0.5 * grid**2 + 0.5 * 0.25, abs=1e-9)
    assert curves.objective == pytest.approx(0.5 * grid**2, abs=1e-12)


def test_two_basin_curves_and_argmin(tmp_path):
    grid = uniform_grid(points=61)
    curves = demo_curves(4.0, 0.5, 1.0, grid, 200_000, GaussianSampler(2, dim=1))
    # convexified argmin sits in the robust (wide) basin, not the narrow one
    argmin = grid[int(np.argmin(curves.convexified))]
    assert -2.0 < argmin < 0.0
    # original objective's global minimum is the narrow basin near 1.5
    assert abs(grid[int(np.argmin(curves.objective))] - 1.5) < 0.11
    path = tmp_path / "demo.csv"
    curves.write_csv(path)
    header, rows = read_matrix(path, header=True)
    assert header == ["theta", "objective", "smoothed", "convexified",
                      "convexified_std_err"]
    got = np.array(rows)
    assert np.array_equal(got[:, 0], grid)
    assert np.array_equal(got[:, 3], curves.convexified)


def test_deterministic_given_seed():
    grid = uniform_grid(points=11)
    a = demo_curves(4.0, 0.5, 1.0, grid, 2000, GaussianSampler(5, dim=1))
    b = demo_curves(4.0, 0.5, 1.0, grid, 2000, GaussianSampler(5, dim=1))
    assert np.array_equal(a.convexified, b.convexified)


def per_point_curves(alpha, sigma, kappa, grid, n, sampler, field_id):
    """The demo columns one grid point at a time, each value from its own
    field call on fresh arrays: f at the point itself for the objective,
    and at the draws plus the point for the smoothed and convexified
    columns."""
    raw = builtin_field(field_id)
    draws = sigma * sampler.normal(n)
    cols = np.empty((4, grid.size))
    for i, th in enumerate(grid):
        quad = 0.5 * kappa * th**2
        vals = raw.value(draws + th)
        cols[0, i] = float(raw.value(np.array([th]))[0]) + quad
        cols[1, i] = float(vals.mean()) + quad + 0.5 * kappa * sigma**2
        lme, se = log_mean_exp(alpha * vals)
        cols[2, i] = lme / alpha + quad
        cols[3, i] = se / alpha
    return cols


@pytest.mark.parametrize("field_id", ["two-basin", "constant"])
@pytest.mark.parametrize("grid,n", [
    (uniform_grid(), 2000),                       # the default grid
    (np.linspace(-40.0, 40.0, 41), 2000),         # both wells clamped at the ends
    (np.linspace(-3.0, 3.0, 9), 40_000),          # two row blocks: both threads
], ids=["default", "clamped", "pooled"])
def test_columns_keep_the_bits_of_per_point_evaluation(field_id, grid, n):
    # The objective column is one field call over the grid, and each point
    # evaluates into reused buffers; neither moves a bit.
    curves = demo_curves(4.0, 0.5, 1.0, grid, n, GaussianSampler(7, dim=1), field_id)
    ref = per_point_curves(4.0, 0.5, 1.0, grid, n, GaussianSampler(7, dim=1), field_id)
    got = np.array([curves.objective, curves.smoothed, curves.convexified,
                    curves.convexified_std_err])
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
