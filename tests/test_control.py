import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from riskconvex.control import (
    ControlCost,
    ControlRiskModel,
    Dynamics,
    FrozenNoise,
    Policy,
    check_control_certificate,
    policy_gradient_batch,
    policy_gradient_derivative_free,
    policy_gradient_model_based,
    rollout,
    train_policy,
    write_rollout_csv,
    _RolloutEngine,
    _reduced,
    _row_quads,
    _step_chunks,
)
from riskconvex import benchmarks, control
from riskconvex.benchmarks import ScalarBenchmark, linear_control_problem
from riskconvex.cli import main
from riskconvex.datasets import Dataset
from riskconvex.errors import (
    ContractError,
    DivergenceError,
    EstimateOverflowError,
    FieldEvaluationError,
    IllConditionedError,
)
from riskconvex.fields import _lifted
from riskconvex.noisynet import NoisyNetConfig, build_control_problem
from riskconvex.objective import LOG_FLOAT_MAX, _block_rows, _row_blocks
from riskconvex.sampling import GaussianSampler, as_steps
from riskconvex.solver import FeasibleSet, SolverConfig, pilot_zeta, projected_sgd, step_size
from riskconvex.synthesis import LinearSystem
from support import (
    Iterates,
    _forward_batch,
    _full_batch,
    _full_batch_moments,
    _gradient_samples,
    _per_block_batch,
    _reference_pass,
    per_sample_zeta,
    recompute_cost,
    smooth_control_problem,
)


def scalar_integrator(horizon=3):
    return Dynamics(step=lambda s, y, xi, t: s + y, state_dim=1, control_dim=1,
                    disturbance_dim=0, horizon=horizon,
                    jacobian_state=lambda s, y, xi, t: np.eye(1),
                    jacobian_control=lambda s, y, xi, t: np.eye(1))


def zero_cost(n_steps, bound=0.0, weights=None):
    ws = weights if weights is not None else [np.eye(1)] * n_steps
    return ControlCost(state_cost=lambda s, t: 0.0, control_weights=ws, bound=bound,
                       state_cost_grad=lambda s, t: np.zeros(1))


class TestCertificate:
    def test_boundary_holds(self):
        cost = zero_cost(2)
        model = ControlRiskModel(1.0, [np.eye(1)] * 2)
        cert = check_control_certificate(cost, model)
        assert cert.holds and np.allclose(cert.margins, 0.0, atol=1e-12)

    def test_small_noise_fails(self):
        cost = zero_cost(2)
        model = ControlRiskModel(1.0, [0.5 * np.eye(1)] * 2)
        cert = check_control_certificate(cost, model)
        assert not cert.holds
        assert cert.margins == pytest.approx([-1.0, -1.0], abs=1e-9)

    def test_doubled_risk_passes_with_margin(self):
        cost = zero_cost(2)
        model = ControlRiskModel(2.0, [np.eye(1)] * 2)
        cert = check_control_certificate(cost, model)
        assert cert.holds
        assert cert.margins == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_dimension_mismatch(self):
        cost = zero_cost(2)
        model = ControlRiskModel(1.0, [np.eye(2)] * 2)
        with pytest.raises(ContractError):
            check_control_certificate(cost, model)


class TestRollout:
    def test_zero_gains_mean_mode(self):
        dyn = scalar_integrator()
        cost = zero_cost(2)
        pol = Policy(gains=[np.zeros((1, 1))] * 2, features=lambda s, t: s)
        model = ControlRiskModel(1.0, [np.eye(1)] * 2)
        r = rollout(dyn, cost, pol, model, GaussianSampler(0, dim=1), mode="mean")
        assert r.cost == 0.0 and np.all(r.controls == 0.0)
        assert np.all(r.states == 0.0)

    def test_unknown_mode_is_a_contract_error(self):
        dyn, cost, pol, model = ScalarBenchmark().problem()
        with pytest.raises(ContractError, match="unknown rollout mode 'bogus'"):
            rollout(dyn, cost, pol, model, GaussianSampler(0, dim=1), mode="bogus")

    def test_hand_simulated_recursion(self):
        # s' = s + y, K=1, phi(s) = s + 1: u = (1, 2), s = (0, 1, 3), J = 2.5
        dyn = scalar_integrator()
        cost = zero_cost(2)
        pol = Policy(gains=[np.eye(1)] * 2, features=lambda s, t: s + 1.0)
        model = ControlRiskModel(1.0, [np.eye(1)] * 2)
        r = rollout(dyn, cost, pol, model, GaussianSampler(0, dim=1), mode="mean")
        assert r.states.ravel() == pytest.approx([0.0, 1.0, 3.0])
        assert r.controls.ravel() == pytest.approx([1.0, 2.0])
        assert r.cost == pytest.approx(2.5)

    def test_cost_bookkeeping_bit_exact(self):
        rng = np.random.default_rng(0)
        dyn, cost, pol, model = smooth_control_problem(rng, 2, 2, 5)
        r = rollout(dyn, cost, pol, model, GaussianSampler(3, dim=1))
        assert r.total_cost() == r.cost
        assert recompute_cost(r, dyn, cost, pol, model) == r.cost
        assert r.exp_cost == float(np.exp(model.alpha * r.cost))

    def test_divergence_error_carries_step(self):
        dyn = Dynamics(step=lambda s, y, xi, t: s + np.inf, state_dim=1, control_dim=1,
                       disturbance_dim=0, horizon=3)
        cost = zero_cost(2)
        pol = Policy(gains=[np.ones((1, 1))] * 2, features=lambda s, t: s + 1.0)
        model = ControlRiskModel(1.0, [np.eye(1)] * 2)
        with pytest.raises(DivergenceError) as err:
            rollout(dyn, cost, pol, model, GaussianSampler(0, dim=1))
        assert err.value.step == 2

    def test_frozen_noise_replays_exactly(self):
        rng = np.random.default_rng(1)
        dyn, cost, pol, model = smooth_control_problem(rng, 2, 1, 4)
        r1 = rollout(dyn, cost, pol, model, GaussianSampler(5, dim=1))
        r2 = rollout(dyn, cost, pol, model, GaussianSampler(99, dim=1), frozen=r1.frozen())
        assert np.array_equal(r1.states, r2.states)
        assert r1.cost == r2.cost

    def test_frozen_noise_stays_frozen(self):
        # The engine writes the realized controls over the noise it is
        # given, so a replay must run on a copy of frozen.eps.
        rng = np.random.default_rng(4)
        dyn, cost, pol, model = smooth_control_problem(rng, 3, 2, 5)
        frozen = rollout(dyn, cost, pol, model, GaussianSampler(6, dim=1)).frozen()
        eps = frozen.eps.tobytes()
        for replay in (rollout, policy_gradient_model_based, policy_gradient_derivative_free):
            first, second = (replay(dyn, cost, pol, model, GaussianSampler(0, dim=1),
                                    frozen=frozen) for _ in range(2))
            if replay is not rollout:
                assert np.array_equal(first.per_step, second.per_step)
                assert np.array_equal(first.exp_gradient, second.exp_gradient)
                first, second = first.rollout, second.rollout
            for name in ("states", "controls", "realized", "stage_costs"):
                assert np.array_equal(getattr(first, name), getattr(second, name))
            assert first.cost == second.cost
            assert frozen.eps.tobytes() == eps

    def test_frozen_replay_rejects_misshapen_noise(self):
        # Two states, two controls and N - 1 = 3 steps: a transposed eps
        # (2, 3) and a flat one (6,) hold the 6 entries of (3, 2), so a
        # reshape would replay either one silently.
        dyn, cost, pol, model = linear_problem()
        frozen = rollout(dyn, cost, pol, model, GaussianSampler(3, dim=1)).frozen()
        replay = rollout(dyn, cost, pol, model, GaussianSampler(0, dim=1), frozen=frozen)
        assert replay.cost == rollout(dyn, cost, pol, model, GaussianSampler(3, dim=1)).cost
        for name, bad, shape in (("eps", frozen.eps.T, r"\(3, 2\), got \(2, 3\)"),
                                 ("eps", frozen.eps.ravel(), r"\(3, 2\), got \(6,\)"),
                                 ("s1", np.zeros(3), r"\(2,\), got \(3,\)"),
                                 ("xi", np.zeros((3, 1)), r"\(3, 0\), got \(3, 1\)")):
            bent = dataclasses.replace(frozen, **{name: bad})
            for replay in (rollout, policy_gradient_derivative_free):
                with pytest.raises(ContractError, match=f"noise {name} must have shape {shape}"):
                    replay(dyn, cost, pol, model, GaussianSampler(0, dim=1), frozen=bent)
        for mode in ("noisy", "mean"):  # a given s1 is checked the same way
            with pytest.raises(ContractError, match=r"^s1 must have shape \(2,\), got \(3,\)"):
                rollout(dyn, cost, pol, model, GaussianSampler(0, dim=1), mode, s1=np.zeros(3))

    def test_s1_given_with_frozen_noise_is_rejected(self):
        # The frozen realization holds its own s1; a second one used to be
        # validated and then dropped.
        dyn, cost, pol, model = ScalarBenchmark().problem()
        frozen = rollout(dyn, cost, pol, model, GaussianSampler(2, dim=1)).frozen()
        for mode in ("noisy", "mean"):
            with pytest.raises(ContractError, match="s1 or frozen noise, not both"):
                rollout(dyn, cost, pol, model, GaussianSampler(0, dim=1), mode,
                        s1=np.array([5.0]), frozen=frozen)

    def test_csv_export_round_trips_bit_exactly(self, tmp_path):
        rng = np.random.default_rng(2)
        dyn, cost, pol, model = smooth_control_problem(rng, 2, 1, 3)
        r = rollout(dyn, cost, pol, model, GaussianSampler(1, dim=1))
        path = tmp_path / "rollout.csv"
        write_rollout_csv(path, r)
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        assert header == ["t", "s_0", "s_1", "u_0", "y_0", "stage_cost"]
        assert len(rows) == 3
        assert rows[-1][3] == "" and rows[-1][4] == ""  # terminal row has no controls
        for t, cells in enumerate(rows):
            assert int(cells[0]) == t + 1
            assert [float(c) for c in cells[1:3]] == list(r.states[t])
            if t < 2:
                assert float(cells[3]) == r.controls[t, 0]
                assert float(cells[4]) == r.realized[t, 0]
            assert float(cells[5]) == r.stage_costs[t]


class TestModelBasedGradient:
    def test_zero_cost_gives_zero_gradient(self):
        dyn = scalar_integrator()
        cost = zero_cost(2, weights=[np.zeros((1, 1))] * 2)
        pol = Policy(gains=[np.eye(1)] * 2, features=lambda s, t: s + 1.0,
                     features_jacobian=lambda s, t: np.eye(1))
        model = ControlRiskModel(1.0, [np.eye(1)] * 2)
        g = policy_gradient_model_based(dyn, cost, pol, model, GaussianSampler(0, dim=1))
        assert np.all(g.per_step == 0.0)

    def test_one_step_chain_hand_value(self):
        # J = K1 at mean mode with phi = 1, terminal cost l(s) = s:
        # d/dK exp(alpha J) = alpha exp(alpha K); at alpha = 1, K = 0 -> 1
        dyn = scalar_integrator(horizon=2)
        cost = ControlCost(state_cost=lambda s, t: float(s[0]) if t == 2 else 0.0,
                           control_weights=[np.zeros((1, 1))], bound=1e9,
                           state_cost_grad=lambda s, t: np.ones(1) if t == 2 else np.zeros(1))
        pol = Policy(gains=[np.zeros((1, 1))], features=lambda s, t: np.ones(1),
                     features_jacobian=lambda s, t: np.zeros((1, 1)))
        model = ControlRiskModel(1.0, [np.eye(1)])
        g = policy_gradient_model_based(dyn, cost, pol, model,
                                        GaussianSampler(0, dim=1), mode="mean")
        assert g.exp_gradient.ravel() == pytest.approx([1.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_finite_differences_under_frozen_noise(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        horizon = int(rng.integers(2, 7))
        dyn, cost, pol, model = smooth_control_problem(rng, n, m, horizon)
        sampler = GaussianSampler(seed, dim=1)
        g = policy_gradient_model_based(dyn, cost, pol, model, sampler)
        frozen = g.rollout.frozen()
        fd = np.zeros_like(g.exp_gradient)
        h = 3e-6
        for t in range(horizon - 1):
            for i in range(m):
                for j in range(pol.feature_dim):
                    up = [k.copy() for k in pol.gains]
                    dn = [k.copy() for k in pol.gains]
                    up[t][i, j] += h
                    dn[t][i, j] -= h
                    hi = rollout(dyn, cost, pol.with_gains(up), model, sampler, frozen=frozen)
                    lo = rollout(dyn, cost, pol.with_gains(dn), model, sampler, frozen=frozen)
                    fd[t, i, j] = (hi.exp_cost - lo.exp_cost) / (2.0 * h)
        rel = np.linalg.norm(g.exp_gradient - fd) / np.linalg.norm(fd)
        assert rel <= 1e-5

    def test_requires_derivatives(self):
        dyn = scalar_integrator()
        cost = zero_cost(2)
        pol = Policy(gains=[np.eye(1)] * 2, features=lambda s, t: s)
        model = ControlRiskModel(1.0, [np.eye(1)] * 2)
        with pytest.raises(ContractError):
            policy_gradient_model_based(dyn, cost, pol, model, GaussianSampler(0, dim=1))


class TestDerivativeFreeGradient:
    def test_vanishes_without_noise_or_penalty(self):
        dyn = scalar_integrator()
        cost = zero_cost(2, weights=[np.zeros((1, 1))] * 2)
        pol = Policy(gains=[np.eye(1)] * 2, features=lambda s, t: s + 1.0)
        model = ControlRiskModel(1.0, [np.eye(1)] * 2)
        g = policy_gradient_derivative_free(dyn, cost, pol, model,
                                            GaussianSampler(0, dim=1), mode="mean")
        assert np.all(g.per_step == 0.0)

    def test_score_formula_hand_value(self):
        # (Sigma^-1 (y-u) + alpha R u) phi' = (0.5 + 2) * 1 = 2.5
        dyn = scalar_integrator(horizon=2)
        cost = zero_cost(1, weights=[2.0 * np.eye(1)])
        pol = Policy(gains=[np.eye(1)], features=lambda s, t: np.ones(1))
        model = ControlRiskModel(1.0, [np.eye(1)])
        frozen = FrozenNoise(s1=np.zeros(1), eps=np.array([[0.5]]), xi=np.zeros((1, 0)))
        g = policy_gradient_derivative_free(dyn, cost, pol, model,
                                            GaussianSampler(0, dim=1), frozen=frozen)
        assert g.per_step.ravel() == pytest.approx([2.5])

    def test_agrees_with_model_based_in_expectation(self):
        rng = np.random.default_rng(11)
        dyn, cost, pol, model = smooth_control_problem(rng, 2, 2, 4)
        mb = policy_gradient_batch(dyn, cost, pol, model, GaussianSampler(21, dim=1),
                                   60_000, "model_based")
        df = policy_gradient_batch(dyn, cost, pol, model, GaussianSampler(22, dim=1),
                                   60_000, "derivative_free")
        gap = np.abs(mb.mean - df.mean) - 3.0 * (mb.std_err + df.std_err)
        assert np.all(gap <= 1e-12)


class TestBatchPaths:
    def test_vectorized_matches_python_loop(self):
        fast_problem = smooth_control_problem(np.random.default_rng(13), 2, 2, 4)
        slow_problem = smooth_control_problem(np.random.default_rng(13), 2, 2, 4)
        sdyn, scost, spol, _ = slow_problem
        sdyn.vectorized = False
        scost.vectorized = False
        spol.vectorized = False
        for method in ("derivative_free", "model_based"):
            fast = policy_gradient_batch(*fast_problem, GaussianSampler(7, dim=1),
                                         4000, method)
            slow = policy_gradient_batch(*slow_problem, GaussianSampler(7, dim=1),
                                         4000, method)
            # Same seed, same draws: the row-lifted callables differ from the
            # batched ones only by the rounding of their own BLAS calls.
            np.testing.assert_allclose(slow.mean, fast.mean, rtol=1e-10)
            np.testing.assert_allclose(slow.std_err, fast.std_err, rtol=1e-10)
            assert slow.exp_cost_mean == pytest.approx(fast.exp_cost_mean, rel=1e-10)

    @pytest.mark.parametrize("method", ["model_based", "derivative_free"])
    def test_reduced_mean_matches_mean_of_samples(self, method):
        # train_policy's per-step reduction against the per-sample tensor
        dyn, cost, pol, model = smooth_control_problem(np.random.default_rng(5), 3, 2, 5)
        engine = _RolloutEngine(dyn, cost, pol, model)
        K = np.stack(pol.gains)
        samples, w = _gradient_samples(dyn, cost, pol, model, GaussianSampler(3, dim=1), 64,
                                       method)
        mean, _, w_mean = engine.moments(K, GaussianSampler(3, dim=1), 64, method)
        assert np.array_equal(w, w_mean)
        np.testing.assert_allclose(mean, samples.mean(axis=0), rtol=1e-12, atol=1e-15)

    def test_midpoint_convexity_in_gains_with_common_noise(self):
        rng = np.random.default_rng(17)
        dyn, cost, pol, model = smooth_control_problem(rng, 2, 1, 4, alpha=0.5)
        # certified: alpha R = 0.5*0.4 I = 0.2 I >= inv(0.5 I) = 2 I fails;
        # rebuild with noise large enough for the certificate
        model = ControlRiskModel(alpha=0.5,
                                 control_noise=[6.0 * np.eye(1)] * 3)
        failures = 0
        for trial in range(60):
            g1 = [0.3 * rng.standard_normal((1, 2)) for _ in range(3)]
            g2 = [0.3 * rng.standard_normal((1, 2)) for _ in range(3)]
            mid = [0.5 * (a + b) for a, b in zip(g1, g2)]
            exp_costs = []
            for gains in (mid, g1, g2):
                sampler = GaussianSampler(1000 + trial, dim=1)
                _, costs = _exp_costs(dyn, cost, pol.with_gains(gains), model, sampler, 3000)
                exp_costs.append(costs)
            d = exp_costs[0] - 0.5 * exp_costs[1] - 0.5 * exp_costs[2]
            if d.mean() > 3.0 * d.std(ddof=1) / np.sqrt(d.size) + 1e-12:
                failures += 1
        assert failures == 0


def noisy_net_problem(rng):
    cfg = NoisyNetConfig(widths=[1, 4, 3, 1], alpha=3.0, noise_scales=[0.15] * 3,
                         penalty_weights=[0.05] * 3, loss_bound=0.5)
    x = rng.uniform(-1.0, 1.0, 12)
    dyn, cost, pol, model = build_control_problem(cfg, Dataset(X=x[:, None], y=np.sin(x)))
    w = cfg.internal_width
    pol = pol.with_gains([0.7 * rng.standard_normal((w, w)) for _ in range(cfg.n_layers)])
    return dyn, cost, pol, model


class TestSameNoiseReplay:
    @pytest.mark.parametrize("build", [
        lambda rng: smooth_control_problem(rng, 3, 2, 5),
        noisy_net_problem,
    ], ids=["smooth", "noisy_net"])
    def test_batched_adjoint_matches_per_row_adjoint(self, build):
        dyn, cost, pol, model = build(np.random.default_rng(23))
        n, seed = 24, 31
        S, U, Y, XI, _, _ = _forward_batch(dyn, cost, pol, model,
                                           GaussianSampler(seed, dim=1), n)
        samples, costs = _gradient_samples(dyn, cost, pol, model,
                                           GaussianSampler(seed, dim=1), n, "model_based")
        assert np.any(samples != 0.0)
        for i in range(n):
            frozen = FrozenNoise(S[0][i], Y[:, i] - U[:, i], XI[:, i])
            g = policy_gradient_model_based(dyn, cost, pol, model,
                                            GaussianSampler(0, dim=1), frozen=frozen)
            np.testing.assert_allclose(g.exp_gradient, samples[i], rtol=1e-10)
            assert g.exp_cost == pytest.approx(costs[i], rel=1e-10)


def linear_problem():
    # Two states and controls, s_1 = 0: the t = 1 gradient entries are exactly 0.
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    system = LinearSystem(A=[0.7 * rot] * 3, B=[0.5 * rot.T] * 3, Q=[0.1 * np.eye(2)] * 4,
                          R=[2.0 * np.eye(2)] * 3, sigma=[np.eye(2)] * 3, horizon=4)
    gains = [0.1 * np.random.default_rng(2).standard_normal((2, 2)) for _ in range(3)]
    return linear_control_problem(system, 0.5, gains=gains)


def row_lifted_smooth_problem(rng):
    dyn, cost, pol, model = smooth_control_problem(rng, 3, 2, 5)
    dyn.vectorized = cost.vectorized = pol.vectorized = False
    return dyn, cost, pol, model


def test_linear_problem_rejects_gains_of_the_wrong_shape():
    system = LinearSystem(A=[np.eye(2)] * 3, B=[np.eye(2)] * 3, Q=[np.eye(2)] * 4,
                          R=[np.eye(2)] * 3, sigma=[np.eye(2)] * 3, horizon=4)
    gains = [np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((2, 2))]
    with pytest.raises(ContractError, match=r"gain at t=2 must be 2x2, got shape \(2, 1\)"):
        linear_control_problem(system, 0.5, gains=gains)


class TestGainsLayout:
    """Every gain set is one stacked (N-1, m, q) float64 array (as_steps)."""

    def test_policy_stacks_a_list_into_one_array(self):
        pol = Policy(gains=[[[1, 2, 3]], [[4, 5, 6]]], features=lambda s, t: s)
        assert type(pol.gains) is np.ndarray and pol.gains.dtype == np.float64
        assert pol.gains.shape == (pol.n_steps, pol.control_dim, pol.feature_dim) == (2, 1, 3)
        assert np.array_equal(pol.gains.ravel(), np.arange(1.0, 7.0))

    def test_policy_copies_its_input(self):
        stacked = np.zeros((2, 1, 1))
        listed = [np.zeros((1, 1)), np.zeros((1, 1))]
        from_array = Policy(gains=stacked, features=lambda s, t: s)
        from_list = Policy(gains=listed, features=lambda s, t: s)
        stacked[:] = 1.0
        listed[1][0, 0] = 1.0
        assert not from_array.gains.any() and not from_list.gains.any()
        assert from_array.with_gains(from_array.gains).gains is not from_array.gains

    def test_assigned_gains_are_stacked_too(self):
        pol = Policy(gains=np.zeros((2, 1, 1)), features=lambda s, t: s)
        pol.gains = [[[0.1]], [[0.2]]]
        assert type(pol.gains) is np.ndarray and pol.gains.shape == (2, 1, 1)
        with pytest.raises(ContractError, match=r"gain at t=2 must be 1x1, got shape \(1, 2\)"):
            pol.gains = [np.zeros((1, 1)), np.zeros((1, 2))]

    def test_one_rule_names_the_first_misshapen_step(self):
        with pytest.raises(ContractError, match=r"gain at t=2 must be 1x2, got shape \(2, 1\)"):
            as_steps([np.zeros((1, 2)), np.zeros((2, 1)), np.zeros((3, 3))])
        with pytest.raises(ContractError, match=r"gain at t=1 must be 1x2, got shape \(2, 1\)"):
            as_steps(np.zeros((3, 2, 1)), (3, 1, 2))
        with pytest.raises(ContractError, match="need 3 gain matrices, got 2"):
            as_steps(np.zeros((2, 1, 2)), (3, 1, 2))
        for bad in ([np.zeros(2)] * 2, [], np.zeros((2, 2))):
            with pytest.raises(ContractError, match="gains must stack to"):
                Policy(gains=bad, features=lambda s, t: s)

    def test_trained_policy_holds_one_array(self):
        pol0 = Policy(gains=[np.array([[0.8]]), np.array([[-0.6]])],
                      features=lambda s, t: np.atleast_1d(s[..., 0]) * 0.0 + 1.0)
        trained, rep = train_policy(scalar_integrator(), zero_cost(2, weights=[np.eye(1)] * 2),
                                    pol0, ControlRiskModel(1.0, [np.eye(1)] * 2),
                                    "derivative_free", SolverConfig(iterations=5, batch=4),
                                    FeasibleSet.ball(np.zeros(2), 2.0), GaussianSampler(3, dim=1))
        assert type(trained.gains) is np.ndarray and trained.gains.dtype == np.float64
        assert trained.gains.shape == (2, 1, 1)
        assert np.array_equal(trained.gains.ravel(), rep.theta_hat)
        assert np.array_equal(pol0.gains.ravel(), [0.8, -0.6])


class TestPerStepLayout:
    """R_t and Sigma_t, with the inverses and roots of Sigma_t, are each one
    stacked (N-1, m, m) float64 array (sampling.as_steps)."""

    @staticmethod
    def problem(stacked):
        rng = np.random.default_rng(21)
        dyn, _, pol, _ = smooth_control_problem(rng, 3, 2, 5)
        weights = [np.diag(rng.uniform(2.0, 3.0, 2)) for _ in range(4)]
        noise = [np.array([[0.6, 0.1 * t], [0.1 * t, 0.5]]) for t in range(4)]
        if stacked:
            weights, noise = np.array(weights), np.array(noise)
        cost = ControlCost(state_cost=lambda s, t: 0.5 * np.sum(s * s, axis=-1),
                           control_weights=weights, bound=2.0,
                           state_cost_grad=lambda s, t: s, vectorized=True)
        return dyn, cost, pol, ControlRiskModel(0.8, noise)

    def test_each_per_step_field_is_one_stack(self):
        _, cost, _, model = self.problem(stacked=False)
        for arr in (cost.control_weights, model.control_noise, model.noise_inv,
                    model.noise_root):
            assert type(arr) is np.ndarray and arr.dtype == np.float64
            assert arr.shape == (4, 2, 2)
        assert np.allclose(model.noise_inv @ model.control_noise, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("method", ["derivative_free", "model_based"])
    def test_list_and_array_input_give_the_same_bits(self, method):
        listed, stacked = self.problem(stacked=False), self.problem(stacked=True)
        a = policy_gradient_batch(*listed, GaussianSampler(6, dim=1), 300, method)
        b = policy_gradient_batch(*stacked, GaussianSampler(6, dim=1), 300, method)
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.std_err, b.std_err)
        assert a.exp_cost_mean == b.exp_cost_mean
        ra = rollout(*listed, GaussianSampler(7, dim=1))
        rb = rollout(*stacked, GaussianSampler(7, dim=1))
        assert np.array_equal(ra.states, rb.states) and ra.cost == rb.cost

    def test_mixed_sizes_name_the_step(self):
        with pytest.raises(ContractError, match=r"control weight at t=2 must be 1x1, "
                                                r"got shape \(2, 2\)"):
            zero_cost(2, weights=[np.eye(1), np.eye(2)])
        with pytest.raises(ContractError, match=r"control noise at t=2 must be 1x1, "
                                                r"got shape \(2, 2\)"):
            ControlRiskModel(1.0, [np.eye(1), np.eye(2)])
        with pytest.raises(ContractError, match="control weight at t=2 must be positive"):
            zero_cost(2, weights=[np.eye(1), -np.eye(1)])
        with pytest.raises(IllConditionedError, match="control noise at t=2 is not positive"):
            ControlRiskModel(1.0, [np.eye(1), np.zeros((1, 1))])
        dyn, _, pol, model = self.problem(stacked=True)
        with pytest.raises(ContractError, match=r"cost control weights must stack 4 steps of "
                                                r"2 controls, got shape \(4, 1, 1\)"):
            rollout(dyn, zero_cost(4), pol, model, GaussianSampler(0, dim=1))
        with pytest.raises(ContractError, match=r"cost control weights \(4, 1, 1\) and model "
                                                r"noise \(4, 2, 2\) differ"):
            check_control_certificate(zero_cost(4), model)

    def test_empty_and_scalar_steps_are_rejected(self):
        for bad in ([], [1.0, 1.0]):
            with pytest.raises(ContractError, match="control weights must stack to"):
                zero_cost(2, weights=bad)
            with pytest.raises(ContractError, match="control noises must stack to"):
                ControlRiskModel(1.0, bad)


class TestMomentReduction:
    @pytest.mark.parametrize("method", ["model_based", "derivative_free"])
    @pytest.mark.parametrize("build,n,zero_first_step", [
        (lambda rng: smooth_control_problem(rng, 3, 2, 5), 2000, False),
        (row_lifted_smooth_problem, 300, False),
        (lambda rng: linear_problem(), 2000, True),
        (noisy_net_problem, 500, False),
    ], ids=["smooth", "smooth_row_lifted", "linear", "noisy_net"])
    def test_moments_match_sample_tensor(self, build, n, zero_first_step, method):
        problem = build(np.random.default_rng(29))
        est = policy_gradient_batch(*problem, GaussianSampler(11, dim=1), n, method)
        samples, costs = _gradient_samples(*problem, GaussianSampler(11, dim=1), n, method)
        np.testing.assert_allclose(est.mean, samples.mean(axis=0), rtol=1e-10)
        np.testing.assert_allclose(est.std_err, samples.std(axis=0, ddof=1) / np.sqrt(n),
                                   rtol=1e-10)
        assert est.exp_cost_mean == float(costs.mean())
        assert est.exp_cost_std_err == float(costs.std(ddof=1) / np.sqrt(n))
        if zero_first_step:
            # phi_1 = s_1 = 0: every sample is exactly 0, and so are the moments.
            assert np.all(samples[:, 0] == 0.0)
            assert np.all(est.mean[0] == 0.0) and np.all(est.std_err[0] == 0.0)

    def test_batch_estimate_builds_no_per_sample_tensor(self):
        dyn, cost, pol, model = smooth_control_problem(np.random.default_rng(3), 8, 8, 6)
        n = 2**14
        tensor_bytes = n * 5 * 8 * 8 * 8  # float64 (n, N-1, m, q)
        tracemalloc.start()
        try:
            policy_gradient_batch(dyn, cost, pol, model, GaussianSampler(5, dim=1), n,
                                  "derivative_free")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tensor_bytes

    def test_broadcast_jacobians_match_dense_copies(self):
        dyn, cost, pol, model = linear_problem()
        s = np.zeros((4, 2))
        assert dyn.jacobian_state(s, s, None, 1).strides[0] == 0
        assert pol.features_jacobian(s, 1).strides[0] == 0

        def dense(fn):  # the same Jacobian, materialized as its own copy
            return lambda *args: np.array(fn(*args))

        ddyn = dataclasses.replace(dyn, jacobian_state=dense(dyn.jacobian_state),
                                   jacobian_control=dense(dyn.jacobian_control))
        dpol = dataclasses.replace(pol, features_jacobian=dense(pol.features_jacobian))
        assert ddyn.jacobian_state(s, s, None, 1).strides[0] != 0
        fast, fast_costs = _gradient_samples(dyn, cost, pol, model, GaussianSampler(8, dim=1),
                                             500, "model_based")
        slow, slow_costs = _gradient_samples(ddyn, cost, dpol, model,
                                             GaussianSampler(8, dim=1), 500, "model_based")
        assert np.array_equal(fast_costs, slow_costs)
        assert np.any(fast != 0.0)
        np.testing.assert_allclose(fast, slow, rtol=1e-12)


def wide_row_lifted_problem():
    # 8 states, 8 controls and 8 features: blocks of _block_rows(8)
    # rollouts keep a three-block batch of per-row callables quick.
    dyn, cost, pol, model = smooth_control_problem(np.random.default_rng(31), 8, 8, 3)
    dyn.vectorized = cost.vectorized = pol.vectorized = False
    return dyn, cost, pol, model


def planted_row_problem(row, alpha, bound):
    """s' = s with l(s) = s^2 / 2 and zero gains: every rollout costs 0
    except rollout ``row``, which starts at s_1 = 10 and costs 50 per
    state (J = 150)."""
    def init_state_batch(g, b):
        s1 = np.zeros((b, 1))
        s1[row] = 10.0
        return s1

    dyn = Dynamics(step=lambda s, y, xi, t: s + 0.0 * y, state_dim=1, control_dim=1,
                   disturbance_dim=0, horizon=3,
                   jacobian_state=lambda s, y, xi, t: np.broadcast_to(np.eye(1), s.shape + (1,)),
                   jacobian_control=lambda s, y, xi, t: np.zeros(s.shape + (1,)),
                   init_state_batch=init_state_batch, vectorized=True)
    cost = ControlCost(state_cost=lambda s, t: 0.5 * s[:, 0] ** 2,
                       control_weights=[np.eye(1)] * 2, bound=bound,
                       state_cost_grad=lambda s, t: s, vectorized=True)
    pol = Policy(gains=[np.zeros((1, 1))] * 2, features=lambda s, t: s,
                 features_jacobian=lambda s, t: np.broadcast_to(np.eye(1), s.shape + (1,)),
                 vectorized=True)
    return dyn, cost, pol, ControlRiskModel(alpha, [np.eye(1)] * 2)


def long_linear_problem():
    # 2 states, 2 controls, N - 1 = 29 steps: a batch of 400 rollouts runs
    # its steps in chunks of 2**14 // (400 * 2) = 20 and 9.
    rng = np.random.default_rng(43)
    system = LinearSystem(A=[0.5 * rng.standard_normal((2, 2)) for _ in range(29)],
                          B=[0.5 * rng.standard_normal((2, 2)) for _ in range(29)],
                          Q=[0.1 * np.eye(2)] * 30, R=[2.0 * np.eye(2)] * 29,
                          sigma=[np.eye(2)] * 29, horizon=30)
    gains = [0.1 * rng.standard_normal((2, 2)) for _ in range(29)]
    return linear_control_problem(system, 0.2, gains=gains)


class TestStepChunks:
    """A one-block batch runs its steps in chunks of
    2**14 // (rows * width): each chunk's eps draw, control costs,
    scores and moments are one stacked product, and keep the bits of the
    steps written out one at a time."""

    @pytest.mark.parametrize("method", ["model_based", "derivative_free"])
    @pytest.mark.parametrize("build,n,chunks", [
        (linear_problem, 64, [3]),
        (wide_row_lifted_problem, 40, [2]),
        (lambda: disturbed_problem("disturbance_batch"), 64, [3]),
        (long_linear_problem, 400, [20, 9]),
        (linear_problem, 6000, [1, 1, 1]),   # one step of 6000 x 2 fills the budget
    ], ids=["linear", "row_lifted", "disturbance_batch", "long_horizon", "one_step"])
    def test_one_block_moments_are_the_steps_written_out(self, build, n, chunks, method):
        problem = build()
        engine = _RolloutEngine(*problem)
        assert len(_row_blocks(n, engine.width)) == 1
        assert [c.stop - c.start for c in _step_chunks(engine.shape[0], n, engine.width)] == chunks
        mean, sq, w = engine.moments(np.stack(problem[2].gains), GaussianSampler(5, dim=1), n,
                                     method)
        ref_mean, _, ref_w = _full_batch_moments(*problem, GaussianSampler(5, dim=1), n, method)
        assert sq is None
        assert np.any(mean != 0.0)
        assert np.array_equal(mean, ref_mean)
        assert np.array_equal(w, ref_w)

    def test_one_block_peak_memory(self):
        # The simulate shape of det-max synthesis: N = 30, 4 states, 2
        # controls, 4096 rollouts in one block of one-step chunks.  It
        # peaks at 8.1 MiB under tracemalloc, and at 10.7 MiB when the
        # block held its realized controls and all 30 rows of stage costs;
        # stacking all 29 steps at once peaked at 15.8 MiB.
        rng = np.random.default_rng(47)
        system = LinearSystem(A=[0.3 * rng.standard_normal((4, 4)) for _ in range(29)],
                              B=[0.3 * rng.standard_normal((4, 2)) for _ in range(29)],
                              Q=[np.eye(4)] * 30, R=[np.eye(2)] * 29, sigma=[np.eye(2)] * 29,
                              horizon=30)
        problem = linear_control_problem(system, 0.05)
        assert len(_row_blocks(4096, _RolloutEngine(*problem).width)) == 1
        tracemalloc.start()
        try:
            policy_gradient_batch(*problem, GaussianSampler(7, dim=1), 4096, "derivative_free")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestRowBlocks:
    """Batches run in row blocks of _block_rows(max(n, m, q)) rollouts.  A
    batch of one block keeps the bits of one unblocked pass; on more
    blocks, each draws its steps' noise from a stream of its own, and only
    the block sums of the moments may differ from one pass over the same
    noise."""

    @pytest.mark.parametrize("build", [
        linear_problem,
        wide_row_lifted_problem,
        lambda: noisy_net_problem(np.random.default_rng(29)),
    ], ids=["linear", "row_lifted", "noisy_net"])
    def test_the_width_is_the_widest_per_step_array(self, build):
        dyn, cost, pol, model = build()
        width = _RolloutEngine(dyn, cost, pol, model).width
        assert width == max(dyn.state_dim, dyn.control_dim, pol.feature_dim)

    def test_a_batch_of_the_large_n_benchmark_shape_runs_in_full_blocks(self, monkeypatch):
        # 2 states, 2 controls and 2 features, as mc_large_n's linear system:
        # blocks of 2**14 // 2 rollouts.
        problem = linear_problem()
        engine = _RolloutEngine(*problem)
        calls = []
        run_block = engine._block_moments

        def counted(K, noise, w, start, n, *args):
            calls.append(w.shape[0])
            return run_block(K, noise, w, start, n, *args)

        monkeypatch.setattr(engine, "_block_moments", counted)
        engine.moments(np.stack(problem[2].gains), GaussianSampler(3, dim=1), 2**18,
                       "derivative_free")
        assert calls == [8192] * (2**18 // 8192)

    @pytest.mark.parametrize("method", ["model_based", "derivative_free"])
    @pytest.mark.parametrize("build", [linear_problem, wide_row_lifted_problem],
                             ids=["linear", "row_lifted"])
    @pytest.mark.parametrize("blocks", [1, 3])
    def test_moments_match_the_full_batch_reference(self, blocks, build, method):
        problem = build()
        engine = _RolloutEngine(*problem)
        rows = _block_rows(engine.width)
        n = 2 * rows - 1 if blocks == 1 else 3 * rows + 1   # the largest one block; 3 + 1 row
        assert len(_row_blocks(n, engine.width)) == blocks
        # One block draws from the sampler itself, three from a stream each.
        ref_mean, ref_sq, ref_w = _full_batch_moments(
            *problem, GaussianSampler(5, dim=1), n, method,
            batch=_full_batch if blocks == 1 else _per_block_batch)
        mean, sq, w = engine.moments(np.stack(problem[2].gains), GaussianSampler(5, dim=1), n,
                                     method, second=True)
        est = policy_gradient_batch(*problem, GaussianSampler(5, dim=1), n, method)
        ref_se = np.sqrt(np.maximum(ref_sq - ref_mean * ref_mean, 0.0) * (n / (n - 1)) / n)
        assert np.array_equal(w, ref_w)
        assert est.exp_cost_mean == float(ref_w.mean())
        assert est.exp_cost_std_err == float(ref_w.std(ddof=1) / np.sqrt(n))
        if blocks == 1:
            for got, ref in ((mean, ref_mean), (sq, ref_sq), (est.mean, ref_mean),
                             (est.std_err, ref_se)):
                assert np.array_equal(got, ref)
        else:
            for got, ref in ((mean, ref_mean), (sq, ref_sq), (est.mean, ref_mean),
                             (est.std_err, ref_se)):
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("build", [linear_problem, wide_row_lifted_problem],
                             ids=["linear", "row_lifted"])
    def test_noise_drawn_block_by_block_keeps_the_bits_of_one_draw(self, build):
        # Neither problem draws s_1 from the stream: it starts at eps_1.
        dyn, cost, pol, model = build()
        engine = _RolloutEngine(dyn, cost, pol, model)
        n = 3 * _block_rows(engine.width) + 1
        _, eps, _ = engine.draw(GaussianSampler(5, dim=1), n)
        stream = GaussianSampler(5, dim=1)
        for t in range(dyn.horizon - 1):
            assert np.array_equal(eps[t], stream.normal((n, dyn.control_dim))
                                  @ model.noise_root[t])

    @staticmethod
    def simulate_shape_problem():
        # The simulate shape of det-max synthesis: 4 states, 2 controls,
        # N = 30 and 4096 rollouts, one block of one-step chunks.
        rng = np.random.default_rng(53)
        system = LinearSystem(A=[0.3 * rng.standard_normal((4, 4)) for _ in range(29)],
                              B=[0.3 * rng.standard_normal((4, 2)) for _ in range(29)],
                              Q=[np.eye(4)] * 30, R=[np.eye(2)] * 29, sigma=[np.eye(2)] * 29,
                              horizon=30)
        gains = [0.1 * rng.standard_normal((2, 4)) for _ in range(29)]
        return linear_control_problem(system, 0.05, gains=gains)

    @pytest.mark.parametrize("method", ["model_based", "derivative_free"])
    def test_a_long_one_block_batch_is_one_allocation_with_the_reference_bits(self, method):
        # S, U and one chunk's stage costs are views of one buffer, so
        # freeing it frees one chunk; the realized controls are written
        # over the noise, and the pass keeps the bits of the steps written
        # out.
        problem = self.simulate_shape_problem()
        engine = _RolloutEngine(*problem)
        n = 4096
        assert len(_row_blocks(n, engine.width)) == 1
        assert len(_step_chunks(29, n, engine.width)) == 29
        K = np.stack(problem[2].gains)
        noise = engine.draw(GaussianSampler(9, dim=1), n)
        traj = engine.forward(K, *noise)
        parts = (traj.S, traj.U, traj.stage)
        buf = traj.S.base
        assert buf is not None and all(a.base is buf for a in parts)
        assert sum(a.nbytes for a in parts) == buf.nbytes
        assert traj.Y is noise[1]
        assert traj.stage.shape == (1, n)  # one one-step chunk's rows, not all 30
        S, U, Y, _, _, total = _forward_batch(*problem, GaussianSampler(9, dim=1), n)
        for got, ref in ((traj.S, S), (traj.U, U), (traj.Y, Y), (traj.J, total)):
            assert np.array_equal(got, ref)
        mean, sq, w = engine.moments(K, GaussianSampler(9, dim=1), n, method, second=True)
        ref_mean, ref_sq, ref_w = _full_batch_moments(*problem, GaussianSampler(9, dim=1), n,
                                                      method)
        assert np.any(mean != 0.0)
        for got, ref in ((mean, ref_mean), (sq, ref_sq), (w, ref_w)):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("method", ["model_based", "derivative_free"])
    def test_a_long_one_block_batch_peaks_below_its_whole_trajectory(self, method):
        # With S, U, Y and all 30 rows of stage costs in one buffer, these
        # moments peaked at 10.8-11.0 MiB under tracemalloc; now 8.1-8.3.
        problem = self.simulate_shape_problem()
        engine = _RolloutEngine(*problem)
        tracemalloc.start()
        try:
            engine.moments(problem[2].gains, GaussianSampler(9, dim=1), 4096, method,
                           second=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9.5 * 2**20

    @pytest.mark.parametrize("method", ["model_based", "derivative_free"])
    def test_large_batch_peak_memory_is_below_half_the_unblocked_peak(self, method):
        # One unblocked pass over these 2^17 rollouts peaked at 35.0 MiB
        # (derivative-free) and 40.0 MiB (model-based) under tracemalloc.
        problem = linear_problem()
        tracemalloc.start()
        try:
            policy_gradient_batch(*problem, GaussianSampler(3, dim=1), 2**17, method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 17.5 * 2**20

    @pytest.mark.parametrize("rows", [1, 8192, 8193, 40000])
    def test_a_one_by_one_moment_is_a_sum_of_dots_of_8192_rows(self, rows):
        # One matmul would be a BLAS dot, which OpenBLAS splits over its
        # threads past 10000 rows; up to 8192 rows, one piece is that matmul.
        rng = np.random.default_rng(rows)
        cg_t = rng.standard_normal((2, rows, 1)).transpose(0, 2, 1)
        phi = rng.standard_normal((2, rows, 1))
        out = np.empty((2, 1, 1))
        _reduced(cg_t, phi, out)
        ref = np.zeros((2, 1, 1))
        for t in range(2):
            total = float(np.dot(cg_t[t, 0, :8192], phi[t, :8192, 0]))
            for k in range(8192, rows, 8192):
                total += float(np.dot(cg_t[t, 0, k:k + 8192], phi[t, k:k + 8192, 0]))
            ref[t] = total
        assert np.array_equal(out, ref)
        if rows <= 8192:
            assert np.array_equal(out, np.matmul(cg_t, phi))

    def test_overflow_in_the_third_block_names_the_batch_index(self):
        width = _RolloutEngine(*planted_row_problem(0, 1.0, 1.0)).width
        rows = _block_rows(width)
        n, row = 3 * rows + 1, 2 * rows + 5
        problem = planted_row_problem(row, alpha=10.0, bound=1e3)
        assert len(_row_blocks(n, width)) == 3 and _row_blocks(n, width)[2].start <= row
        for method in ("model_based", "derivative_free"):
            with pytest.raises(EstimateOverflowError, match=f"at sample {row} ") as err:
                policy_gradient_batch(*problem, GaussianSampler(0, dim=1), n, method)
            assert err.value.sample_index == row

    def test_bound_violation_in_the_third_block_names_the_rollout(self):
        width = _RolloutEngine(*planted_row_problem(0, 1.0, 1.0)).width
        rows = _block_rows(width)
        n, row = 3 * rows + 1, 2 * rows + 5
        problem = planted_row_problem(row, alpha=1.0, bound=1.0)
        assert len(_row_blocks(n, width)) == 3 and _row_blocks(n, width)[2].start <= row
        with pytest.raises(FieldEvaluationError, match=f"at t=1 in rollout {row}$") as err:
            policy_gradient_batch(*problem, GaussianSampler(0, dim=1), n)
        assert np.array_equal(err.value.theta, [10.0])


def disturbed_problem(form):
    """Tanh dynamics s' = tanh(A s + B y + xi) whose disturbances xi come
    from ``form``, the per-row ``disturbance`` or ``disturbance_batch``;
    s_1 is drawn by ``init_state`` alone, with no batch form."""
    rng = np.random.default_rng(5)
    n, m, horizon = 2, 1, 4
    A = 0.6 * rng.standard_normal((n, n))
    B = 0.7 * rng.standard_normal((n, m))
    Q = np.diag([0.5, 0.3])

    def pre(s, y, xi):
        return s @ A.T + y @ B.T + xi

    def jac(s, y, xi, mat):
        return (1.0 - np.tanh(pre(s, y, xi)) ** 2)[..., :, None] * mat

    draw = {"disturbance": lambda g, t: 0.3 * g.standard_normal(n),
            "disturbance_batch": lambda g, t, b: 0.3 * g.standard_normal((b, n))}[form]
    dyn = Dynamics(step=lambda s, y, xi, t: np.tanh(pre(s, y, xi)), state_dim=n,
                   control_dim=m, disturbance_dim=n, horizon=horizon,
                   jacobian_state=lambda s, y, xi, t: jac(s, y, xi, A),
                   jacobian_control=lambda s, y, xi, t: jac(s, y, xi, B),
                   init_state=lambda g: g.uniform(-0.5, 0.5, size=n),
                   vectorized=True, **{form: draw})
    # |s_i| < 1 componentwise, so the state cost stays below 0.5 trace(Q).
    cost = ControlCost(state_cost=lambda s, t: 0.5 * np.einsum("...i,ij,...j->...", s, Q, s),
                       control_weights=[0.4 * np.eye(m)] * (horizon - 1), bound=0.4,
                       state_cost_grad=lambda s, t: s @ Q, vectorized=True)
    pol = Policy(gains=[0.5 * rng.standard_normal((m, n)) for _ in range(horizon - 1)],
                 features=lambda s, t: s,
                 features_jacobian=lambda s, t: np.broadcast_to(np.eye(n), s.shape + (n,)),
                 vectorized=True)
    return dyn, cost, pol, ControlRiskModel(0.4, [0.5 * np.eye(m)] * (horizon - 1))


@pytest.mark.parametrize("form", ["disturbance", "disturbance_batch"])
class TestDisturbances:
    def test_rollout_records_disturbances_and_frozen_replay_is_exact(self, form):
        dyn, cost, pol, model = disturbed_problem(form)
        r = rollout(dyn, cost, pol, model, GaussianSampler(3, dim=1))
        assert r.disturbances.shape == (3, 2) and np.all(r.disturbances != 0.0)
        assert np.all(r.states[0] != 0.0)
        for t in range(1, 4):  # the recorded xi_t are the ones s_{t+1} was stepped with
            np.testing.assert_array_equal(
                r.states[t], dyn.step(r.states[t - 1:t], r.realized[t - 1:t],
                                      r.disturbances[t - 1:t], t)[0])
        replay = rollout(dyn, cost, pol, model, GaussianSampler(4, dim=1), frozen=r.frozen())
        np.testing.assert_array_equal(replay.states, r.states)
        np.testing.assert_array_equal(replay.disturbances, r.disturbances)
        assert replay.cost == r.cost

    def test_model_based_matches_finite_differences_under_frozen_noise(self, form):
        dyn, cost, pol, model = disturbed_problem(form)
        sampler = GaussianSampler(7, dim=1)
        g = policy_gradient_model_based(dyn, cost, pol, model, sampler)
        frozen = g.rollout.frozen()
        fd = np.zeros_like(g.exp_gradient)
        h = 3e-6
        for idx in np.ndindex(*fd.shape):
            up = [k.copy() for k in pol.gains]
            dn = [k.copy() for k in pol.gains]
            up[idx[0]][idx[1:]] += h
            dn[idx[0]][idx[1:]] -= h
            hi = rollout(dyn, cost, pol.with_gains(up), model, sampler, frozen=frozen)
            lo = rollout(dyn, cost, pol.with_gains(dn), model, sampler, frozen=frozen)
            fd[idx] = (hi.exp_cost - lo.exp_cost) / (2.0 * h)
        rel = np.linalg.norm(g.exp_gradient - fd) / np.linalg.norm(fd)
        assert rel <= 1e-5

    def test_batch_estimators_agree_in_expectation(self, form):
        dyn, cost, pol, model = disturbed_problem(form)
        mb = policy_gradient_batch(dyn, cost, pol, model, GaussianSampler(21, dim=1),
                                   20_000, "model_based")
        df = policy_gradient_batch(dyn, cost, pol, model, GaussianSampler(22, dim=1),
                                   20_000, "derivative_free")
        gap = np.abs(mb.mean - df.mean) - 3.0 * (mb.std_err + df.std_err)
        assert np.all(gap <= 1e-12)


class TestStateCostBound:
    @pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "per_row"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.0 + 1e-6], ids=["nan", "inf", "over"])
    def test_violation_raises_field_error(self, bad, vectorized):
        dyn = scalar_integrator()
        dyn.vectorized = vectorized
        pol = Policy(gains=[np.ones((1, 1))] * 2, features=lambda s, t: s + 1.0,
                     vectorized=vectorized)
        model = ControlRiskModel(1.0, [np.eye(1)] * 2)

        def cost_at(value):
            return ControlCost(state_cost=lambda s, t: np.full(np.shape(s)[:-1],
                                                               value if t == 2 else 0.0),
                               control_weights=[np.eye(1)] * 2, bound=1.0,
                               vectorized=vectorized)

        for run in (lambda c: rollout(dyn, c, pol, model, GaussianSampler(0, dim=1)),
                    lambda c: policy_gradient_batch(dyn, c, pol, model,
                                                    GaussianSampler(0, dim=1), 8)):
            with pytest.raises(FieldEvaluationError, match="at t=2"):
                run(cost_at(bad))
            run(cost_at(1.0 + 1e-9))  # within the bound's tolerance

    def test_violation_carries_the_first_offending_state(self):
        bench = ScalarBenchmark()
        dyn, cost, pol, model = bench.problem()
        S, *_ = _forward_batch(dyn, cost, pol, model, GaussianSampler(2, dim=1), 1000)
        cost.bound = 0.5
        # The engine checks every rollout at t before any at t + 1.
        over = 0.5 * bench.q * S[..., 0] ** 2 > 0.5 + 1e-9 * 1.5
        t = int(np.argmax(over.any(axis=1)))
        i = int(np.argmax(over[t]))
        assert t > 0 and i > 0
        with pytest.raises(FieldEvaluationError, match=f"at t={t + 1} in rollout {i}$") as err:
            policy_gradient_batch(dyn, cost, pol, model, GaussianSampler(2, dim=1), 1000)
        assert np.array_equal(err.value.theta, S[t, i])


def overflowing_problem(vectorized):
    # exp(alpha J) exceeds the float range on most rollouts of this system
    dyn, cost, pol, model = ScalarBenchmark(alpha=50, q=5, a=1.5, horizon=6).problem()
    dyn.vectorized = cost.vectorized = pol.vectorized = vectorized
    return dyn, cost, pol, model


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestExponentOverflow:
    @pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "per_row"])
    @pytest.mark.parametrize("method", ["model_based", "derivative_free"])
    def test_batch_raises_typed_error(self, method, vectorized):
        dyn, cost, pol, model = overflowing_problem(vectorized)
        with pytest.raises(EstimateOverflowError) as err:
            policy_gradient_batch(dyn, cost, pol, model, GaussianSampler(4, dim=1), 64, method)
        assert 0 <= err.value.sample_index < 64
        if vectorized:
            *_, total = _forward_batch(dyn, cost, pol, model, GaussianSampler(4, dim=1), 64)
            assert model.alpha * total[err.value.sample_index] > LOG_FLOAT_MAX

    def test_rollout_raises_typed_error(self):
        dyn, cost, pol, model = overflowing_problem(False)
        rollout(dyn, cost, pol, model, GaussianSampler(0, dim=1))  # this draw fits
        with pytest.raises(EstimateOverflowError) as err:
            rollout(dyn, cost, pol, model, GaussianSampler(1, dim=1))
        assert err.value.sample_index == 0

    @pytest.mark.parametrize("estimator", [policy_gradient_model_based,
                                           policy_gradient_derivative_free])
    def test_per_row_estimator_raises_typed_error(self, estimator):
        dyn, cost, pol, model = overflowing_problem(False)
        with pytest.raises(EstimateOverflowError):
            estimator(dyn, cost, pol, model, GaussianSampler(1, dim=1))

    @pytest.mark.parametrize("method", ["model_based", "derivative_free"])
    def test_per_row_batch_names_first_overflowing_sample(self, method):
        dyn, cost, pol, model = overflowing_problem(False)
        with pytest.raises(EstimateOverflowError) as err:
            policy_gradient_batch(dyn, cost, pol, model, GaussianSampler(4, dim=1), 64, method)
        # Replay the same stream: rollouts before the named one fit, it does not.
        *_, total = _forward_batch(dyn, cost, pol, model, GaussianSampler(4, dim=1), 64)
        i = err.value.sample_index
        assert np.all(model.alpha * total[:i] <= LOG_FLOAT_MAX)
        assert model.alpha * total[i] > LOG_FLOAT_MAX

    @pytest.mark.parametrize("method", ["model_based", "derivative_free"])
    def test_train_policy_reports_overflow_not_divergence(self, method):
        dyn, cost, pol, model = overflowing_problem(True)
        with pytest.raises(EstimateOverflowError):
            train_policy(dyn, cost, pol, model, method,
                         SolverConfig(iterations=5, batch=32, zeta=1.0),
                         FeasibleSet.ball(np.zeros(5), 1.0), GaussianSampler(4, dim=1))


def _exp_costs(dyn, cost, pol, model, sampler, n):
    samples, costs = _gradient_samples(dyn, cost, pol, model, sampler, n,
                                       "derivative_free")
    return samples, costs


class TestTrainPolicy:
    def test_pure_penalty_drives_gains_to_zero(self):
        dyn = scalar_integrator()
        cost = zero_cost(2, weights=[np.eye(1)] * 2)
        pol0 = Policy(gains=[np.array([[0.8]]), np.array([[-0.6]])],
                      features=lambda s, t: np.atleast_1d(s[..., 0]) * 0.0 + 1.0,
                      vectorized=False)
        model = ControlRiskModel(1.0, [np.eye(1)] * 2)
        constraint = FeasibleSet.ball(np.zeros(2), 2.0)
        trained, rep = train_policy(dyn, cost, pol0, model, "derivative_free",
                                    SolverConfig(iterations=1500, batch=32,
                                                 averaging=False),
                                    constraint, GaussianSampler(3, dim=1))
        assert np.linalg.norm(np.ravel(trained.gains)) < 0.1
        assert rep.certified

    def test_active_box_constraint_binds(self):
        # pure penalty with K_1 forced into [0.5, 1]: optimum at the 0.5 boundary
        dyn = scalar_integrator(horizon=2)
        cost = zero_cost(1, weights=[np.eye(1)])
        pol0 = Policy(gains=[np.array([[0.9]])],
                      features=lambda s, t: np.atleast_1d(s[..., 0]) * 0.0 + 1.0)
        model = ControlRiskModel(1.0, [np.eye(1)])
        constraint = FeasibleSet.box([0.5], [1.0])
        trained, _ = train_policy(dyn, cost, pol0, model, "derivative_free",
                                  SolverConfig(iterations=1500, batch=32,
                                               averaging=False),
                                  constraint, GaussianSampler(5, dim=1))
        assert trained.gains[0][0, 0] == pytest.approx(0.5, abs=0.03)

    def test_theta0_is_the_projected_start(self):
        dyn = scalar_integrator()
        cost = zero_cost(2)
        pol0 = Policy(gains=[np.zeros((1, 1))] * 2,
                      features=lambda s, t: np.atleast_1d(s[..., 0]) * 0.0 + 1.0)
        model = ControlRiskModel(1.0, [np.eye(1)] * 2)
        constraint = FeasibleSet.ball(np.zeros(2), 0.5)
        theta0 = np.array([1.0, -2.0])
        seen = Iterates()
        train_policy(dyn, cost, pol0, model, "derivative_free",
                     SolverConfig(iterations=3, batch=4, theta0=theta0),
                     constraint, GaussianSampler(2, dim=1), sink=seen)
        assert np.array_equal(seen[0], constraint.project(theta0))
        with pytest.raises(ContractError, match="theta0"):
            train_policy(dyn, cost, pol0, model, "derivative_free",
                         SolverConfig(iterations=3, batch=4, theta0=np.zeros(3)),
                         constraint, GaussianSampler(2, dim=1))

    @pytest.mark.filterwarnings("ignore:per-step certificate fails")
    def test_trace_and_determinism(self):
        rng = np.random.default_rng(19)
        dyn, cost, pol, model = smooth_control_problem(rng, 2, 1, 3)
        constraint = FeasibleSet.ball(np.zeros(pol.n_steps * 1 * 2), 1.0)
        cfg = SolverConfig(iterations=40, batch=16)
        seen1, seen2 = Iterates(), Iterates()
        t1, r1 = train_policy(dyn, cost, pol, model, "derivative_free", cfg,
                              constraint, GaussianSampler(9, dim=1), sink=seen1)
        t2, r2 = train_policy(dyn, cost, pol, model, "derivative_free", cfg,
                              constraint, GaussianSampler(9, dim=1), sink=seen2)
        assert np.array_equal(seen1, seen2)
        assert np.array_equal(r1.objective_trace, r2.objective_trace)
        assert r1.objective_trace.shape == (40,)

    @pytest.mark.filterwarnings("ignore:per-step certificate fails")
    @pytest.mark.parametrize("method", ["model_based", "derivative_free"])
    def test_pilot_and_loop_match_the_iteration_written_out(self, method):
        rng = np.random.default_rng(37)
        dyn, cost, pol, model = smooth_control_problem(rng, 2, 1, 4)
        constraint = FeasibleSet.ball(np.zeros(pol.n_steps * 1 * 2), 1.0)
        cfg = SolverConfig(iterations=15, batch=8)
        seen = []
        _, rep = train_policy(dyn, cost, pol, model, method, cfg, constraint,
                              GaussianSampler(41, dim=1), sink=lambda *step: seen.append(step))

        shape = (pol.n_steps, 1, 2)
        pilot, run = GaussianSampler(41, dim=1).split(2)
        theta = constraint.project(np.ravel(pol.gains))
        start = pol.with_gains(theta.reshape(shape))
        mean, sq, _ = _full_batch_moments(dyn, cost, start, model, pilot, cfg.pilot_samples,
                                          method)
        assert rep.zeta == pilot_zeta(mean.ravel(), sq, cfg.pilot_samples, cfg.batch)
        samples, _ = _gradient_samples(dyn, cost, start, model,
                                       GaussianSampler(41, dim=1).split(2)[0],
                                       cfg.pilot_samples, method)
        assert rep.zeta == pytest.approx(per_sample_zeta(samples, cfg.batch), rel=1e-14)
        assert len(seen) == cfg.iterations
        running_sum = np.zeros(theta.size)
        for i in range(1, cfg.iterations + 1):
            step, handed, norm, eta, objective = seen[i - 1]
            assert step == i and np.array_equal(handed, theta)
            running_sum += theta
            g, _, w = _full_batch_moments(dyn, cost, pol.with_gains(theta.reshape(shape)),
                                          model, run, cfg.batch, method)
            assert objective == rep.objective_trace[i - 1] == w.sum() / cfg.batch
            assert eta == rep.etas[i - 1] == step_size(constraint.radius_bound, rep.zeta, i)
            assert norm == rep.grad_norms[i - 1] == np.linalg.norm(g)
            theta = constraint.project(theta - eta * g.ravel())
        assert np.array_equal(rep.final_theta, theta)
        assert np.array_equal(rep.theta_hat, running_sum / cfg.iterations)

    @pytest.mark.filterwarnings("ignore:per-step certificate fails")
    @pytest.mark.parametrize("batch", [1, 8, 128])
    @pytest.mark.parametrize("method", ["model_based", "derivative_free"])
    def test_pilot_zeta_matches_the_per_sample_reference(self, method, batch):
        for seed in range(5):
            dyn, cost, pol, model = smooth_control_problem(np.random.default_rng(seed), 3, 2, 4)
            constraint = FeasibleSet.ball(np.zeros(pol.n_steps * 2 * 3), 100.0)
            _, rep = train_policy(dyn, cost, pol, model, method,
                                  SolverConfig(iterations=1, batch=batch), constraint,
                                  GaussianSampler(seed, dim=1))
            pilot, _ = GaussianSampler(seed, dim=1).split(2)
            samples, _ = _gradient_samples(dyn, cost, pol, model, pilot, 200, method)
            assert rep.zeta == pytest.approx(per_sample_zeta(samples, batch), rel=1e-14)

    @pytest.mark.filterwarnings("ignore:per-step certificate fails")
    @pytest.mark.parametrize("method", ["model_based", "derivative_free"])
    def test_overflowing_pilot_moment_is_a_typed_error(self, method):
        # Every state cost + 250 puts alpha J near 400: exp(alpha J) is
        # finite, but the squares of the pilot's samples overflow.
        dyn, cost, pol, model = smooth_control_problem(np.random.default_rng(3), 2, 1, 4)
        base = cost.state_cost
        cost = dataclasses.replace(cost, state_cost=lambda s, t: base(s, t) + 250.0,
                                   bound=cost.bound + 250.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(EstimateOverflowError):
                train_policy(dyn, cost, pol, model, method, SolverConfig(iterations=5, batch=8),
                             FeasibleSet.ball(np.zeros(6), 1.0), GaussianSampler(1, dim=1))


@pytest.mark.parametrize("method", ["model_based", "derivative_free"])
def test_batch_std_err_overflow_is_a_typed_error(method):
    # State costs + 250 put alpha J near 400: the mean of the samples is
    # finite (about 1e172), their second moment is not.
    dyn, cost, pol, model = smooth_control_problem(np.random.default_rng(3), 2, 1, 4)
    base = cost.state_cost
    cost = dataclasses.replace(cost, state_cost=lambda s, t: base(s, t) + 250.0,
                               bound=cost.bound + 250.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(EstimateOverflowError, match="standard error is nan"):
            policy_gradient_batch(dyn, cost, pol, model, GaussianSampler(1, dim=1), 200, method)


def test_adjoint_stops_at_the_first_step():
    # lam_1 feeds no gradient, so the recursion forms lam_N .. lam_2 only.
    horizon = 6
    dyn, cost, pol, model = smooth_control_problem(np.random.default_rng(2), 3, 2, horizon)
    calls = {}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapped

    dyn = dataclasses.replace(dyn, jacobian_state=counted("jac_state", dyn.jacobian_state),
                              jacobian_control=counted("jac_control", dyn.jacobian_control))
    cost = dataclasses.replace(cost, state_cost_grad=counted("state_cost_grad",
                                                             cost.state_cost_grad))
    pol = dataclasses.replace(pol, features_jacobian=counted("features_jacobian",
                                                             pol.features_jacobian))
    policy_gradient_batch(dyn, cost, pol, model, GaussianSampler(1, dim=1), 16, "model_based")
    assert calls == {"jac_state": horizon - 2, "features_jacobian": horizon - 2,
                     "state_cost_grad": horizon - 1, "jac_control": horizon - 1}


def einsum_quads(x, M):
    """The einsum form of :func:`_row_quads`, its reference."""
    return np.einsum("...i,...i->...", x @ M, x)


class TestRowQuads:
    """Rows of one or two entries skip the einsum and keep its bits."""

    SPECIALS = [0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, np.nan]

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_the_einsum_bits(self, width):
        rng = np.random.default_rng(width)
        x = np.concatenate([np.array(list(itertools.product(self.SPECIALS, repeat=width))),
                            rng.standard_normal((64, width))])
        weights = [np.zeros((width, width)), -np.zeros((width, width)), np.eye(width),
                   rng.standard_normal((width, width))]
        stacked = x[: 6 * (len(x) // 6)].reshape(6, -1, width)
        with np.errstate(invalid="ignore", over="ignore"):
            cases = [(x, M) for M in weights] + [(row, weights[3]) for row in x[::9]] + [
                (stacked, np.stack([weights[i % len(weights)] for i in range(6)]))]
            for rows, M in cases:
                got, ref = _row_quads(rows, M), einsum_quads(rows, M)
                assert got.shape == ref.shape == rows.shape[:-1]
                assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        if width == 1:  # the einsum's 0 + p: no -0.0 comes out
            assert not np.signbit(_row_quads(np.array([[-0.0], [0.0]]), np.ones((1, 1)))).any()

    @pytest.mark.parametrize("mode", ["mean", "noisy"])
    def test_rollout_csv_keeps_the_einsum_bytes(self, tmp_path, monkeypatch, mode):
        cfg = tmp_path / "roll.cfg"
        cfg.write_text(f"mode = {mode}\n")

        def run(out):
            with pytest.raises(SystemExit) as exc:
                main(["--seed", "4", "--out", str(out), "--config", str(cfg),
                      "control", "rollout"])
            assert exc.value.code == 0
            return out.read_bytes()

        fast = run(tmp_path / "fast.csv")
        monkeypatch.setattr(control, "_row_quads", einsum_quads)
        monkeypatch.setattr(benchmarks, "_row_quads", einsum_quads)
        assert run(tmp_path / "einsum.csv") == fast


def per_iteration_training(problem, cfg, constraint, seed, written_out=True):
    """train_policy's derivative-free report and iterates with each batch
    drawn from the stream on its own: by the step-by-step reference pass
    (``written_out``, one unblocked pass) or by the engine."""
    dyn, cost, pol, model = problem
    engine = _RolloutEngine(*problem)

    def oracle(theta, n, stream, second):
        K = theta.reshape(pol.gains.shape)
        if written_out:
            mean, sq, w = _full_batch_moments(dyn, cost, pol.with_gains(K), model, stream, n,
                                              "derivative_free")
        else:
            mean, sq, w = engine.moments(K, stream, n, "derivative_free", second)
        return mean.ravel(), sq, w.sum() / n

    seen = Iterates()
    report = projected_sgd(oracle, np.ravel(pol.gains), constraint, cfg,
                           GaussianSampler(seed, dim=1), check_control_certificate(cost, model),
                           seen)
    return report, seen


def assert_same_run(run, ref):
    """Two (report, iterates) pairs of the same run."""
    (report, seen), (ref_report, ref_seen) = run, ref
    assert len(seen) == len(ref_seen) and np.array_equal(seen, ref_seen), "iterates"
    for name in ("zeta", "grad_norms", "etas", "objective_trace", "theta_hat", "final_theta"):
        assert np.array_equal(getattr(report, name), getattr(ref_report, name)), name


@pytest.fixture
def normal_shapes(monkeypatch):
    """The shapes of the sampler's normal draws of the test, in order."""
    shapes = []
    normal = GaussianSampler.normal

    def recorded(self, shape):
        shapes.append(tuple(shape))
        return normal(self, shape)

    monkeypatch.setattr(GaussianSampler, "normal", recorded)
    return shapes


def init_drawn(problem):
    dyn, *rest = problem
    return (dataclasses.replace(dyn, init_state_batch=lambda g, b: 0.1 * g.standard_normal((b, 1))),
            *rest)


def disturbance_drawn(problem):
    dyn, *rest = problem
    return (dataclasses.replace(dyn, disturbance_dim=1,
                                disturbance_batch=lambda g, t, b: g.standard_normal((b, 1))),
            *rest)


class TestRunNoise:
    """Each batch of a training run draws its own noise from the run
    stream, with the bits of a reference that draws every batch on its own."""

    @pytest.mark.parametrize("batch", [2, 128])
    @pytest.mark.parametrize("iterations", [1, 7, 257, 2001])
    def test_one_chunk_runs_draw_eps_per_iteration(self, iterations, batch, normal_shapes):
        problem = ScalarBenchmark().problem()
        cfg = SolverConfig(iterations=iterations, batch=batch)
        constraint = FeasibleSet.ball(np.zeros(2), 0.6)
        seen = Iterates()
        _, report = train_policy(*problem, "derivative_free", cfg, constraint,
                                 GaussianSampler(11, dim=1), seen)
        assert all(len(shape) == 3 for shape in normal_shapes)
        assert normal_shapes == [(2, cfg.pilot_samples, 1)] + [(2, batch, 1)] * iterations
        assert_same_run((report, seen), per_iteration_training(problem, cfg, constraint, 11))

    @pytest.mark.parametrize("build,batch,iterations,written_out", [
        (lambda: init_drawn(ScalarBenchmark().problem()), 128, 9, True),
        (lambda: disturbance_drawn(ScalarBenchmark().problem()), 128, 9, True),
        (lambda: ScalarBenchmark().problem(), 2 * _block_rows(1), 2, False),
        (lambda: ScalarBenchmark(a=0.5, r=100.0, alpha=0.01, horizon=200).problem(), 128, 3,
         True),
    ], ids=["init_state_batch", "disturbance_batch", "several_blocks", "several_chunks"])
    def test_other_runs_draw_per_iteration(self, build, batch, iterations, written_out,
                                           normal_shapes):
        problem = build()
        cfg = SolverConfig(iterations=iterations, batch=batch)
        constraint = FeasibleSet.ball(np.zeros(problem[2].gains.size), 0.6)
        seen = Iterates()
        _, report = train_policy(*problem, "derivative_free", cfg, constraint,
                                 GaussianSampler(13, dim=1), seen)
        assert all(len(shape) == 3 for shape in normal_shapes)
        assert_same_run((report, seen), per_iteration_training(problem, cfg, constraint, 13,
                                                               written_out))

    @pytest.mark.parametrize("a,error,match", [
        (1e308, DivergenceError, "^non-finite state at t=3$"),
        (1e7, FieldEvaluationError, r"at t=3 in rollout \d+$"),
    ], ids=["divergence", "state_cost_bound"])
    def test_errors_keep_their_step_and_rollout(self, a, error, match):
        problem = ScalarBenchmark(a=a).problem()
        # zeta given: no pilot, so the first failing batch is one of the run.
        cfg = SolverConfig(iterations=300, batch=128, zeta=1.0)
        constraint = FeasibleSet.ball(np.zeros(2), 0.6)
        raised = []
        with np.errstate(over="ignore", invalid="ignore"):
            for run in (lambda: train_policy(*problem, "derivative_free", cfg, constraint,
                                             GaussianSampler(17, dim=1)),
                        lambda: per_iteration_training(problem, cfg, constraint, 17,
                                                       written_out=False)):
                with pytest.raises(error, match=match) as err:
                    run()
                raised.append(err.value)
        assert str(raised[0]) == str(raised[1])
        if error is DivergenceError:
            assert raised[0].step == raised[1].step == 3
        else:
            assert np.array_equal(raised[0].theta, raised[1].theta)


class TestCostFold:
    """J is the left fold of the stage costs from 0.0, chunk by chunk in
    step order, at every batch size."""

    @pytest.mark.parametrize("n", [1, 2, 3, 400])
    def test_one_block_matches_the_steps_written_out(self, n):
        problem = long_linear_problem()  # N = 30
        engine = _RolloutEngine(*problem)
        traj = engine.forward(problem[2].gains, *engine.draw(GaussianSampler(5, dim=1), n))
        total = _reference_pass(*problem, GaussianSampler(5, dim=1), n)[-1]
        assert np.array_equal(traj.J.view(np.int64), total.view(np.int64))

    def test_several_blocks_match_the_steps_written_out(self):
        problem = long_linear_problem()
        n = 20_000  # two row blocks of 2-wide rows
        assert len(_row_blocks(n, _RolloutEngine(*problem).width)) == 2
        _, _, w, _ = _per_block_batch(*problem, GaussianSampler(6, dim=1), n,
                                      "derivative_free")
        engine = _RolloutEngine(*problem)
        got = engine.moments(problem[2].gains, GaussianSampler(6, dim=1), n,
                             "derivative_free")[2]
        assert np.array_equal(got.view(np.int64), w.view(np.int64))

    def test_a_single_rollout_of_negative_zero_costs_folds_to_zero(self):
        # As in Rollout.total_cost, the fold starts from 0.0: -0.0 state costs
        # and a control cost that rounds to -0.0 (R within the PSD slack
        # below 0, u = 2.2e-12) sum to 0.0, not -0.0.
        dyn = Dynamics(step=lambda s, y, xi, t: s, state_dim=1, control_dim=1,
                       disturbance_dim=0, horizon=2, vectorized=True)
        cost = ControlCost(state_cost=lambda s, t: np.full(len(s), -0.0),
                           control_weights=[[[-1e-300]]], bound=1.0, vectorized=True)
        pol = Policy(gains=[[[2.2e-12]]], features=lambda s, t: s, vectorized=True)
        r = rollout(dyn, cost, pol, ControlRiskModel(1.0, [np.eye(1)]),
                    GaussianSampler(0, dim=1), mode="mean", s1=[1.0])
        assert np.signbit(r.stage_costs).all()
        assert r.cost == r.total_cost() == 0.0
        assert math.copysign(1.0, r.cost) == 1.0


class TestRowLift:
    """fields._lifted makes one (b, ...) array of a per-row callable's
    results with the bits of stacking them, and hands a vectorized
    callable's result on as it is."""

    def test_rows_keep_the_bits_of_a_stack(self):
        dyn, cost, pol, _ = row_lifted_smooth_problem(np.random.default_rng(3))
        rng = np.random.default_rng(4)
        s, y, xi = rng.uniform(-1, 1, (7, 3)), rng.standard_normal((7, 2)), np.zeros((7, 0))
        for fn, args in ((dyn.step, (s, y, xi)), (dyn.jacobian_state, (s, y, xi)),
                         (pol.features, (s,)), (cost.state_cost_grad, (s,))):
            want = np.stack([np.asarray(fn(*row, 2), dtype=float) for row in zip(*args)])
            got = _lifted(fn, "fn", want.shape[1:], False)(*args, 2)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        want = np.array([float(cost.state_cost(row, 2)) for row in s])
        got = _lifted(cost.state_cost, "state_cost", (), False)(s, 2)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # A per-row draw takes its b rows from the one stream in order.
        draw = lambda g, t: g.standard_normal(3)  # noqa: E731
        g = np.random.default_rng(5)
        want = np.stack([draw(g, 2) for _ in range(7)])
        got = _lifted(draw, "disturbance", (3,), False, draw=True)(np.random.default_rng(5), 2, 7)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_a_vectorized_callable_keeps_its_own_result(self):
        fn = lambda s, t: s  # noqa: E731
        s = np.zeros((7, 3))
        assert _lifted(fn, "features", (3,), True)(s, 2) is s
        assert _lifted(None, "features", (3,), True) is None


def first_row_only(step):
    """``step`` that returns the next state of its first row alone."""
    return lambda s, y, xi, t: step(s, y, xi, t)[0]


def shape_problem(part, vectorized):
    """The scalar benchmark (gains 0.1), or the per-row scalar integrator,
    with one callable that returns the wrong shape: ``part`` names it."""
    if vectorized:
        dyn, cost, pol, model = linear_control_problem(ScalarBenchmark().system(), 1.0,
                                                       gains=[[[0.1]]] * 2)
        if part == "step":
            dyn.step = first_row_only(dyn.step)
        elif part == "state_cost":
            cost.state_cost = lambda s, t: 0.25
        else:
            pol.features = lambda s, t: np.hstack([s, s])
        return dyn, cost, pol, model
    dyn, cost = scalar_integrator(), zero_cost(2, bound=1.0)
    pol = Policy(gains=[0.1 * np.eye(1)] * 2, features=lambda s, t: s,
                 features_jacobian=lambda s, t: np.eye(1))
    if part == "step":  # rows of two shapes: (2,) for row 1, (1,) for the others
        rows = itertools.count()
        dyn.step = lambda s, y, xi, t: np.hstack([s, y]) if next(rows) == 1 else s + y
    elif part == "state_cost":
        cost.state_cost = lambda s, t: np.array([0.25])
    else:
        pol.features = lambda s, t: np.hstack([s, s])
    return dyn, cost, pol, ControlRiskModel(1.0, [np.eye(1)] * 2)


# A result of the wrong shape for each of the other callables, and the
# message's tail after "<name> at t=".
WRONG_RESULTS = {
    "init_state_batch": (lambda g, b: np.zeros(1), r"1 must return shape \(64, 2\), got \(1,\)"),
    "disturbance_batch": (lambda g, t, b: np.zeros(1),
                          r"1 must return shape \(64, 1\), got \(1,\)"),
    "state_cost_grad": (lambda s, t: np.zeros(1), r"3 must return shape \(64, 2\), got \(1,\)"),
    "jacobian_state": (lambda s, y, xi, t: np.eye(2),
                       r"2 must return shape \(64, 2, 2\), got \(2, 2\)"),
    "jacobian_control": (lambda s, y, xi, t: np.ones((2, 1)),
                         r"2 must return shape \(64, 2, 1\), got \(2, 1\)"),
    "features_jacobian": (lambda s, t: np.eye(2),
                          r"2 must return shape \(64, 2, 2\), got \(2, 2\)"),
}


class TestResultShapes:
    """step, state_cost and features must return the batch's shape, on the
    vectorized and the per-row path; anything else is a ContractError
    naming the callable and t, never broadcast over the batch."""

    @pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "per_row"])
    @pytest.mark.parametrize("part,match", [
        ("step", r"^step at t=1 must return shape"),
        ("state_cost", r"^state_cost at t=1 must return shape"),
        ("features", r"^features at t=1 must return shape \(64, 1\), got \(64, 2\)$"),
    ])
    def test_batch_refuses_a_result_of_another_shape(self, part, match, vectorized):
        if part == "features" and not vectorized:  # each row is checked against (q,)
            match = (r"^features at t=1 must return shape \(1,\) for every row, got \(2,\) "
                     r"for row 0$")
        for method in ("derivative_free", "model_based"):
            with pytest.raises(ContractError, match=match):
                policy_gradient_batch(*shape_problem(part, vectorized),
                                      GaussianSampler(0, dim=1), 64, method)

    def test_messages_name_the_shapes(self):
        with pytest.raises(ContractError, match=r"^step at t=1 must return shape \(64, 1\), "
                                                r"got \(1,\)$"):
            policy_gradient_batch(*shape_problem("step", True), GaussianSampler(0, dim=1), 64)
        with pytest.raises(ContractError, match=r"^state_cost at t=1 must return shape "
                                                r"\(64,\), got \(\)$"):
            policy_gradient_batch(*shape_problem("state_cost", True), GaussianSampler(0, dim=1),
                                  64)
        with pytest.raises(ContractError, match=r"^step at t=1 must return shape \(1,\) for "
                                                r"every row, got \(2,\) for row 1$"):
            policy_gradient_batch(*shape_problem("step", False), GaussianSampler(0, dim=1), 64)
        with pytest.raises(ContractError, match=r"^state_cost at t=1 must return shape \(\) "
                                                r"for every row, got \(1,\) for row 0$"):
            policy_gradient_batch(*shape_problem("state_cost", False),
                                  GaussianSampler(0, dim=1), 64)

    @pytest.mark.parametrize("part", ["step", "state_cost", "features"])
    def test_a_single_rollout_refuses_it_too(self, part):
        with pytest.raises(ContractError, match=f"^{part} at t=1 must return shape"):
            rollout(*shape_problem(part, True), GaussianSampler(0, dim=1))

    @pytest.mark.parametrize("part", list(WRONG_RESULTS))
    def test_every_other_callable_is_refused_too(self, part):
        # Two states, one control, two features and a one-entry disturbance
        # that the dynamics ignore; an unbatched result is never broadcast.
        wrong, shapes = WRONG_RESULTS[part]
        dyn, cost, pol, model = smooth_control_problem(np.random.default_rng(3), 2, 1, 3)
        dyn = dataclasses.replace(dyn, disturbance_dim=1,
                                  disturbance_batch=lambda g, t, b: g.standard_normal((b, 1)))
        for part_of in (dyn, cost, pol):
            if hasattr(part_of, part):
                setattr(part_of, part, wrong)
        with pytest.raises(ContractError, match=f"^{part} at t={shapes}$"):
            policy_gradient_batch(dyn, cost, pol, model, GaussianSampler(0, dim=1), 64,
                                  "model_based")

    def test_a_broadcast_jacobian_reaches_its_product_as_a_view(self, monkeypatch):
        strides, vjp = [], control._vjp
        monkeypatch.setattr(control, "_vjp", lambda J, v: strides.append(J.strides[0]) or vjp(J, v))
        policy_gradient_batch(*linear_problem(), GaussianSampler(8, dim=1), 64, "model_based")
        assert len(strides) == 3 * 3 - 2 and set(strides) == {0}

    @pytest.mark.parametrize("part,t,row", [("init_state", 1, 0), ("init_state", 1, 5),
                                            ("disturbance", 1, 0), ("disturbance", 2, 7)])
    def test_a_per_row_draw_of_another_shape_is_refused(self, part, t, row):
        # Rows before `row` (and steps before t) get the right shape; the
        # per-row forms are checked row by row, like their *_batch forms.
        dyn, cost, pol, model = smooth_control_problem(np.random.default_rng(0), 2, 1, 3)
        calls = itertools.count()

        def draw(g, step=1):
            n = next(calls) if step == t else -1
            return g.standard_normal(1 if n == row else 2)

        dyn = dataclasses.replace(dyn, init_state_batch=None, disturbance_dim=2,
                                  **{part: (lambda g: draw(g)) if part == "init_state" else draw})
        match = (f"^{part} at t={t} must return shape \\(2,\\) for every row, "
                 f"got \\(1,\\) for row {row}$")
        for method in ("derivative_free", "model_based"):
            calls = itertools.count()
            with pytest.raises(ContractError, match=match):
                policy_gradient_batch(dyn, cost, pol, model, GaussianSampler(0, dim=1), 64,
                                      method)
        if row == 0:
            calls = itertools.count()
            with pytest.raises(ContractError, match=match):
                rollout(dyn, cost, pol, model, GaussianSampler(0, dim=1))
