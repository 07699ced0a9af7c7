import math

import numpy as np
import pytest

from riskconvex.benchmarks import ScalarBenchmark, linear_control_problem
from riskconvex.control import policy_gradient_batch, rollout
from riskconvex.errors import ContractError
from riskconvex.objective import psd_tolerance
from riskconvex.sampling import GaussianSampler
from riskconvex import synthesis
from riskconvex.synthesis import (
    BlockOperators,
    LinearSystem,
    SynthesisConfig,
    build_block_operators,
    closed_form_expectation,
    detmax_gradient,
    detmax_objective,
    read_gains_csv,
    synthesize,
    write_gains_csv,
)


def scalar_system(a=1.0, b=1.0, q=0.0, r=1.0, sig=1.0, horizon=3):
    N = horizon
    return LinearSystem(A=[[[a]]] * (N - 1), B=[[[b]]] * (N - 1), Q=[[[q]]] * N,
                        R=[[[r]]] * (N - 1), sigma=[[[sig]]] * (N - 1), horizon=N)


def random_system(rng, n, m, horizon, q_scale=0.05, stable=0.7):
    def psd(k, scale):
        mat = rng.standard_normal((k, k))
        return scale * (mat @ mat.T) / k + scale * 0.1 * np.eye(k)

    return LinearSystem(
        A=[stable * rng.standard_normal((n, n)) / np.sqrt(n) for _ in range(horizon - 1)],
        B=[rng.standard_normal((n, m)) / np.sqrt(m) for _ in range(horizon - 1)],
        Q=[psd(n, q_scale) for _ in range(horizon)],
        R=[psd(m, 0.5) + 0.5 * np.eye(m) for _ in range(horizon - 1)],
        sigma=[psd(m, 0.2) + 0.8 * np.eye(m) for _ in range(horizon - 1)],
        horizon=horizon,
    )


def assert_gradient_matches_finite_differences(sys, alpha, gains, h=1e-6):
    grad = detmax_gradient(sys, alpha, gains)
    for t, k in enumerate(gains):
        for i, j in np.ndindex(k.shape):
            up = [g.copy() for g in gains]
            dn = [g.copy() for g in gains]
            up[t][i, j] += h
            dn[t][i, j] -= h
            fd = (detmax_objective(sys, alpha, up).value
                  - detmax_objective(sys, alpha, dn).value) / (2 * h)
            assert grad[t][i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_shape_errors_count_steps_from_one():
    with pytest.raises(ContractError, match="Q at t=1 must be 1x1"):
        LinearSystem(A=[[[1.0]]], B=[[[1.0]]], Q=[np.eye(2), [[0.0]]], R=[[[1.0]]],
                     sigma=[[[1.0]]], horizon=2)


class TestBlockOperators:
    def test_identity_chain(self):
        blocks = build_block_operators(scalar_system())
        assert np.array_equal(blocks.traj_map, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])

    def test_product_chain(self):
        blocks = build_block_operators(scalar_system(a=2.0))
        assert np.array_equal(blocks.traj_map, [[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]])

    def test_first_block_row_always_zero(self):
        rng = np.random.default_rng(0)
        sys = random_system(rng, 2, 2, 5)
        blocks = build_block_operators(sys)
        assert np.all(blocks.traj_map[:2, :] == 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_simulation(self, seed):
        rng = np.random.default_rng(seed)
        n, m, N = 2, 2, 5
        sys = random_system(rng, n, m, N)
        blocks = build_block_operators(sys)
        y = rng.standard_normal((N - 1) * m)
        stacked = blocks.traj_map @ y
        s = np.zeros(n)
        states = [s]
        for t in range(1, N):
            s = sys.A[t - 1] @ s + sys.B[t - 1] @ y[(t - 1) * m:t * m]
            states.append(s)
        direct = np.concatenate(states)
        denom = max(np.linalg.norm(direct), 1e-30)
        assert np.linalg.norm(stacked - direct) / denom <= 1e-12

    def test_gain_placement_shape_and_blocks(self):
        blocks = build_block_operators(scalar_system(horizon=4))
        K = blocks.place_gains([np.array([[k]]) for k in (1.0, 2.0, 3.0)])
        assert K.shape == (3, 4)
        assert np.array_equal(np.diag(K[:, :3]), [1.0, 2.0, 3.0])
        assert np.all(K[:, 3] == 0.0)


class TestDetMaxObjective:
    def test_decoupled_scalar_case(self):
        res = detmax_objective(scalar_system(q=0.0, horizon=2), 1.0, [np.zeros((1, 1))])
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.feasible

    def test_hand_block_algebra(self):
        # N=2 scalar with S=1: W = 1 - q for any gain (K couples through M's zero row)
        q = 0.4
        sys = scalar_system(q=q, horizon=2)
        for k in (0.0, 0.7, -1.2):
            res = detmax_objective(sys, 1.0, [np.array([[k]])])
            assert res.W.shape == (1, 1)
            assert res.W[0, 0] == pytest.approx(1.0 - q, abs=1e-12)
            assert res.value == pytest.approx(math.log(1.0 - q), rel=1e-12)

    def test_infeasible_flag(self):
        res = detmax_objective(scalar_system(q=1.5, horizon=2), 1.0, [np.zeros((1, 1))])
        assert not res.feasible
        assert res.value == -math.inf

    def test_convexity_advisory(self):
        assert detmax_objective(scalar_system(r=1.0, sig=1.0), 1.0,
                                [np.zeros((1, 1))] * 2).convexity_advisory
        assert not detmax_objective(scalar_system(r=1.0, sig=0.5), 1.0,
                                    [np.zeros((1, 1))] * 2).convexity_advisory

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        sys = random_system(rng, 2, 2, 4)
        gains = [0.1 * rng.standard_normal((2, 2)) for _ in range(3)]
        assert_gradient_matches_finite_differences(sys, 1.2, gains)

    def test_w_is_symmetric(self):
        rng = np.random.default_rng(9)
        sys = random_system(rng, 2, 1, 4)
        gains = [rng.standard_normal((1, 2)) for _ in range(3)]
        W = detmax_objective(sys, 0.7, gains).W
        assert np.array_equal(W, W.T)

    def test_midpoint_concavity_when_advisory_holds(self):
        rng = np.random.default_rng(3)
        sys = random_system(rng, 2, 1, 4, q_scale=0.02)
        alpha = 2.0  # alpha R >= S comfortably for these draws
        assert detmax_objective(sys, alpha, [np.zeros((1, 2))] * 3).convexity_advisory
        count = 0
        trials = 0
        while count < 100 and trials < 500:
            trials += 1
            g1 = [0.2 * rng.standard_normal((1, 2)) for _ in range(3)]
            g2 = [0.2 * rng.standard_normal((1, 2)) for _ in range(3)]
            mid = [0.5 * (a + b) for a, b in zip(g1, g2)]
            v1 = detmax_objective(sys, alpha, g1)
            v2 = detmax_objective(sys, alpha, g2)
            vm = detmax_objective(sys, alpha, mid)
            if not (v1.feasible and v2.feasible):
                continue
            count += 1
            assert vm.value >= 0.5 * v1.value + 0.5 * v2.value - 1e-10
        assert count == 100


DECENTRALIZED = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=bool)


def dense_w(sys, alpha, gains):
    """W(K) from the dense operators: S - SKM - (SKM)' - M'(K'(alpha R - S)K + alpha Q)M."""
    blocks = build_block_operators(sys)
    K = blocks.place_gains(gains)
    M, S = blocks.traj_map, blocks.noise_weight
    SKM = S @ K @ M
    inner = K.T @ (alpha * blocks.control_cost - S) @ K + alpha * blocks.state_cost
    return S - SKM - SKM.T - M.T @ inner @ M


class TestFactorizedEvaluator:
    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_oracle(self, seed, masked):
        rng = np.random.default_rng(20 + seed)
        sys = random_system(rng, 3, 2, 5, q_scale=0.01)
        gains = [0.05 * rng.standard_normal((2, 3)) for _ in range(4)]
        if masked:
            mask = np.array([[1, 0, 1], [0, 1, 0]], dtype=bool)
            gains = [k * mask for k in gains]
        res = detmax_objective(sys, 1.3, gains)
        oracle = dense_w(sys, 1.3, gains)
        assert np.linalg.norm(res.W - oracle) <= 1e-12 * np.linalg.norm(oracle)
        w = np.linalg.eigvalsh(res.W)
        assert w[0] > 0.0
        assert res.value == pytest.approx(float(np.sum(np.log(w))), rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("case", ["feasible", "infeasible", "boundary"])
    def test_lazy_min_eig_and_feasible_are_exact(self, case):
        if case == "feasible":
            sys = random_system(np.random.default_rng(7), 3, 2, 5, q_scale=0.01)
            gains = [np.zeros((2, 3))] * 4
        else:
            # N=2 scalar: W = 1 - q, so q = 1 + 1e-10 puts W inside -tol of 0
            q = 1.5 if case == "infeasible" else 1.0 + 1e-10
            sys, gains = scalar_system(q=q, horizon=2), [np.zeros((1, 1))]
        res = detmax_objective(sys, 1.0, gains)
        blocks = build_block_operators(sys)
        tol = psd_tolerance(float(np.linalg.eigvalsh(blocks.control_cost)[-1]),
                            float(np.linalg.eigvalsh(blocks.noise_weight)[-1]))
        w0 = float(np.linalg.eigvalsh(res.W)[0])
        assert res.min_eig == w0
        assert res.feasible == (w0 >= -tol)
        assert res.feasible == (case != "infeasible")
        assert (res.value > -math.inf) == (case == "feasible")

    @pytest.mark.parametrize("seed", range(2))
    def test_gradient_matches_finite_differences_decentralized(self, seed):
        rng = np.random.default_rng(40 + seed)
        sys = random_system(rng, 4, 2, 6, q_scale=0.01)
        gains = [0.1 * rng.standard_normal((2, 4)) * DECENTRALIZED for _ in range(5)]
        assert_gradient_matches_finite_differences(sys, 1.2, gains)

    def test_gradient_off_the_feasible_set_is_that_of_log_abs_det(self):
        # q = 0.6 makes W indefinite but nonsingular here; log det W is -inf.
        sys = scalar_system(q=0.6, horizon=3)
        gains = [np.array([[0.3]]), np.array([[-0.2]])]
        assert np.linalg.eigvalsh(dense_w(sys, 1.0, gains))[0] < 0.0
        grad = detmax_gradient(sys, 1.0, gains)
        h = 1e-6
        for t in range(2):
            up = [k.copy() for k in gains]
            dn = [k.copy() for k in gains]
            up[t][0, 0] += h
            dn[t][0, 0] -= h
            fd = (np.linalg.slogdet(dense_w(sys, 1.0, up))[1]
                  - np.linalg.slogdet(dense_w(sys, 1.0, dn))[1]) / (2 * h)
            assert grad[t][0, 0] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_list_and_stacked_inputs_agree(self):
        rng = np.random.default_rng(11)
        sys = random_system(rng, 3, 2, 5, q_scale=0.01)
        gains = [0.05 * rng.standard_normal((2, 3)) for _ in range(4)]
        stacked = np.array(gains)
        from_list = detmax_objective(sys, 0.9, gains)
        from_array = detmax_objective(sys, 0.9, stacked)
        assert from_list.value == from_array.value
        assert np.array_equal(from_list.W, from_array.W)
        grad_list = detmax_gradient(sys, 0.9, gains)
        grad_array = detmax_gradient(sys, 0.9, stacked)
        assert isinstance(grad_list, list) and isinstance(grad_array, np.ndarray)
        assert grad_array.shape == (4, 2, 3)
        assert np.array_equal(np.array(grad_list), grad_array)

    @pytest.mark.parametrize("bad, message", [
        ([np.zeros((2, 3))] * 3, "need 4 gain matrices"),
        ([np.zeros((2, 3))] * 3 + [np.zeros((3, 2))], "gain at t=4 must be 2x3"),
        (np.zeros((3, 2, 3)), "need 4 gain matrices"),
        (np.zeros((4, 3, 2)), "gain at t=1 must be 2x3"),
    ])
    def test_bad_gains_rejected(self, bad, message):
        sys = random_system(np.random.default_rng(1), 3, 2, 5)
        for fn in (detmax_objective, detmax_gradient):
            with pytest.raises(ContractError, match=message):
                fn(sys, 1.0, bad)

    def test_shared_blocks_follow_alpha(self):
        sys = random_system(np.random.default_rng(12), 2, 1, 4)
        gains = [np.full((1, 2), 0.1)] * 3
        blocks = build_block_operators(sys)
        for alpha in (0.5, 2.0, 0.5):
            shared = detmax_objective(sys, alpha, gains, blocks=blocks)
            fresh = detmax_objective(sys, alpha, gains)
            assert shared.value == fresh.value
            assert shared.convexity_advisory == fresh.convexity_advisory
            assert np.array_equal(detmax_gradient(sys, alpha, gains, blocks=blocks),
                                  detmax_gradient(sys, alpha, gains))

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_synthesize_objective_is_detmax_objective_exactly(self, masked):
        rng = np.random.default_rng(13)
        sys = random_system(rng, 4, 2, 6, q_scale=0.01)
        rep = synthesize(sys, 1.0, structure=[DECENTRALIZED] * 5 if masked else None,
                         config=SynthesisConfig(max_iters=40))
        assert rep.success and isinstance(rep.gains, list) and len(rep.gains) == 5
        assert rep.objective == detmax_objective(sys, 1.0, rep.gains).value

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_synthesize_factors_w_once_per_objective_evaluation(self, masked, monkeypatch):
        from scipy.linalg import lapack

        sys = random_system(np.random.default_rng(14), 4, 2, 6, q_scale=0.01)
        kwargs = dict(structure=[DECENTRALIZED] * 5 if masked else None,
                      config=SynthesisConfig(max_iters=40))
        counts = {"dpotrf": 0, "objective": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(lapack, "dpotrf", counted("dpotrf", lapack.dpotrf))
        monkeypatch.setattr(synthesis, "detmax_objective",
                            counted("objective", synthesis.detmax_objective))
        cached = synthesize(sys, 1.0, **kwargs)
        assert cached.iterations > 1
        assert counts["dpotrf"] == counts["objective"]

        # Without the kept evaluation every gradient factors W again.
        evaluate = BlockOperators._evaluate

        def uncached(self, alpha, G):
            self._last_eval = None
            return evaluate(self, alpha, G)

        monkeypatch.setattr(BlockOperators, "_evaluate", uncached)
        counts.update(dpotrf=0, objective=0)
        fresh = synthesize(sys, 1.0, **kwargs)
        assert counts["dpotrf"] == counts["objective"] + fresh.iterations
        assert fresh.iterations == cached.iterations
        assert fresh.objective == cached.objective
        assert np.array_equal(np.array(fresh.gains), np.array(cached.gains))


class TestClosedFormExpectation:
    def test_matches_scalar_gaussian_moment(self):
        # J = q eps^2 / 2 with eps ~ N(0,1): E exp(alpha J) = (1 - alpha q)^(-1/2)
        q = 0.4
        val = closed_form_expectation(scalar_system(q=q, horizon=2), 1.0,
                                      [np.zeros((1, 1))])
        assert val == pytest.approx((1.0 - q) ** -0.5, rel=1e-12)

    def test_trivial_no_cost_case(self):
        val = closed_form_expectation(scalar_system(q=0.0, horizon=3), 1.0,
                                      [np.zeros((1, 1))] * 2)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_infeasible_returns_inf(self):
        val = closed_form_expectation(scalar_system(q=1.5, horizon=2), 1.0,
                                      [np.zeros((1, 1))])
        assert val == math.inf

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_monte_carlo_rollouts(self, seed):
        rng = np.random.default_rng(100 + seed)
        sys = random_system(rng, 2, 1, 3, q_scale=0.03)
        gains = [0.1 * rng.standard_normal((1, 2)) for _ in range(2)]
        alpha = 0.8
        closed = closed_form_expectation(sys, alpha, gains)
        dyn, cost, policy, model = linear_control_problem(sys, alpha, gains=gains)
        est = policy_gradient_batch(dyn, cost, policy, model,
                                    GaussianSampler(seed, dim=1), 200_000,
                                    "derivative_free")
        assert abs(est.exp_cost_mean - closed) <= 3.0 * est.exp_cost_std_err


class TestSynthesize:
    def test_fully_masked_returns_zero_gains(self):
        sys = scalar_system(q=0.1)
        masks = [np.zeros((1, 1), dtype=bool)] * 2
        rep = synthesize(sys, 1.0, structure=masks)
        assert rep.success
        assert all(np.all(k == 0.0) for k in rep.gains)
        assert rep.objective == pytest.approx(detmax_objective(sys, 1.0, rep.gains).value)

    def test_scalar_benchmark_optimum(self):
        bench = ScalarBenchmark()
        rep = synthesize(bench.system(), bench.alpha)
        assert rep.success and rep.converged
        assert rep.gains[0][0, 0] == pytest.approx(0.0, abs=1e-6)
        assert rep.gains[1][0, 0] == pytest.approx(-bench.alpha * bench.q * bench.sigma_u,
                                                   abs=1e-6)

    def test_infeasible_start_reports_failure(self):
        rep = synthesize(scalar_system(q=1.5, horizon=2), 1.0)
        assert not rep.success
        assert "feasible" in rep.message

    def test_structural_mask_never_beats_unmasked(self):
        rng = np.random.default_rng(5)
        sys = random_system(rng, 2, 2, 4, q_scale=0.05)
        free = synthesize(sys, 1.5)
        mask = [np.eye(2, dtype=bool)] * 3  # block-diagonal gains only
        masked = synthesize(sys, 1.5, structure=mask)
        assert free.success and masked.success
        assert masked.objective <= free.objective + 1e-9
        for k, mk in zip(masked.gains, mask):
            assert np.all(k[~mk] == 0.0)

    def test_feasible_set_projection_applies(self):
        bench = ScalarBenchmark()
        from riskconvex.solver import FeasibleSet

        box = FeasibleSet.box([-0.05] * 2, [0.05] * 2)
        rep = synthesize(bench.system(), bench.alpha, feasible=box,
                         config=SynthesisConfig(max_iters=100))
        assert rep.success
        assert rep.gains[1][0, 0] == pytest.approx(-0.05, abs=1e-6)

    def test_bad_structure_shape_rejected(self):
        with pytest.raises(ContractError):
            synthesize(scalar_system(), 1.0, structure=[np.ones((2, 2), dtype=bool)] * 2)


class TestGainsCsv:
    def test_round_trip(self, tmp_path):
        gains = [np.array([[1.5, -2.25], [0.125, 3.0]]),
                 np.array([[0.1, 0.2], [0.3, 0.4]])]
        write_gains_csv(tmp_path, gains)
        files = sorted(p.name for p in tmp_path.glob("K_*.csv"))
        assert files == ["K_01.csv", "K_02.csv"]
        back = read_gains_csv(tmp_path)
        assert all(np.array_equal(a, b) for a, b in zip(gains, back))

    def test_missing_directory_is_error(self, tmp_path):
        with pytest.raises(ContractError):
            read_gains_csv(tmp_path / "nope")
