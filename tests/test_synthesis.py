import dataclasses
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from riskconvex.benchmarks import ScalarBenchmark, linear_control_problem
from riskconvex.control import policy_gradient_batch
from riskconvex.errors import ContractError, IllConditionedError
from riskconvex.objective import psd_tolerance
from riskconvex.sampling import GaussianSampler
from riskconvex.solver import FeasibleSet
from riskconvex import synthesis
from riskconvex.synthesis import (
    LinearSystem,
    SynthesisConfig,
    closed_form_expectation,
    detmax_gradient,
    detmax_objective,
    synthesize,
)
from support import dense_operators, riccati_gains


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


@pytest.mark.parametrize("name, count", [("A", 1), ("Q", 2), ("sigma", 1)])
def test_a_missing_matrix_names_its_field_and_count(name, count):
    mats = {"A": [[[1.0]]], "B": [[[1.0]]], "Q": [[[0.1]]] * 2, "R": [[[1.0]]],
            "sigma": [[[1.0]]]}
    mats[name] = mats[name][1:]
    with pytest.raises(ContractError, match=f"need {count} {name} matrices"):
        LinearSystem(horizon=2, **mats)


def assert_layout_matches_dense(sys):
    """The library's row blocks M_t and Gram matrix M'QM against the
    dense operators of the test oracle."""
    N, n = sys.horizon, sys.state_dim
    blocks = synthesis._build_block_operators(sys)
    ops = dense_operators(sys)
    p = ops.M.shape[1]
    assert np.array_equal(blocks.traj_rows, ops.M[:(N - 1) * n].reshape(N - 1, n, p))
    gram = ops.M.T @ ops.Q @ ops.M
    assert np.linalg.norm(blocks.state_gram - gram) <= 1e-12 * max(np.linalg.norm(gram), 1e-300)
    return blocks, ops


class TestInputChecks:
    def test_negative_control_cost_is_rejected(self):
        with pytest.raises(ContractError, match="R at t=2 must be positive semidefinite"):
            LinearSystem(A=[[[1.0]]] * 2, B=[[[1.0]]] * 2, Q=[[[0.1]]] * 3,
                         R=[[[1.0]], [[-2.0]]], sigma=[[[1.0]]] * 2, horizon=3)

    @pytest.mark.parametrize("name, bad", [("A", math.nan), ("A", math.inf),
                                           ("B", math.inf), ("B", -math.inf)])
    def test_non_finite_dynamics_are_rejected(self, name, bad):
        mats = {"A": [[[1.0]]] * 2, "B": [[[1.0]]] * 2}
        mats[name] = [[[1.0]], [[bad]]]
        with pytest.raises(ContractError, match=f"{name} at t=2 must be finite"):
            LinearSystem(Q=[[[0.1]]] * 3, R=[[[1.0]]] * 2, sigma=[[[1.0]]] * 2, horizon=3,
                         **mats)

    @pytest.mark.parametrize("sig", [-1.0, 0.0])
    def test_noise_that_is_not_positive_definite_is_ill_conditioned(self, sig):
        with pytest.raises(IllConditionedError, match="control noise at t=2"):
            LinearSystem(A=[[[1.0]]] * 2, B=[[[1.0]]] * 2, Q=[[[0.1]]] * 3,
                         R=[[[1.0]]] * 2, sigma=[[[1.0]], [[sig]]], horizon=3)

    @pytest.mark.parametrize("field, value", [("max_iters", 0)])
    def test_synthesis_config_rejects(self, field, value):
        with pytest.raises(ContractError, match=field):
            SynthesisConfig(**{field: value})


class TestReadOnlySystem:
    def test_fields_cannot_be_assigned(self):
        sys = scalar_system()
        with pytest.raises(dataclasses.FrozenInstanceError):
            sys.A = [[[2.0]]] * 2

    @pytest.mark.parametrize("name", ["A", "B", "Q", "R", "sigma"])
    def test_matrices_cannot_be_written(self, name):
        sys = scalar_system()
        assert isinstance(getattr(sys, name), np.ndarray)
        with pytest.raises(ValueError, match="read-only"):
            getattr(sys, name)[0][0, 0] = 2.0

    def test_later_edits_of_the_callers_arrays_do_not_reach_the_system(self):
        rng = np.random.default_rng(15)
        mats = {"A": [0.5 * rng.standard_normal((2, 2)) for _ in range(3)],
                "B": [rng.standard_normal((2, 1)) for _ in range(3)],
                "Q": [0.05 * np.eye(2) for _ in range(4)],
                "R": [np.eye(1) for _ in range(3)], "sigma": [np.eye(1) for _ in range(3)]}
        kept = {name: [m.copy() for m in ms] for name, ms in mats.items()}
        sys = LinearSystem(horizon=4, **mats)
        for ms in mats.values():
            for mat in ms:
                mat *= 1.5
        gains = [np.full((1, 2), 0.1)] * 3
        assert detmax_objective(sys, 1.0, gains).value == \
            detmax_objective(LinearSystem(horizon=4, **kept), 1.0, gains).value
        assert detmax_objective(LinearSystem(horizon=4, **mats), 1.0, gains).value != \
            detmax_objective(sys, 1.0, gains).value

    def test_fields_are_read_only_stacks_with_the_noise_inverse(self):
        rng = np.random.default_rng(16)
        sys = random_system(rng, 3, 2, 5)
        shapes = {"A": (4, 3, 3), "B": (4, 3, 2), "Q": (5, 3, 3), "R": (4, 2, 2),
                  "sigma": (4, 2, 2), "sigma_inv": (4, 2, 2)}
        for name, shape in shapes.items():
            arr = getattr(sys, name)
            assert arr.dtype == np.float64 and arr.shape == shape
            assert not arr.flags.writeable
        assert np.allclose(sys.sigma_inv @ sys.sigma, np.eye(2), atol=1e-12)

    def test_the_control_problem_reuses_the_system_factorization(self, monkeypatch):
        # Sigma_t is factored once per system: the problem's risk model shares
        # the system's inverses and roots and runs no eigendecomposition.
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        sys = random_system(np.random.default_rng(18), 3, 2, 5)
        assert calls == [(4, 2, 2)]
        _, _, _, model = linear_control_problem(sys, 0.8)
        assert calls == [(4, 2, 2)]
        assert np.shares_memory(model.noise_inv, sys.sigma_inv)
        assert np.shares_memory(model.control_noise, sys.sigma)
        assert np.shares_memory(model.noise_root, sys._noise.root)
        assert not model.noise_root.flags.writeable

    def test_list_and_array_input_give_the_same_bits(self):
        rng = np.random.default_rng(17)
        listed = random_system(rng, 3, 2, 5)
        stacked = LinearSystem(A=np.array(listed.A), B=np.array(listed.B),
                               Q=np.array(listed.Q), R=np.array(listed.R),
                               sigma=np.array(listed.sigma), horizon=5)
        gains = 0.05 * rng.standard_normal((4, 2, 3))
        a = detmax_objective(listed, 0.8, list(gains))
        b = detmax_objective(stacked, 0.8, gains)
        assert a.value == b.value and np.array_equal(a.W, b.W)

    def test_each_result_owns_its_w(self):
        sys, gains = scalar_system(q=0.3), [np.zeros((1, 1))] * 2
        first = detmax_objective(sys, 1.0, gains)
        kept = first.W.copy()
        first.W[0, 0] = 0.0
        again = detmax_objective(sys, 1.0, gains)
        assert again.W is not first.W and np.array_equal(again.W, kept)
        assert again.value == first.value

    def test_the_constants_of_w_cannot_be_assigned(self):
        ops = scalar_system()._operators
        with pytest.raises(dataclasses.FrozenInstanceError):
            ops.state_gram = np.zeros((2, 2))


class TestBlockOperators:
    def test_identity_chain(self):
        _, ops = assert_layout_matches_dense(scalar_system(q=0.3))
        assert np.array_equal(ops.M, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])

    def test_product_chain(self):
        _, ops = assert_layout_matches_dense(scalar_system(a=2.0, q=0.3))
        assert np.array_equal(ops.M, [[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]])

    def test_first_block_row_always_zero(self):
        rng = np.random.default_rng(0)
        blocks, ops = assert_layout_matches_dense(random_system(rng, 2, 2, 5))
        assert np.all(ops.M[:2, :] == 0.0)
        assert np.all(blocks.traj_rows[0] == 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_simulation(self, seed):
        rng = np.random.default_rng(seed)
        n, m, N = 2, 2, 5
        sys = random_system(rng, n, m, N)
        blocks, ops = assert_layout_matches_dense(sys)
        y = rng.standard_normal((N - 1) * m)
        s = np.zeros(n)
        states = [s]
        for t in range(1, N):
            s = sys.A[t - 1] @ s + sys.B[t - 1] @ y[(t - 1) * m:t * m]
            states.append(s)
        direct = np.concatenate(states)
        denom = max(np.linalg.norm(direct), 1e-30)
        assert np.linalg.norm(ops.M @ y - direct) / denom <= 1e-12
        stacked = (blocks.traj_rows @ y).ravel()   # states s_1..s_{N-1}
        assert np.linalg.norm(stacked - direct[:(N - 1) * n]) / denom <= 1e-12

    def test_gain_placement_shape_and_blocks(self):
        ops = dense_operators(scalar_system(horizon=4))
        K = ops.place([np.array([[k]]) for k in (1.0, 2.0, 3.0)])
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
                                [np.zeros((1, 1))] * 2).convexity.holds
        assert not detmax_objective(scalar_system(r=1.0, sig=0.5), 1.0,
                                    [np.zeros((1, 1))] * 2).convexity.holds

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
        assert detmax_objective(sys, alpha, [np.zeros((1, 2))] * 3).convexity.holds
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
    ops = dense_operators(sys)
    K = ops.place(gains)
    SKM = ops.S @ K @ ops.M
    inner = K.T @ (alpha * ops.R - ops.S) @ K + alpha * ops.Q
    return ops.S - SKM - SKM.T - ops.M.T @ inner @ ops.M


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
        ops = dense_operators(sys)
        tol = psd_tolerance(float(np.linalg.eigvalsh(ops.R)[-1]),
                            float(np.linalg.eigvalsh(ops.S)[-1]))
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

    def test_gradient_at_an_indefinite_w_is_a_contract_error(self):
        # q = 0.6 makes W indefinite but nonsingular here; log det W is -inf.
        sys = scalar_system(q=0.6, horizon=3)
        gains = [np.array([[0.3]]), np.array([[-0.2]])]
        assert np.linalg.eigvalsh(dense_w(sys, 1.0, gains))[0] < 0.0
        with pytest.raises(ContractError, match="not positive definite"):
            detmax_gradient(sys, 1.0, gains)

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
        assert grad_array.shape == (4, 2, 3)
        assert np.array_equal(grad_list, grad_array)

    @pytest.mark.parametrize("bad, message", [
        ([np.zeros((2, 3))] * 3, "need 4 gain matrices"),
        ([np.zeros((2, 3))] * 3 + [np.zeros((3, 2))], "gain at t=4 must be 2x3"),
        (np.zeros((3, 2, 3)), "need 4 gain matrices"),
        (np.zeros((4, 3, 2)), "gain at t=1 must be 2x3"),
        ([np.zeros((2, 3))] * 2 + [np.full((2, 3), math.nan)] + [np.zeros((2, 3))],
         "gain at t=3 must be finite"),
        ([np.zeros((2, 3))] * 3 + [np.array([[0.0, math.inf, 0.0], [0.0] * 3])],
         "gain at t=4 must be finite"),
        (np.stack([np.zeros((2, 3))] * 3 + [np.full((2, 3), -math.inf)]),
         "gain at t=4 must be finite"),
    ])
    def test_bad_gains_rejected(self, bad, message):
        sys = random_system(np.random.default_rng(1), 3, 2, 5)
        for fn in (detmax_objective, detmax_gradient, closed_form_expectation):
            with pytest.raises(ContractError, match=message):
                fn(sys, 1.0, bad)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_alpha_must_be_positive_and_finite(self, alpha):
        sys = scalar_system()
        for fn in (detmax_objective, detmax_gradient, closed_form_expectation):
            with pytest.raises(ContractError, match="alpha must be positive and finite"):
                fn(sys, alpha, [np.zeros((1, 1))] * 2)

    def test_switching_alpha_matches_a_fresh_system(self):
        def system():
            return random_system(np.random.default_rng(12), 2, 1, 4)

        sys = system()
        gains = [np.full((1, 2), 0.1)] * 3
        for alpha in (0.5, 2.0, 0.5):
            kept = detmax_objective(sys, alpha, gains)
            fresh = detmax_objective(system(), alpha, gains)
            assert kept.value == fresh.value
            assert kept.convexity.holds == fresh.convexity.holds
            assert np.array_equal(detmax_gradient(sys, alpha, gains),
                                  detmax_gradient(system(), alpha, gains))
            assert closed_form_expectation(sys, alpha, gains) == \
                closed_form_expectation(system(), alpha, gains)

    def test_threads_sharing_a_system_match_fresh_systems(self):
        def system():
            return random_system(np.random.default_rng(17), 4, 2, 6, q_scale=0.01)

        gains = 0.05 * np.random.default_rng(18).standard_normal((5, 2, 4))
        alphas = (0.7, 1.4)   # alpha and 2 alpha, alternated by each thread

        def evaluate(sys, alpha):
            res = detmax_objective(sys, alpha, gains)
            return (res.value, res.W, detmax_gradient(sys, alpha, gains),
                    closed_form_expectation(sys, alpha, gains))

        fresh = {alpha: evaluate(system(), alpha) for alpha in alphas}
        shared = system()
        start = threading.Barrier(2)

        def worker(first):
            start.wait()
            out = []
            for k in range(60):
                alpha = alphas[(first + k) % 2]
                out.append((alpha, evaluate(shared, alpha)))
            return out

        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = list(pool.map(worker, (0, 1)))
        for run in runs:
            for alpha, (value, W, grad, expectation) in run:
                ref = fresh[alpha]
                assert value == ref[0] and expectation == ref[3]
                assert np.array_equal(W, ref[1]) and np.array_equal(grad, ref[2])

    def test_the_system_builds_its_constants_once(self, monkeypatch):
        builds = []
        build = synthesis._build_block_operators
        monkeypatch.setattr(synthesis, "_build_block_operators",
                            lambda sys: builds.append(1) or build(sys))
        sys = random_system(np.random.default_rng(16), 4, 2, 6, q_scale=0.01)
        config = SynthesisConfig(max_iters=40)
        full = synthesize(sys, 1.0, config=config)
        masked = synthesize(sys, 1.0, structure=[DECENTRALIZED] * 5, config=config)
        for rep in (full, masked):
            assert rep.success
            assert closed_form_expectation(sys, 1.0, rep.gains) < math.inf
        detmax_gradient(sys, 1.0, full.gains)
        assert len(builds) == 1

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_synthesize_objective_is_detmax_objective_exactly(self, masked):
        rng = np.random.default_rng(13)
        sys = random_system(rng, 4, 2, 6, q_scale=0.01)
        rep = synthesize(sys, 1.0, structure=[DECENTRALIZED] * 5 if masked else None,
                         config=SynthesisConfig(max_iters=40))
        assert rep.success and isinstance(rep.gains, np.ndarray) and len(rep.gains) == 5
        assert rep.objective == detmax_objective(sys, 1.0, rep.gains).value

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_synthesize_factors_w_once_per_evaluated_candidate(self, masked, monkeypatch):
        from scipy.linalg import lapack

        sys = random_system(np.random.default_rng(14), 4, 2, 6, q_scale=0.01)
        counts = {"dpotrf": 0, "evaluate": 0, "newton": 0, "objective": 0}
        p = 5 * 2  # W is p x p; the Newton system has one row per visible gain direction

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                if name == "dpotrf" and np.shape(args[0]) != (p, p):
                    counts["newton"] += 1
                else:
                    counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(lapack, "dpotrf", counted("dpotrf", lapack.dpotrf))
        monkeypatch.setattr(synthesis._BlockOperators, "_evaluate",
                            counted("evaluate", synthesis._BlockOperators._evaluate))
        monkeypatch.setattr(synthesis, "_log_det", counted("objective", synthesis._log_det))
        rep = synthesize(sys, 1.0, structure=[DECENTRALIZED] * 5 if masked else None,
                         config=SynthesisConfig(max_iters=40))
        # The start point and every line-search candidate are evaluated
        # once, for their objective value; each iteration's Newton pass
        # reuses the factor of its iterate.
        assert rep.iterations > 1
        assert counts["evaluate"] == counts["objective"] >= rep.iterations
        assert counts["dpotrf"] == counts["evaluate"]
        assert counts["newton"] == rep.iterations


def entry_coordinates(blocks, masks):
    """One Newton coordinate per free gain entry (t, i, j): row t m + i,
    direction e_j, so -H is indexed like the free entries themselves."""
    t, i, j = np.nonzero(masks)
    return synthesis._Coordinates(row=t * blocks.control_dim + i,
                                  vectors=np.eye(blocks.state_dim)[j],
                                  traj=blocks.traj_rows[t, j].T)


class TestNewtonSystem:
    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    @pytest.mark.parametrize("alpha, advisory", [(2.5, True), (0.4, False)])
    def test_hessian_matches_central_differences_of_the_gradient(self, alpha, advisory,
                                                                 masked):
        rng = np.random.default_rng(60)
        sys = random_system(rng, 4, 2, 5, q_scale=0.01)
        masks = np.array([DECENTRALIZED if masked else np.ones((2, 4), bool)] * 4)
        gains = 0.1 * rng.standard_normal((4, 2, 4)) * masks
        blocks = sys._operators
        coords = entry_coordinates(blocks, masks)
        terms = blocks._alpha_terms(alpha)
        _, Z, L = blocks._evaluate(terms, gains)
        grad, neg_hess, g = synthesis._newton_terms(blocks, terms, Z, L, coords)
        assert detmax_objective(sys, alpha, gains).convexity.holds == advisory
        free = np.nonzero(masks)
        assert np.array_equal(grad, detmax_gradient(sys, alpha, gains))
        assert np.allclose(g, grad[free], rtol=1e-12, atol=1e-14)

        h = 1e-5
        fd = np.empty_like(neg_hess)
        for k, entry in enumerate(zip(*free)):
            up, dn = gains.copy(), gains.copy()
            up[entry] += h
            dn[entry] -= h
            fd[:, k] = (detmax_gradient(sys, alpha, up)[free]
                        - detmax_gradient(sys, alpha, dn)[free]) / (2 * h)
        scale = np.abs(neg_hess).max()
        assert np.abs(neg_hess + fd).max() <= 1e-7 * scale
        assert np.abs(neg_hess - neg_hess.T).max() <= 1e-12 * scale
        if advisory:
            assert np.linalg.eigvalsh(neg_hess)[0] >= -1e-12 * scale
        # K_1 moves nothing: s_1 = 0, so its rows and columns of -H vanish.
        first = free[0] == 0
        assert np.all(neg_hess[first] == 0.0) and np.all(neg_hess[:, first] == 0.0)

    def test_visible_coordinates_skip_what_w_cannot_see(self):
        sys = random_system(np.random.default_rng(61), 4, 2, 5, q_scale=0.01)
        blocks = sys._operators
        for masks in (np.ones((4, 2, 4), bool), np.array([DECENTRALIZED] * 4)):
            coords = synthesis._visible_coordinates(blocks, masks)
            steps = coords.row // 2
            # None for K_1 (s_1 = 0); m per row of K_2 (range(B_1)); the free count after.
            assert not np.any(steps == 0)
            assert np.sum(steps == 1) == 2 * min(2, masks[1, 0].sum())
            assert np.sum(steps >= 2) == masks[2:].sum()
            rows = masks.reshape(-1, 4)[coords.row]
            assert np.all(coords.vectors[~rows] == 0.0)
            traj = np.einsum("kn,knp->pk", coords.vectors, blocks.traj_rows[steps])
            assert np.allclose(coords.traj, traj, rtol=0.0, atol=1e-14)


class TestRiccatiOracle:
    """Unmasked det-max synthesis against the risk-sensitive Riccati
    recursion (tests/support.py), which never forms W."""

    @pytest.fixture(scope="class")
    def case(self):
        sys = random_system(np.random.default_rng(1), 4, 2, 30, q_scale=0.01)
        alpha = 3.0
        return sys, alpha, synthesize(sys, alpha), riccati_gains(sys, alpha)

    def test_gains_match_on_the_trajectory(self, case):
        sys, alpha, rep, ric = case
        blocks = sys._operators
        reached = np.matmul(np.array(rep.gains), blocks.traj_rows)   # K_t M_t
        oracle = np.matmul(np.array(ric), blocks.traj_rows)
        assert np.abs(reached - oracle).max() <= 1e-8
        ric_value = detmax_objective(sys, alpha, ric).value
        assert rep.objective == pytest.approx(ric_value, rel=1e-10)
        assert detmax_objective(sys, alpha, ric).convexity.holds

    def test_unseen_gain_entries_stay_put(self, case):
        sys, _, rep, _ = case
        assert np.all(rep.gains[0] == 0.0)
        null = np.linalg.svd(sys.B[0])[0][:, 2:]       # null(B_1')
        k2 = rep.gains[1]
        assert np.linalg.norm(k2 @ null) <= 1e-12 * np.linalg.norm(k2)

    def test_converges_in_a_few_newton_steps(self, case):
        # Projected gradient ascent stopped here after 300 unconverged steps.
        rep = case[2]
        assert rep.success and rep.converged
        assert rep.iterations <= 10

    def test_gradient_steps_where_the_hessian_does_not_factor(self, monkeypatch):
        from scipy.linalg import lapack

        # alpha R < S: log det W is not concave, and -H is indefinite at
        # one iterate of this run, which then takes a gradient step.
        sys, alpha = scalar_system(a=1.4, b=0.6, q=0.55, r=0.1, sig=1.45, horizon=4), 0.14
        infos = []
        dpotrf = lapack.dpotrf

        def recorded(a, *args, **kwargs):
            out = dpotrf(a, *args, **kwargs)
            if np.shape(a) != (3, 3):   # the Newton system, not W
                infos.append(out[1])
            return out

        monkeypatch.setattr(lapack, "dpotrf", recorded)
        rep = synthesize(sys, alpha)
        assert not rep.convexity.holds
        assert any(info != 0 for info in infos) and infos[-1] == 0
        assert rep.success and rep.converged
        blocks = sys._operators
        ric = riccati_gains(sys, alpha)
        assert np.abs(np.matmul(np.array(rep.gains), blocks.traj_rows)
                      - np.matmul(np.array(ric), blocks.traj_rows)).max() <= 1e-8
        assert rep.objective == pytest.approx(detmax_objective(sys, alpha, ric).value, rel=1e-10)


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

    @pytest.mark.parametrize("round_index", [0, 2])
    def test_stops_on_the_newton_decrement(self, round_index, monkeypatch):
        # Rounds 0 and 2 of the N=30 det-max benchmark at seed 101: after
        # the fourth Newton step the predicted gain is below the
        # objective's rounding, and the run used to spend 64-68 rejected
        # line-search trials finding that out.
        n, m, N = 4, 2, 30
        base = np.random.default_rng(3)
        A0 = base.standard_normal((n, n))
        A0 *= 0.8 / max(abs(np.linalg.eigvals(A0)))
        B0 = 0.5 * base.standard_normal((n, m))
        rng = np.random.default_rng(np.random.SeedSequence([101, 4]))
        for _ in range(round_index + 1):
            A = A0 + 0.03 * rng.standard_normal((n, n))
            B = B0 + 0.03 * rng.standard_normal((n, m))
            rng.integers(0, 2**63, size=2)
        sys = LinearSystem(A=[A] * (N - 1), B=[B] * (N - 1), Q=[0.005 * np.eye(n)] * N,
                           R=[np.eye(m)] * (N - 1), sigma=[np.eye(m)] * (N - 1), horizon=N)
        evaluations = []
        objective = synthesis.detmax_objective
        monkeypatch.setattr(synthesis, "detmax_objective",
                            lambda *a, **k: evaluations.append(1) or objective(*a, **k))
        rep = synthesize(sys, 1.0)
        assert rep.converged and len(evaluations) <= 6
        ric = objective(sys, 1.0, riccati_gains(sys, 1.0)).value
        assert rep.objective == pytest.approx(ric, rel=1e-12)

    def test_report_gains_are_one_stacked_array(self):
        # The converged report and the infeasible-start report alike.
        cases = [(random_system(np.random.default_rng(4), 3, 2, 5), (4, 2, 3)),
                 (scalar_system(q=1.5, horizon=2), (1, 1, 1))]
        for sys, shape in cases:
            gains = synthesize(sys, 1.0).gains
            assert type(gains) is np.ndarray and gains.dtype == np.float64
            assert gains.shape == shape

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
        box = FeasibleSet.box([-0.05] * 2, [0.05] * 2)
        rep = synthesize(bench.system(), bench.alpha, feasible=box,
                         config=SynthesisConfig(max_iters=100))
        assert rep.success
        assert rep.gains[1][0, 0] == pytest.approx(-0.05, abs=1e-6)

    @pytest.mark.parametrize("feasible", [FeasibleSet.ball(np.zeros(5), 1.0),
                                          FeasibleSet.box([-1.0] * 5, [1.0] * 5)],
                             ids=["ball", "box"])
    def test_feasible_set_of_the_wrong_size_rejected(self, feasible):
        with pytest.raises(ContractError, match="feasible set dimension 5 != 2 gain entries"):
            synthesize(ScalarBenchmark().system(), 1.0, feasible=feasible)

    def test_bad_structure_shape_rejected(self):
        with pytest.raises(ContractError):
            synthesize(scalar_system(), 1.0, structure=[np.ones((2, 2), dtype=bool)] * 2)


    def test_structure_mask_message_names_the_step_and_shape(self):
        sys = random_system(np.random.default_rng(18), 2, 2, 4)
        masks = [np.ones((2, 2), dtype=bool), np.ones((2, 1), dtype=bool),
                 np.ones((2, 2), dtype=bool)]
        with pytest.raises(ContractError, match=r"structure mask at t=2 must be 2x2, "
                                                r"got shape \(2, 1\)"):
            synthesize(sys, 1.0, structure=masks)
        with pytest.raises(ContractError, match="need 3 structure mask matrices, got 2"):
            synthesize(sys, 1.0, structure=masks[:2])
