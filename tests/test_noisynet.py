import math

import numpy as np
import pytest

from riskconvex.control import check_control_certificate, train_policy
from riskconvex.datasets import Dataset, make_sine
from riskconvex.errors import CertificateError, ContractError
from riskconvex.csvio import read_gains_csv, read_matrix, write_gains_csv
from riskconvex.objective import convexity_certificate
from riskconvex.noisynet import (
    NoisyNetConfig,
    build_control_problem,
    mse,
    predict,
    train_noisy_net,
)
from riskconvex.sampling import GaussianSampler
from riskconvex.solver import FeasibleSet, SolverConfig, SolverReport
from support import Iterates


def small_config(**kwargs):
    base = dict(widths=[1, 4, 1], alpha=3.0, noise_scales=[0.15, 0.15],
                penalty_weights=[0.05, 0.05], loss_bound=0.5)
    base.update(kwargs)
    return NoisyNetConfig(**base)


class TestConfig:
    def test_boundary_penalty_default_certifies(self):
        cfg = NoisyNetConfig(widths=[1, 4, 1], alpha=2.0, noise_scales=[0.5, 0.5])
        assert np.allclose(cfg.certificate_margins(), 0.0, atol=1e-12)
        assert cfg.penalty_weights == pytest.approx([1.0 / (2.0 * 0.25)] * 2)

    def test_sub_boundary_penalty_fails_certificate(self):
        cfg = small_config()
        assert np.all(cfg.certificate_margins() < 0.0)

    def test_validation(self):
        with pytest.raises(ContractError):
            NoisyNetConfig(widths=[1], alpha=1.0, noise_scales=[])
        with pytest.raises(ContractError):
            NoisyNetConfig(widths=[1, 2], alpha=1.0, noise_scales=[0.1, 0.1])
        with pytest.raises(ContractError):
            NoisyNetConfig(widths=[1, 2], alpha=0.0, noise_scales=[0.1])
        for bad in (math.nan, math.inf):
            with pytest.raises(ContractError, match="noise scales"):
                NoisyNetConfig(widths=[1, 2], alpha=1.0, noise_scales=[bad])
            with pytest.raises(ContractError, match="penalty weights"):
                NoisyNetConfig(widths=[1, 2], alpha=1.0, noise_scales=[0.1],
                               penalty_weights=[bad])

    @pytest.mark.parametrize("penalty", [None, [1.0]])
    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_scale_whose_square_leaves_the_floats_is_rejected(self, scale, penalty):
        with pytest.raises(ContractError, match="with 1 / sigma_t\\^2 finite"):
            NoisyNetConfig(widths=[1, 2], alpha=1.0, noise_scales=[scale],
                           penalty_weights=penalty)

    def test_default_penalty_that_leaves_the_floats_is_rejected(self):
        with pytest.raises(ContractError, match="penalty weights must be nonnegative and finite"):
            NoisyNetConfig(widths=[1, 2], alpha=1e-300, noise_scales=[1e-100])

    def test_dims(self):
        cfg = NoisyNetConfig(widths=[2, 5, 3], alpha=1.0, noise_scales=[0.1, 0.1])
        assert cfg.internal_width == 5
        assert cfg.input_dim == 2 and cfg.output_dim == 3
        assert cfg.n_layers == 2


class TestControlProblemMapping:
    @pytest.mark.parametrize("cfg, holds", [
        (NoisyNetConfig(widths=[1, 3, 1], alpha=4.0, noise_scales=[0.3, 0.3]), True),
        (small_config(), False),
        (NoisyNetConfig(widths=[1, 5, 1], alpha=2.0, noise_scales=[0.7, 0.2],
                        penalty_weights=[0.5, 9.0]), False),
    ], ids=["boundary", "forced", "forced_mixed"])
    def test_certificate_matches_control_module(self, cfg, holds):
        # The (w, w) blocks train_policy checks and the per-layer 1 x 1 blocks
        # c_t and 1 / sigma_t^2 give the same verdict here, bit for bit, and the
        # config's margins are those of the (w, w) certificate.
        ds = make_sine(20, GaussianSampler(0, dim=1))
        dyn, cost, policy, model = build_control_problem(cfg, ds)
        cert = check_control_certificate(cost, model)
        ref = convexity_certificate(cfg.alpha, np.reshape(cfg.penalty_weights, (-1, 1, 1)),
                                    np.reshape([1.0 / s**2 for s in cfg.noise_scales], (-1, 1, 1)))
        assert cert.holds is holds
        assert np.array_equal(cert.margins, ref.margins)
        assert np.array_equal(cert.tols, ref.tols)
        assert np.array_equal(cfg.certificate_margins(), cert.margins)

    def test_one_certificate_per_run_at_a_tiny_noise_scale(self):
        # At sigma_t = 1e-150 the (w, w) inverse of Sigma_t rounds away from
        # the 1 x 1 block 1 / sigma_t^2 (margins about -3e284, not 0): the
        # run reports, and the config's margins read, the certificate of the
        # control problem it trains.  Zero inputs keep the penalty finite.
        cfg = NoisyNetConfig(widths=[1, 6, 1], alpha=16.0, noise_scales=[1e-150] * 2)
        ds = Dataset(X=np.zeros((8, 1)), y=np.linspace(-0.5, 0.5, 8))
        _, cost, _, model = build_control_problem(cfg, ds)
        ref = check_control_certificate(cost, model)
        rep = train_noisy_net(ds, cfg, GaussianSampler(1, dim=1), iterations=3, batch=8)
        assert rep.convexity is rep.run.convexity
        assert np.array_equal(rep.convexity.margins, ref.margins)
        assert np.array_equal(rep.convexity.tols, ref.tols)
        assert np.array_equal(cfg.certificate_margins(), ref.margins)
        assert rep.convexity.margin == ref.margin < 0.0 and rep.certified

    def test_predict_matches_mean_rollout(self):
        from riskconvex.control import rollout

        cfg = small_config()
        ds = make_sine(10, GaussianSampler(1, dim=1))
        dyn, cost, policy, model = build_control_problem(cfg, ds)
        rng = np.random.default_rng(3)
        weights = [0.3 * rng.standard_normal((4, 4)) for _ in range(2)]
        preds = predict(cfg, weights, ds.X)
        for i in range(ds.size):
            s1 = np.zeros(5)
            s1[0] = ds.X[i, 0]
            s1[4] = ds.y[i]
            r = rollout(dyn, cost, policy.with_gains(weights), model,
                        GaussianSampler(0, dim=1), mode="mean", s1=s1)
            assert preds[i] == pytest.approx(r.states[-1][0], rel=1e-12)

    def test_terminal_loss_is_clamped_squared_error(self):
        cfg = small_config(loss_bound=0.2)
        ds = Dataset(X=np.array([[0.5]]), y=np.array([0.3]))
        dyn, cost, policy, model = build_control_problem(cfg, ds)
        s = np.zeros((1, 5))
        s[0, 0] = 0.9   # prediction
        s[0, 4] = 0.3   # carried target
        se = (0.9 - 0.3) ** 2
        assert cost.state_cost(s, dyn.horizon)[0] == pytest.approx(0.2 * np.tanh(se / 0.2))
        assert cost.state_cost(s, 1)[0] == 0.0


class TestTraining:
    def test_refuses_void_certificate_without_force(self):
        cfg = small_config()
        ds = make_sine(30, GaussianSampler(0, dim=1))
        with pytest.raises(CertificateError):
            train_noisy_net(ds, cfg, GaussianSampler(1, dim=1), iterations=5, batch=8)

    def test_forced_run_warns_at_the_callers_line(self):
        ds = make_sine(30, GaussianSampler(0, dim=1))
        with pytest.warns(UserWarning, match="per-step certificate fails") as record:
            train_noisy_net(ds, small_config(), GaussianSampler(1, dim=1), iterations=2,
                            batch=8, force=True)
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.filterwarnings("ignore:per-step certificate fails")
    def test_forced_run_flags_void_certificate(self):
        cfg = small_config()
        ds = make_sine(30, GaussianSampler(0, dim=1))
        rep = train_noisy_net(ds, cfg, GaussianSampler(1, dim=1), iterations=10,
                              batch=8, force=True, eval_every=5)
        assert not rep.certified
        assert np.all(rep.convexity.margins < 0.0)

    @pytest.mark.filterwarnings("ignore:per-step certificate fails")
    def test_sine_fit_beats_variance_decisively(self):
        cfg = small_config()
        data_sampler, train_sampler = GaussianSampler(0, dim=1).split(2)
        ds = make_sine(100, data_sampler, amplitude=0.5, frequency=2.0)
        rep = train_noisy_net(ds, cfg, train_sampler, iterations=1500, batch=64,
                              radius=4.0, force=True, eval_every=500)
        assert rep.final_train_mse <= 0.1 * float(np.var(ds.y))

    def test_certified_boundary_run_improves_objective(self):
        # single-layer net, asymmetric linear target: the input feature
        # correlates with the loss so the certified run has real signal
        cfg = NoisyNetConfig(widths=[1, 1], alpha=8.0, noise_scales=[0.5],
                             loss_bound=0.5)
        assert np.allclose(cfg.certificate_margins(), 0.0, atol=1e-12)
        rng = np.random.default_rng(2)
        x = rng.uniform(-1.0, 1.0, 80)
        ds = Dataset(X=x[:, None], y=0.4 * x)
        rep = train_noisy_net(ds, cfg, GaussianSampler(3, dim=1), iterations=800,
                              batch=64, radius=1.5, eval_every=40)
        losses = np.array([row[1] for row in rep.curve])
        window = 5
        smoothed = np.convolve(losses, np.ones(window) / window, mode="valid")
        assert smoothed[-1] < smoothed[0]
        assert rep.certified

    @pytest.mark.filterwarnings("ignore:per-step certificate fails")
    def test_curve_csv_round_trips(self, tmp_path):
        cfg = small_config()
        ds = make_sine(30, GaussianSampler(4, dim=1))
        rep = train_noisy_net(ds, cfg, GaussianSampler(5, dim=1), iterations=20,
                              batch=8, force=True, eval_every=10)
        path = tmp_path / "curve.csv"
        rep.write_curve_csv(path)
        header, rows = read_matrix(path, header=True)
        assert header == ["evaluations", "train_loss", "test_loss"]
        assert [tuple(r) for r in rows] == [tuple(map(float, row)) for row in rep.curve]

    @pytest.mark.filterwarnings("ignore:per-step certificate fails")
    def test_deterministic_given_seed(self):
        cfg = small_config()
        ds = make_sine(30, GaussianSampler(6, dim=1))
        a = train_noisy_net(ds, cfg, GaussianSampler(7, dim=1), iterations=15,
                            batch=8, force=True)
        b = train_noisy_net(ds, cfg, GaussianSampler(7, dim=1), iterations=15,
                            batch=8, force=True)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))


    @pytest.mark.filterwarnings("ignore:per-step certificate fails")
    @pytest.mark.parametrize("eval_every", [1, 4, 7, 20])
    def test_curve_and_run_match_the_training_written_out(self, eval_every):
        cfg = small_config()
        ds = make_sine(30, GaussianSampler(4, dim=1))
        T, batch = 10, 8
        rep = train_noisy_net(ds, cfg, GaussianSampler(5, dim=1), iterations=T, batch=batch,
                              force=True, eval_every=eval_every)
        dyn, cost, policy0, model = build_control_problem(cfg, ds)
        init_stream, train_stream = GaussianSampler(5, dim=1).split(2)
        policy0 = policy0.with_gains(0.05 * init_stream.normal(policy0.gains.shape))
        seen = Iterates()
        _, run = train_policy(dyn, cost, policy0, model, "derivative_free",
                              SolverConfig(iterations=T, batch=batch, averaging=False),
                              FeasibleSet.ball(np.zeros(policy0.gains.size), 6.0), train_stream,
                              sink=seen)
        # The weights step i left: the iterate of step i + 1, the final one after step T.
        left = [theta.reshape(policy0.gains.shape) for theta in seen[1:] + [run.final_theta]]
        assert rep.curve == [(i * batch, mse(cfg, left[i - 1], ds), mse(cfg, left[i - 1], ds))
                             for i in range(1, T + 1) if i % eval_every == 0 or i == T]
        assert isinstance(rep.run, SolverReport) and rep.run.iterations == T
        for name in ("zeta", "certificate", "grad_norms", "etas", "objective_trace",
                     "final_theta"):
            assert np.array_equal(getattr(rep.run, name), getattr(run, name)), name

    def test_eval_every_below_one_is_a_contract_error(self):
        ds = make_sine(30, GaussianSampler(0, dim=1))
        for eval_every in (0, -2):
            with pytest.raises(ContractError, match="eval_every must be >= 1"):
                train_noisy_net(ds, small_config(), GaussianSampler(1, dim=1), iterations=5,
                                batch=8, force=True, eval_every=eval_every)

    @pytest.mark.filterwarnings("ignore:per-step certificate fails")
    def test_weights_are_one_stacked_array(self):
        cfg = small_config()
        rep = train_noisy_net(make_sine(30, GaussianSampler(6, dim=1)), cfg,
                              GaussianSampler(7, dim=1), iterations=3, batch=8, force=True)
        assert type(rep.weights) is np.ndarray and rep.weights.dtype == np.float64
        assert rep.weights.shape == (cfg.n_layers, cfg.internal_width, cfg.internal_width)


def test_one_initial_draw_has_the_bits_of_per_layer_draws():
    # train_noisy_net draws its initial weights as one (L, w, w) array; the
    # stream fills it in the order of L separate (w, w) draws.
    w, L = 6, 3
    one = GaussianSampler(7, dim=1).split(2)[0].normal((L, w, w))
    stream = GaussianSampler(7, dim=1).split(2)[0]
    per_layer = [stream.normal((w, w)) for _ in range(L)]
    assert np.array_equal(one, np.stack(per_layer))


def test_weights_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    weights = [rng.standard_normal((3, 3)) for _ in range(2)]
    write_gains_csv(tmp_path, weights)
    back = read_gains_csv(tmp_path, (2, 3, 3))
    assert all(np.array_equal(a, b) for a, b in zip(weights, back))


def test_mse_helper():
    cfg = NoisyNetConfig(widths=[1, 1], alpha=1.0, noise_scales=[1.0])
    ds = Dataset(X=np.array([[0.0], [1.0]]), y=np.array([0.0, 0.5]))
    weights = [np.zeros((1, 1))]
    assert mse(cfg, weights, ds) == pytest.approx(0.125)


def test_mse_checks_the_gain_set_of_the_config():
    # One 4x4 matrix per layer: another count or width is a ContractError,
    # not a silent MSE of a shorter net or a numpy error.
    cfg = small_config()
    ds = Dataset(X=np.array([[0.5], [1.0]]), y=np.array([0.1, 0.2]))
    with pytest.raises(ContractError, match="need 2 gain matrices, got 1"):
        mse(cfg, [0.3 * np.ones((4, 4))], ds)
    with pytest.raises(ContractError, match=r"gain at t=1 must be 4x4, got shape \(3, 3\)"):
        mse(cfg, [np.ones((3, 3))] * 2, ds)


def test_model_based_gradient_matches_finite_differences_on_net():
    from riskconvex.control import policy_gradient_model_based, rollout

    cfg = NoisyNetConfig(widths=[1, 3, 1], alpha=2.0, noise_scales=[0.3, 0.3],
                         penalty_weights=[0.1, 0.1], loss_bound=0.5)
    ds = make_sine(20, GaussianSampler(0, dim=1), amplitude=0.5)
    dyn, cost, pol0, model = build_control_problem(cfg, ds)
    rng = np.random.default_rng(1)
    pol = pol0.with_gains([0.3 * rng.standard_normal((3, 3)) for _ in range(2)])
    sampler = GaussianSampler(5, dim=1)
    g = policy_gradient_model_based(dyn, cost, pol, model, sampler)
    frozen = g.rollout.frozen()
    fd = np.zeros_like(g.exp_gradient)
    h = 3e-6
    for t in range(2):
        for i in range(3):
            for j in range(3):
                up = [k.copy() for k in pol.gains]
                dn = [k.copy() for k in pol.gains]
                up[t][i, j] += h
                dn[t][i, j] -= h
                hi = rollout(dyn, cost, pol.with_gains(up), model, sampler, frozen=frozen)
                lo = rollout(dyn, cost, pol.with_gains(dn), model, sampler, frozen=frozen)
                fd[t, i, j] = (hi.exp_cost - lo.exp_cost) / (2.0 * h)
    rel = np.linalg.norm(g.exp_gradient - fd) / np.linalg.norm(fd)
    assert rel <= 1e-5


def test_an_empty_training_set_is_refused():
    empty = Dataset(X=np.zeros((0, 1)), y=np.zeros(0))
    with pytest.raises(ContractError, match="^the training set has no rows$"):
        train_noisy_net(empty, small_config(), GaussianSampler(0, dim=1))
