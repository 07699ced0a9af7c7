import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskconvex.benchmarks import ScalarBenchmark
from riskconvex.control import train_policy
from riskconvex.csvio import read_matrix
from riskconvex.datasets import make_sine
from riskconvex.errors import ContractError, DivergenceError, EstimateOverflowError
from riskconvex.fields import constant_field, linear_field
from riskconvex.noisynet import NoisyNetConfig, train_noisy_net
from riskconvex.objective import ConvexityCertificate, RiskModel, isotropic_model
from riskconvex.sampling import GaussianSampler
from riskconvex.solver import (
    FeasibleSet,
    _norm,
    SolverConfig,
    VarianceBoundInputs,
    convergence_certificate,
    log_gap_from_exp_gap,
    pilot_zeta,
    projected_sgd,
    solve,
    step_size,
    variance_bound,
    write_trace_csv,
)
from support import (Iterates, bump_field, certified_model, per_sample_zeta, solve_with_iterates,
                     solve_with_sink)

E_SQUARED_TIMES_FOUR = 29.5562243957226  # float(4 * np.exp(2))
HOLDS = ConvexityCertificate(margins=np.zeros(1), tols=np.zeros(1))


class TestProjection:
    def test_ball_radial_scaling(self):
        fs = FeasibleSet.ball([0.0, 0.0], 1.0)
        assert fs.project([2.0, 0.0]) == pytest.approx([1.0, 0.0])

    def test_box_coordinate_clamp(self):
        fs = FeasibleSet.box([0.0, 0.0], [1.0, 1.0])
        assert fs.project([-1.0, 0.5]) == pytest.approx([0.0, 0.5])

    def test_interior_point_fixed(self):
        for fs in (FeasibleSet.ball([1.0, 1.0], 2.0), FeasibleSet.box([-1, -1], [1, 1]),
                   FeasibleSet.unconstrained(2)):
            x = np.array([0.5, -0.5])
            assert fs.project(x) == pytest.approx(x)

    def test_box_rejects_inverted_bounds(self):
        with pytest.raises(ContractError):
            FeasibleSet.box([1.0], [0.0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=2),
           st.floats(0.1, 5.0))
    def test_ball_projection_idempotent_and_contained(self, x, radius):
        fs = FeasibleSet.ball([0.3, -0.7], radius)
        p = fs.project(x)
        assert np.allclose(fs.project(p), p, atol=1e-12)
        assert np.linalg.norm(p - fs.center) <= radius * (1 + 1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=2))
    def test_projection_is_closest_point(self, x):
        fs = FeasibleSet.box([-1.0, 0.0], [1.0, 2.0])
        p = fs.project(np.array(x))
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.uniform([-1.0, 0.0], [1.0, 2.0])
            assert np.linalg.norm(p - x) <= np.linalg.norm(y - x) + 1e-9

    def test_radius_bounds(self):
        assert FeasibleSet.ball([0, 0], 2.0).radius_bound == 2.0
        assert FeasibleSet.box([0, 0], [2.0, 0.0]).radius_bound == 1.0
        assert FeasibleSet.unconstrained(2, radius_bound=5.0).radius_bound == 5.0
        with pytest.raises(ContractError):
            FeasibleSet.unconstrained(2).radius_bound

    def test_radius_bound_of_a_huge_finite_box(self):
        # 0.5 * (upper - lower) overflows here; the halved bounds do not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert FeasibleSet.box([-1e308], [1e308]).radius_bound == 1e308
            assert FeasibleSet.box([-1e308] * 2, [1e308] * 2).radius_bound == \
                pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-15)
            with pytest.raises(ContractError, match="finite radius bound"):
                FeasibleSet.box([-1.7e308] * 2, [1.7e308] * 2).radius_bound

    def test_norm_keeps_the_bits_of_numpy_norm(self):
        # np.vdot is the BLAS dot of x.dot(x): the same bits, and an
        # overflowing sum of squares is inf with no warning, then rescaled.
        rng = np.random.default_rng(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for size in (1, 2, 3, 4, 7, 16, 33, 100, 1000):
                for scale in (1e-170, 1e-3, 1.0, 1e5, 1e150):
                    x = scale * rng.standard_normal(size)
                    norm = _norm(x)
                    assert norm == float(np.linalg.norm(x))
                    assert norm == _norm(x.reshape(1, -1, 1))
            assert _norm(np.full(4, 1e300)) == 2e300
            assert _norm(np.array([np.inf, 1.0])) == np.inf
            assert math.isnan(_norm(np.array([np.nan, 1.0])))

    def test_far_point_projects_onto_the_sphere_and_is_not_contained(self):
        # ||x||^2 overflows, but ||x|| = 1.7e160 is finite.
        x = np.full(3, 1e160)
        ball = FeasibleSet.ball(np.zeros(3), 1.0)
        p = ball.project(x)
        assert np.linalg.norm(p) == pytest.approx(1.0, rel=1e-15)
        np.testing.assert_allclose(p, np.ones(3) / math.sqrt(3.0), rtol=1e-15)
        assert not ball.contains(x)
        assert not FeasibleSet.box(-np.ones(3), np.ones(3)).contains(x)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_point_is_not_contained(self, bad):
        x = np.array([bad, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not FeasibleSet.box(-np.ones(3), np.ones(3)).contains(x)
            assert not FeasibleSet.ball(np.zeros(3), 1.0).contains(x)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_ball_refuses_to_project_a_non_finite_point(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError):
                FeasibleSet.ball(np.zeros(3), 1.0).project([bad, 0.0, 0.0])
            # The box still clips an infinite coordinate to its bound.
            box = FeasibleSet.box(-np.ones(3), np.ones(3))
            np.testing.assert_array_equal(box.project([np.inf, -np.inf, 0.0]),
                                          [1.0, -1.0, 0.0])


class TestProjectedSGD:
    def test_huge_finite_gradient_keeps_finite_norms(self):
        # g @ g overflows for g = 1e200 (1, 1, 1), but ||g|| is finite.
        g = 1e200 * np.ones(3)
        ball = FeasibleSet.ball(np.zeros(3), 1.0)
        seen = Iterates()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = projected_sgd(lambda theta, n, stream, second: (g, None, None), np.zeros(3),
                                ball, SolverConfig(iterations=4, zeta=1.0),
                                GaussianSampler(0, dim=3), HOLDS, sink=seen)
            zeta = rep.empirical_zeta()
        expected = 1e200 * math.sqrt(3.0)
        np.testing.assert_allclose(rep.grad_norms, expected, rtol=1e-15)
        assert zeta == pytest.approx(expected, rel=1e-15)
        # Every step lands on the sphere, opposite g, never at the center.
        np.testing.assert_allclose(seen[1:], -np.ones((3, 3)) / math.sqrt(3.0), rtol=1e-15)
        assert rep.objective_trace is None

    def test_traced_peak_does_not_grow_with_the_iterations(self):
        # The loop keeps O(k) iterate state; a (T, k) store of the 1000
        # iterates below would take 32 MB.
        g = np.full(4096, 1e-3)
        ball = FeasibleSet.ball(np.zeros(4096), 1.0)

        def peak(iterations):
            tracemalloc.start()
            try:
                projected_sgd(lambda theta, n, stream, second: (g, None, None), np.zeros(4096),
                              ball, SolverConfig(iterations=iterations, zeta=1.0),
                              GaussianSampler(0, dim=1), HOLDS)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1000) - peak(10) < 2**20

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_is_a_divergence_at_its_iteration(self, bad):
        # The 1e200 entry makes the squares overflow; the rescaled norm of
        # the finite gradients stays finite, and the bad entry is found.
        def oracle(theta, n, stream, second):
            calls.append(theta)
            return np.array([1e200, bad if len(calls) == 3 else 0.5, 1.0]), None, None

        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="non-finite gradient estimate at "
                                                      "iteration 3$") as err:
                projected_sgd(oracle, np.zeros(3), FeasibleSet.ball(np.zeros(3), 1.0),
                              SolverConfig(iterations=5, zeta=1.0), GaussianSampler(0, dim=3),
                              HOLDS)
        assert err.value.step == 3 and len(calls) == 3

    def test_finite_gradient_with_an_overflowing_norm_is_not_a_divergence(self):
        # ||g|| = 1.5e308 sqrt(2) overflows even rescaled, but every entry of
        # g is finite: the norm is recorded as inf and the box clips the step.
        g = np.array([1.5e308, -1.5e308, 1.0])
        seen = Iterates()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = projected_sgd(lambda theta, n, stream, second: (g, None, None), np.zeros(3),
                                FeasibleSet.box(-np.ones(3), np.ones(3)),
                                SolverConfig(iterations=3, zeta=10.0),
                                GaussianSampler(0, dim=3), HOLDS, sink=seen)
        assert np.isposinf(rep.grad_norms).all()
        np.testing.assert_array_equal(np.array(seen)[1:, :2], [[-1.0, 1.0], [-1.0, 1.0]])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("feasible", [FeasibleSet.ball(np.zeros(3), 1.0),
                                          FeasibleSet.unconstrained(3, radius_bound=1.0)],
                             ids=["ball", "unconstrained"])
    def test_step_overflowing_to_inf_is_a_divergence(self, feasible):
        # g is finite, but eta_1 g = 7e9 * 1e308 overflows to inf.
        g = 1e308 * np.ones(3)
        with pytest.raises(DivergenceError) as err:
            projected_sgd(lambda theta, n, stream, second: (g, None, None), np.zeros(3), feasible,
                          SolverConfig(iterations=4, zeta=1e-10),
                          GaussianSampler(0, dim=3), HOLDS)
        assert err.value.step == 1


class TestScheduleAndCertificate:
    def test_certificate_arithmetic(self):
        assert convergence_certificate(1.0, 2.0, 200) == pytest.approx(0.1, rel=1e-15)

    def test_schedule_strictly_decreasing(self):
        etas = [step_size(1.0, 2.0, i) for i in range(1, 50)]
        assert all(a > b > 0 for a, b in zip(etas, etas[1:]))

    def test_a_schedule_of_many_steps_keeps_the_bits_of_one_call_each(self):
        # projected_sgd takes its whole schedule from one array call.
        for radius, zeta in ((0.6, 1.7), (2.0, 0.3), (3.7e5, 1e-3)):
            etas = step_size(radius, zeta, np.arange(1, 5001))
            one = [(radius / zeta) * math.sqrt(1.0 / (2.0 * i)) for i in range(1, 5001)]
            assert etas.tolist() == one
            assert [step_size(radius, zeta, i) for i in range(1, 5001)] == one

    def test_certificate_strictly_decreasing_in_iterations(self):
        certs = [convergence_certificate(1.0, 2.0, t) for t in (10, 100, 1000, 10000)]
        assert all(a > b for a, b in zip(certs, certs[1:]))

    @staticmethod
    def linear_solve(feasible, zeta=None):
        model = isotropic_model(4.0, 0.25, 1.0, 1)
        return solve(linear_field([1.0]), model, feasible(), SolverConfig(iterations=5, zeta=zeta),
                     model.sampler(0))

    @pytest.mark.parametrize("feasible,zeta,match", [
        (lambda: FeasibleSet.unconstrained(1, radius_bound=-0.01), None, "radius_bound must"),
        (lambda: FeasibleSet.unconstrained(1, radius_bound=0.0), None, "radius_bound must"),
        (lambda: FeasibleSet.unconstrained(1, radius_bound=np.inf), None, "radius_bound must"),
        (lambda: FeasibleSet.ball(np.zeros(1), 1.0), np.inf, "zeta must"),
        (lambda: FeasibleSet.ball(np.zeros(1), np.inf), None, "ball radius must"),
        (lambda: FeasibleSet.ball([np.nan], 1.0), None, "ball center must"),
        (lambda: FeasibleSet.box([-np.inf], [1.0]), None, "finite radius bound"),
        (lambda: FeasibleSet.box([np.nan], [1.0]), None, "NaN"),
        (lambda: FeasibleSet.box([0.0], [np.nan]), None, "NaN"),
    ], ids=["negative-bound", "zero-bound", "infinite-bound", "infinite-zeta",
            "infinite-ball", "nan-center", "infinite-box", "nan-lower", "nan-upper"])
    def test_schedule_inputs_that_forge_a_certificate_are_contract_errors(self, feasible,
                                                                         zeta, match):
        with pytest.raises(ContractError, match=match):
            self.linear_solve(feasible, zeta)

    def test_degenerate_box_certifies_zero(self):
        rep = self.linear_solve(lambda: FeasibleSet.box([0.3], [0.3]))
        assert rep.certificate == 0.0 and rep.certified
        assert np.array_equal(rep.theta_hat, [0.3])


class TestSolve:
    def test_analytic_case_stays_at_minimum(self):
        f = constant_field(0.0, 2)
        model = isotropic_model(1.0, 1.0, 1.0, 2)
        fs = FeasibleSet.ball(np.zeros(2), 1.0)
        rep = solve(f, model, fs, SolverConfig(iterations=500), model.sampler(1))
        assert np.linalg.norm(rep.theta_hat) <= 0.05
        assert rep.certified

    def test_random_start_meets_empirical_certificate(self):
        f = constant_field(0.0, 2)
        model = isotropic_model(1.0, 1.0, 1.0, 2)
        fs = FeasibleSet.ball(np.zeros(2), 1.0)
        ok = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            theta0 = rng.uniform(-0.7, 0.7, size=2)
            rep = solve(f, model, fs, SolverConfig(iterations=2000, theta0=theta0),
                        model.sampler(seed))
            gap = math.exp(0.5 * float(rep.theta_hat @ rep.theta_hat)) - 1.0
            cert = convergence_certificate(fs.radius_bound, rep.empirical_zeta(), 2000)
            ok += gap <= cert
        assert ok >= 9

    def test_every_iterate_feasible(self):
        rng = np.random.default_rng(4)
        f = bump_field(rng, 2)
        model = certified_model(rng, 2)
        fs = FeasibleSet.ball(np.zeros(2), 0.8)
        rep, thetas = solve_with_iterates(f, model, fs, SolverConfig(iterations=300),
                                          model.sampler(3))
        for theta in thetas:
            assert np.allclose(fs.project(theta), theta, atol=1e-12)
        assert np.allclose(fs.project(rep.theta_hat), rep.theta_hat, atol=1e-12)

    def test_average_recomputable_from_trace(self):
        rng = np.random.default_rng(5)
        f = bump_field(rng, 2)
        model = certified_model(rng, 2)
        fs = FeasibleSet.ball(np.zeros(2), 1.0)
        rep, thetas = solve_with_iterates(f, model, fs, SolverConfig(iterations=100),
                                          model.sampler(9))
        assert np.array_equal(thetas.mean(axis=0), rep.theta_hat)

    def test_determinism(self):
        rng = np.random.default_rng(6)
        f = bump_field(rng, 2)
        model = certified_model(rng, 2)
        fs = FeasibleSet.ball(np.zeros(2), 1.0)
        a, a_thetas = solve_with_iterates(f, model, fs, SolverConfig(iterations=50),
                                          model.sampler(11))
        b, b_thetas = solve_with_iterates(f, model, fs, SolverConfig(iterations=50),
                                          model.sampler(11))
        assert np.array_equal(a_thetas, b_thetas)
        assert np.array_equal(a.grad_norms, b.grad_norms)

    @pytest.mark.parametrize("batch", [1, 16])
    def test_pilot_and_batches_match_the_estimator_written_out(self, batch):
        rng = np.random.default_rng(12)
        f = bump_field(rng, 2)
        model = certified_model(rng, 2)
        fs = FeasibleSet.ball(np.zeros(2), 1.0)
        cfg = SolverConfig(iterations=20, batch=batch)
        rep, thetas = solve_with_iterates(f, model, fs, cfg, model.sampler(13))

        def samples(theta, n, stream):
            draws = stream.draw(n) @ model.sigma_root
            expo = model.alpha * f.evaluate_batch(theta + draws) + model.alpha * model.quad(theta)
            return model.alpha * np.exp(expo)[:, None] * (f.grad_batch(theta + draws)
                                                          + model.reg @ theta)

        pilot, run = model.sampler(13).split(2)
        theta = fs.project(np.zeros(2))
        g = samples(theta, cfg.pilot_samples, pilot)
        assert rep.zeta == pilot_zeta(g.mean(axis=0), (g * g).mean(axis=0),
                                      cfg.pilot_samples, cfg.batch)
        assert rep.zeta == pytest.approx(per_sample_zeta(g, cfg.batch), rel=1e-14)
        for i in range(1, cfg.iterations + 1):
            assert np.array_equal(thetas[i - 1], theta)
            g = samples(theta, cfg.batch, run).mean(axis=0)
            theta = fs.project(theta - step_size(fs.radius_bound, rep.zeta, i) * g)
        assert np.array_equal(rep.final_theta, theta)

    @pytest.mark.parametrize("batch", [1, 8])
    def test_pilot_zeta_matches_the_per_sample_reference(self, batch):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            f = bump_field(rng, 3)
            model = certified_model(rng, 3)
            fs = FeasibleSet.ball(np.zeros(3), 1.0)
            rep = solve(f, model, fs, SolverConfig(iterations=1, batch=batch),
                        model.sampler(seed))
            pilot, _ = model.sampler(seed).split(2)
            points = pilot.draw(200) @ model.sigma_root
            expo = model.alpha * f.evaluate_batch(points)
            samples = model.alpha * np.exp(expo)[:, None] * f.grad_batch(points)
            assert rep.zeta == pytest.approx(per_sample_zeta(samples, batch), rel=1e-14)

    def test_all_zero_pilot_gives_unit_zeta(self):
        model = isotropic_model(1.0, 1.0, 1.0, 2)
        rep = solve(constant_field(0.0, 2), model, FeasibleSet.ball(np.zeros(2), 1.0),
                    SolverConfig(iterations=5), model.sampler(0))
        assert rep.zeta == 1.0

    @staticmethod
    def shifted_demo_solve(shift):
        from riskconvex.demo1d import builtin_field
        from riskconvex.fields import ScalarField

        raw = builtin_field("two-basin")
        field = ScalarField(value=lambda th: raw.value(th) + shift, upper_bound=1.0 + shift,
                            dim=1, gradient=raw.gradient, vectorized=True)
        model = isotropic_model(4.0, 0.25, 1.0, 1)
        return solve_with_iterates(field, model, FeasibleSet.ball(np.zeros(1), 2.0),
                                   SolverConfig(iterations=200, batch=8), model.sampler(1))

    def test_overflowing_pilot_moment_is_a_typed_error(self):
        # alpha f ~ 600: the pilot samples reach ~1e261, so their squares overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimateOverflowError):
                self.shifted_demo_solve(150.0)
            rep, thetas = self.shifted_demo_solve(50.0)
        assert 1e88 < rep.zeta < 1e89
        assert np.isfinite(thetas).all()

    def test_uncertified_model_warns_and_flags(self):
        rng = np.random.default_rng(7)
        f = bump_field(rng, 2)
        model = isotropic_model(1.0, 4.0, 0.1, 2)  # alpha R well below inv(Sigma)
        fs = FeasibleSet.ball(np.zeros(2), 1.0)
        with pytest.warns(UserWarning):
            rep = solve(f, model, fs, SolverConfig(iterations=20), model.sampler(0))
        assert not rep.certified

    def test_requires_gradient(self):
        from riskconvex.fields import ScalarField

        f = ScalarField(value=lambda th: 0.0, upper_bound=0.0, dim=2)
        model = isotropic_model(1.0, 1.0, 1.0, 2)
        with pytest.raises(ContractError):
            solve(f, model, FeasibleSet.ball(np.zeros(2), 1.0),
                  SolverConfig(iterations=5), model.sampler(0))

    @pytest.mark.parametrize("batch", [1, 8])
    def test_sampler_dimension_checked_before_the_pilot(self, batch):
        model = isotropic_model(1.0, 1.0, 1.0, 2)
        with pytest.raises(ContractError, match="sampler dim"):
            solve(constant_field(0.0, 2), model, FeasibleSet.ball(np.zeros(2), 1.0),
                  SolverConfig(iterations=5, batch=batch), GaussianSampler(0, dim=3))

    def test_batch_reduces_certificate(self):
        rng = np.random.default_rng(8)
        f = bump_field(rng, 2)
        model = certified_model(rng, 2)
        fs = FeasibleSet.ball(np.zeros(2), 1.0)
        lone = solve(f, model, fs, SolverConfig(iterations=30), model.sampler(2))
        batched = solve(f, model, fs, SolverConfig(iterations=30, batch=64), model.sampler(2))
        assert batched.zeta < lone.zeta

    def test_trace_csv_round_trips(self, tmp_path):
        rng = np.random.default_rng(9)
        f = bump_field(rng, 2)
        model = certified_model(rng, 2)
        fs = FeasibleSet.ball(np.zeros(2), 1.0)
        steps = []
        rep = solve_with_sink(lambda *step: steps.append(step), f, model, fs,
                              SolverConfig(iterations=25), model.sampler(5))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, steps)
        header, rows = read_matrix(path, header=True)
        assert header == ["iter", "theta_0", "theta_1", "grad_norm", "eta"]
        assert len(rows) == 25
        got = np.array(rows)
        assert np.array_equal(got[:, 0], np.arange(1, 26))
        assert np.array_equal(got[:, 1:3], [theta for _, theta, *_ in steps])
        assert np.array_equal(got[:, 3], rep.grad_norms)
        assert np.array_equal(got[:, 4], rep.etas)


class TestOneRunGate:
    """projected_sgd is the one place that starts a run, checks its start
    against the feasible set and warns on a failed certificate, for solve,
    train_policy and the noisy net alike."""

    UNCERTIFIED = ScalarBenchmark(r=0.5)  # alpha r = 0.5 < 1 / sigma_u^2 = 1
    CONFIG = SolverConfig(iterations=2, zeta=1.0)

    def runs(self):
        model = RiskModel(1.0, np.eye(1), 0.5 * np.eye(1))
        dyn, cost, policy0, control_model = self.UNCERTIFIED.problem()  # two (1, 1) steps
        net = NoisyNetConfig(widths=[1, 4, 1], alpha=3.0, noise_scales=[0.15, 0.15],
                             penalty_weights=[0.05, 0.05], loss_bound=0.5)
        ds = make_sine(30, GaussianSampler(0, dim=1))
        return {
            "solve": lambda: solve(linear_field([0.5]), model, FeasibleSet.ball(np.zeros(1), 1.0),
                                   self.CONFIG, model.sampler(0)),
            "train_policy": lambda: train_policy(dyn, cost, policy0, control_model,
                                                 "derivative_free", self.CONFIG,
                                                 FeasibleSet.ball(np.zeros(2), 1.0),
                                                 GaussianSampler(0, dim=1)),
            "train_noisy_net": lambda: train_noisy_net(ds, net, GaussianSampler(1, dim=1),
                                                       iterations=2, batch=8, force=True),
        }

    @pytest.mark.parametrize("name", ["solve", "train_policy", "train_noisy_net"])
    def test_a_failed_certificate_warns_once_at_the_callers_line(self, name):
        run = self.runs()[name]
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            run()
        assert [(w.category, w.filename) for w in record] == [(UserWarning, __file__)]
        assert str(record[0].message).startswith("per-step certificate fails (worst margin ")

    def test_train_policy_takes_theta0_flat_only(self):
        dyn, cost, policy0, model = ScalarBenchmark().problem()
        assert policy0.gains.shape == (2, 1, 1)
        with pytest.raises(ContractError, match=r"theta must have shape \(2,\), "
                                                r"got \(2, 1, 1\) \(config.theta0\)"):
            train_policy(dyn, cost, policy0, model, "derivative_free",
                         SolverConfig(iterations=2, zeta=1.0, theta0=np.zeros((2, 1, 1))),
                         FeasibleSet.ball(np.zeros(2), 1.0), GaussianSampler(0, dim=1))

    def test_a_feasible_set_of_another_dimension_names_both_sizes(self):
        model = isotropic_model(1.0, 1.0, 1.0, 2)
        with pytest.raises(ContractError, match=r"^feasible set dimension 3 != 2 parameters$"):
            solve(linear_field([0.5, 0.5]), model, FeasibleSet.ball(np.zeros(3), 1.0),
                  self.CONFIG, model.sampler(0))
        dyn, cost, policy0, control_model = ScalarBenchmark().problem()
        with pytest.raises(ContractError, match=r"^feasible set dimension 3 != 2 parameters$"):
            train_policy(dyn, cost, policy0, control_model, "derivative_free", self.CONFIG,
                         FeasibleSet.ball(np.zeros(3), 1.0), GaussianSampler(0, dim=1))


class TestVarianceBound:
    def test_hand_evaluated_example(self):
        inputs = VarianceBoundInputs(alpha=1.0, kappa=1.0, sigma=1.0, beta=0.5,
                                     gamma_sq=1.0, mbar=0.0, radius=1.0)
        assert variance_bound(inputs) == pytest.approx(E_SQUARED_TIMES_FOUR, rel=1e-12)

    def test_beta_zero_limit(self):
        inputs = VarianceBoundInputs(alpha=1.0, kappa=2.0, sigma=1.0, beta=0.0,
                                     gamma_sq=1.0, mbar=0.0, radius=1.5)
        expected = (2.0 * 1.5) ** 2 * math.exp(2.0 * 1.0 - 2.0)
        assert variance_bound(inputs) == pytest.approx(expected, rel=1e-12)

    def test_mbar_shift_multiplies_by_exp_factor(self):
        base = VarianceBoundInputs(alpha=1.0, kappa=1.0, sigma=1.0, beta=0.5,
                                   gamma_sq=1.0, mbar=0.0, radius=1.0)
        shifted = VarianceBoundInputs(alpha=1.0, kappa=1.0, sigma=1.0, beta=0.5,
                                      gamma_sq=1.0, mbar=0.7, radius=1.0)
        ratio = variance_bound(shifted) / variance_bound(base)
        assert ratio == pytest.approx(math.exp(2.0 * 0.7), rel=1e-12)

    def test_alpha_beta_product_must_stay_below_one(self):
        inputs = VarianceBoundInputs(alpha=2.0, kappa=1.0, sigma=1.0, beta=0.5,
                                     gamma_sq=1.0, mbar=0.0, radius=1.0)
        with pytest.raises(ContractError):
            variance_bound(inputs)

    def test_certificate_precondition_enforced(self):
        with pytest.raises(ContractError):
            VarianceBoundInputs(alpha=1.0, kappa=0.5, sigma=1.0, beta=0.1,
                                gamma_sq=1.0, mbar=0.0, radius=1.0)


class TestLogGap:
    def test_zero_gap(self):
        assert log_gap_from_exp_gap(0.0, 2.0) == 0.0

    def test_gap_equal_to_optimum(self):
        assert log_gap_from_exp_gap(3.0, 3.0) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_small_gap_first_order(self):
        g_star = 7.0
        gap = 0.005 * g_star
        assert log_gap_from_exp_gap(gap, g_star) == pytest.approx(gap / g_star, rel=0.01)

    def test_contracts(self):
        with pytest.raises(ContractError):
            log_gap_from_exp_gap(-0.1, 1.0)
        with pytest.raises(ContractError):
            log_gap_from_exp_gap(0.1, 0.0)


def test_solve_lands_in_robust_basin_of_demo_field():
    # Brute-force oracle: argmin of the 1e6-sample convexified objective,
    # common random numbers across the grid, refined to 1e-3 resolution
    # (the certified objective is convex, so coarse-to-fine refinement
    # locates the dense-grid argmin).
    from riskconvex.demo1d import builtin_field
    from riskconvex.fields import ScalarField
    from riskconvex.objective import isotropic_model
    from riskconvex.sampling import GaussianSampler

    alpha, sigma, kappa = 4.0, 0.5, 1.0
    raw = builtin_field("two-basin")
    model = isotropic_model(alpha, sigma**2, kappa, 1)
    draws = sigma * GaussianSampler(2024, dim=1).normal(1_000_000)

    def objective(grid):
        out = np.empty(grid.size)
        for i, th in enumerate(grid):
            expo = alpha * raw.value(th + draws)
            m = expo.max()
            out[i] = (m + math.log(np.exp(expo - m).mean())) / alpha \
                + 0.5 * kappa * th**2
        return out

    coarse = np.linspace(-3.0, 3.0, 121)
    k = int(np.argmin(objective(coarse)))
    lo, hi = coarse[max(k - 2, 0)], coarse[min(k + 2, coarse.size - 1)]
    fine = np.round(np.arange(lo, hi + 1e-12, 1e-3), 9)
    theta_star = float(fine[int(np.argmin(objective(fine)))])
    assert -2.0 < theta_star < 0.0  # the oracle optimum is the robust basin

    field = ScalarField(value=raw.value, upper_bound=1.0, dim=1,
                        gradient=raw.gradient, vectorized=True)
    rep = solve(field, model, FeasibleSet.ball(np.zeros(1), 1.5),
                SolverConfig(iterations=3000, batch=32), model.sampler(7))
    theta_hat = float(rep.theta_hat[0])
    assert -2.0 < theta_hat < 0.0
    assert abs(theta_hat - theta_star) <= 0.1
