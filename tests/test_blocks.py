"""Batches of row blocks in ``objective``, each run on the calling thread
and one helper thread that the call starts and waits for: the bits of the
serial loop at any thread count, the serial loop's error, no wait on a
thread that cannot run (a forked child, a nested call), no helper left
alive by a call or at interpreter exit, static blocks that run while the
calling thread draws the batch, one-block rollout batches that run on the
calling thread alone with the bits of their steps written out, the
per-block streams of rollout batches of several blocks, and rollout
moments at one and two BLAS threads."""

import collections
import dataclasses
import gc
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import riskconvex
from riskconvex import objective
from riskconvex.benchmarks import linear_control_problem
from riskconvex.benchmarks import ScalarBenchmark
from riskconvex.control import (
    ControlCost,
    ControlRiskModel,
    Dynamics,
    Policy,
    _reduced,
    _RolloutEngine,
    _step_chunks,
    policy_gradient_batch,
)
from riskconvex.demo1d import demo_curves, uniform_grid
from riskconvex.errors import DivergenceError, EstimateOverflowError, FieldEvaluationError
from riskconvex.fields import ScalarField
from riskconvex.objective import (
    RiskModel,
    _block_rows,
    _row_blocks,
    exp_objective,
    isotropic_model,
    log_exp_objective,
    smoothed_value,
    unbiased_grad_mean,
)
from riskconvex.sampling import GaussianSampler
from riskconvex.sensitivity import estimate_sensitivity
from riskconvex.synthesis import LinearSystem
from support import _full_batch, bump_field, certified_model, smooth_control_problem

JOIN_TIMEOUT = 120.0
ROWS4 = _block_rows(4)   # rows of one block of 4-dimensional points
HELPER = "riskconvex-blocks"


def helpers_alive():
    return [thread for thread in threading.enumerate() if thread.name == HELPER]


@pytest.fixture
def threads(monkeypatch):
    """threads(k): run the batches of this test as if k CPUs were usable
    (k = 1: the calling thread alone; k = 2: it and one helper per call),
    whatever the machine's CPU count.  ``threads.started`` lists the
    helpers the test's calls started; each call has ended its own, so no
    helper is alive after the test."""
    started = []
    start = threading.Thread.start

    def counted(thread):
        if thread.name == HELPER:
            started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)

    def use(k):
        monkeypatch.setattr(objective, "_usable_cpus", lambda: k)

    use.started = started
    yield use
    assert helpers_alive() == []


def rollout_rows(problem):
    """Rollouts of one row block of ``problem``'s batches."""
    return _block_rows(_RolloutEngine(*problem).width)


def bump_problem():
    rng = np.random.default_rng(41)
    return bump_field(rng, 4), certified_model(rng, 4), 0.5 * rng.standard_normal(4)


def static_estimates(f, model, theta, n, seed):
    """The five static estimators, each on a fresh stream, as flat arrays."""
    out = {}
    for run in (smoothed_value, log_exp_objective, exp_objective, estimate_sensitivity):
        est = run(f, model, theta, n, model.sampler(seed))
        out[run.__name__] = np.array([est.value, est.std_err])
    out["unbiased_grad_mean"] = np.concatenate(unbiased_grad_mean(f, model, theta, n,
                                                                  model.sampler(seed)))
    return out


def batch_estimates(problem, n, seed):
    """policy_gradient_batch by both methods, as flat arrays."""
    out = {}
    for method in ("model_based", "derivative_free"):
        est = policy_gradient_batch(*problem, GaussianSampler(seed, dim=1), n, method)
        out[method] = np.concatenate([est.mean.ravel(), est.std_err.ravel(),
                                      [est.exp_cost_mean, est.exp_cost_std_err]])
    return out


def demo_table(n):
    c = demo_curves(4.0, 0.5, 1.0, uniform_grid(-3.0, 3.0, 9), n, GaussianSampler(9, dim=1))
    return {"demo_curves": np.stack([c.objective, c.smoothed, c.convexified,
                                     c.convexified_std_err])}


def assert_same(got, expected):
    assert got.keys() == expected.keys()
    for name in expected:
        assert np.array_equal(got[name], expected[name]), name


def joined(fn):
    """fn() run on a thread that must finish within JOIN_TIMEOUT."""
    box = []

    def target():
        try:
            box.append(fn())
        except BaseException as exc:  # re-raised on the test's thread
            box.append(exc)

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(JOIN_TIMEOUT)
    assert not worker.is_alive(), "the call did not finish"
    if isinstance(box[0], BaseException):
        raise box[0]
    return box[0]


class TestSameBits:
    """Three blocks and one row: a forced-serial run and a pooled run agree
    bit for bit."""

    def test_static_estimators(self, threads):
        f, model, theta = bump_problem()
        n = 3 * ROWS4 + 1
        assert len(_row_blocks(n, 4)) == 3
        threads(1)
        serial = static_estimates(f, model, theta, n, 7)
        threads(2)
        assert_same(static_estimates(f, model, theta, n, 7), serial)

    def test_demo_curves(self, threads):
        n = 3 * _block_rows(1) + 1
        threads(1)
        serial = demo_table(n)
        threads(2)
        assert_same(demo_table(n), serial)

    def test_policy_gradient_batch(self, threads):
        problem = smooth_control_problem(np.random.default_rng(3), 3, 2, 4)
        n = 3 * rollout_rows(problem) + 1
        assert len(_row_blocks(n, _RolloutEngine(*problem).width)) == 3
        threads(1)
        serial = batch_estimates(problem, n, 5)
        threads(2)
        assert_same(batch_estimates(problem, n, 5), serial)

    def test_row_callables_stay_on_the_calling_thread(self, threads):
        threads(2)
        seen = set()

        def value(theta):
            seen.add(threading.get_ident())
            return float(theta[0])

        f = ScalarField(value=value, upper_bound=1e9, dim=4)
        model = isotropic_model(1.0, 1.0, 1.0, 4)
        smoothed_value(f, model, np.zeros(4), 3 * ROWS4 + 1, model.sampler(1))
        assert seen == {threading.get_ident()}

    def test_two_user_threads_get_their_serial_results(self, threads):
        f, model, theta = bump_problem()
        problem = smooth_control_problem(np.random.default_rng(3), 3, 2, 4)
        n, n_pg = 3 * ROWS4 + 1, 3 * rollout_rows(problem) + 1

        def both(seed):
            return {**static_estimates(f, model, theta, n, seed),
                    **batch_estimates(problem, n_pg, seed)}

        threads(1)
        serial = [both(1), both(2)]
        threads(2)
        results = [None, None]
        users = [threading.Thread(target=lambda i=i: results.__setitem__(i, both(i + 1)))
                 for i in range(2)]
        for user in users:
            user.start()
        for user in users:
            user.join(JOIN_TIMEOUT)
            assert not user.is_alive()
        for got, expected in zip(results, serial):
            assert_same(got, expected)


def test_stress_more_threads_than_cores_with_fast_switching(threads):
    # Six threads on two CPUs (three callers at once, each with a helper
    # per call) and a switch of the interpreter lock every microsecond: a
    # block lost, run twice, stored in the wrong place or run before its
    # noise landed would change some result's bits.
    f, model, theta = bump_problem()
    n = 16 * ROWS4 + 3

    def run(seed):
        out = static_estimates(f, model, theta, n, seed)
        out.update(demo_table(3 * _block_rows(1) + 1))
        for rollouts, method in ((DRAWN_N, "model_based"), (DRAWN_N, "derivative_free"),
                                 (3 * rollout_rows(drawn_problem()) + 1, "model_based")):
            est = policy_gradient_batch(*drawn_problem(), GaussianSampler(seed, dim=1),
                                        rollouts, method)
            out[f"{method} {rollouts}"] = np.concatenate([est.mean.ravel(), est.std_err.ravel(),
                                                          [est.exp_cost_mean]])
        return out

    threads(1)
    serial = [run(seed) for seed in (1, 2, 3)]
    threads(2)
    results = [None] * 3
    users = [threading.Thread(target=lambda i=i: results.__setitem__(i, run(i + 1)))
             for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for user in users:
            user.start()
        for user in users:
            user.join(JOIN_TIMEOUT)
            assert not user.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for got, expected in zip(results, serial):
        assert_same(got, expected)


def planted_field(points, value, slow=None):
    """``value`` at each of ``points`` (p, k) and 0 elsewhere, declared
    bound 1; a block holding the point ``slow`` first sleeps, so that the
    blocks after it fail before it does."""
    points = np.atleast_2d(points)

    def f(thetas):
        if slow is not None and (thetas == slow).all(axis=1).any():
            time.sleep(0.2)
        return np.where((thetas[:, None, :] == points).all(axis=2).any(axis=1), value, 0.0)

    return ScalarField(value=f, upper_bound=1.0, dim=points.shape[1], gradient=np.zeros_like,
                       vectorized=True)


def planted_rollouts(rows, alpha, bound):
    """s' = s with l(s) = s^2 / 2 and zero gains: rollout rows[j] starts at
    s_1 = 10 + j and every other rollout at 0.  A block holding the first
    planted rollout sleeps before its first state cost."""
    def init_state_batch(g, b):
        s1 = np.zeros((b, 1))
        s1[rows, 0] = 10.0 + np.arange(len(rows))
        return s1

    def state_cost(s, t):
        if t == 1 and (s == 10.0).any():
            time.sleep(0.2)
        return 0.5 * s[:, 0] ** 2

    dyn = Dynamics(step=lambda s, y, xi, t: s + 0.0 * y, state_dim=1, control_dim=1,
                   disturbance_dim=0, horizon=3,
                   jacobian_state=lambda s, y, xi, t: np.broadcast_to(np.eye(1), s.shape + (1,)),
                   jacobian_control=lambda s, y, xi, t: np.zeros(s.shape + (1,)),
                   init_state_batch=init_state_batch, vectorized=True)
    cost = ControlCost(state_cost=state_cost, control_weights=[np.eye(1)] * 2, bound=bound,
                       state_cost_grad=lambda s, t: s, vectorized=True)
    pol = Policy(gains=[np.zeros((1, 1))] * 2, features=lambda s, t: s,
                 features_jacobian=lambda s, t: np.broadcast_to(np.eye(1), s.shape + (1,)),
                 vectorized=True)
    return dyn, cost, pol, ControlRiskModel(alpha, [np.eye(1)] * 2)


class TestFirstFailingBlock:
    """Errors planted in blocks 2 and 4 (of 0..4) raise block 2's error,
    with its batch index and its point, even when block 4 fails first."""

    def test_static_estimators(self, threads):
        threads(2)
        n = 5 * ROWS4 + 1
        rows = [2 * ROWS4 + 5, 4 * ROWS4 + 7]
        model = RiskModel(800.0, np.eye(4), np.eye(4))   # alpha * 1 > LOG_FLOAT_MAX
        points = np.zeros(4) + model.sampler(3).draw(n) @ model.sigma_root
        for estimator in (exp_objective, unbiased_grad_mean):
            with pytest.raises(EstimateOverflowError, match=f"at sample {rows[0]} ") as err:
                estimator(planted_field(points[rows], 1.0, slow=points[rows[0]]), model,
                          np.zeros(4), n, model.sampler(3))
            assert err.value.sample_index == rows[0]
        with pytest.raises(FieldEvaluationError) as err:
            smoothed_value(planted_field(points[rows], 2.0, slow=points[rows[0]]), model,
                           np.zeros(4), n, model.sampler(3))
        assert np.array_equal(err.value.theta, points[rows[0]])

    def test_policy_gradient_batch(self, threads):
        threads(2)
        width_rows = rollout_rows(planted_rollouts([0], 1.0, 1.0))
        n = 5 * width_rows + 1
        rows = [2 * width_rows + 5, 4 * width_rows + 7]
        problem = planted_rollouts(rows, alpha=10.0, bound=1e3)
        assert len(_row_blocks(n, _RolloutEngine(*problem).width)) == 5
        for method in ("model_based", "derivative_free"):
            with pytest.raises(EstimateOverflowError, match=f"at sample {rows[0]} ") as err:
                policy_gradient_batch(*problem, GaussianSampler(0, dim=1), n, method)
            assert err.value.sample_index == rows[0]
        problem = planted_rollouts(rows, alpha=1.0, bound=1.0)
        with pytest.raises(FieldEvaluationError, match=f"at t=1 in rollout {rows[0]}$") as err:
            policy_gradient_batch(*problem, GaussianSampler(0, dim=1), n)
        assert np.array_equal(err.value.theta, [10.0])


def test_no_block_starts_after_a_failure(threads):
    # Block 0 fails at once while the other blocks take 50 ms each: the
    # serial loop evaluates one block, and the two threads only the few they took
    # before block 0 failed.
    threads(2)
    model = isotropic_model(1.0, 1.0, 1.0, 4)
    n = 20 * ROWS4
    first = model.sampler(3).draw(1) @ model.sigma_root
    calls = []

    def value(thetas):
        calls.append(len(thetas))
        if (thetas == first).all(axis=1).any():
            return np.full(len(thetas), 2.0)
        time.sleep(0.05)
        return np.zeros(len(thetas))

    f = ScalarField(value=value, upper_bound=1.0, dim=4, vectorized=True)
    with pytest.raises(FieldEvaluationError):
        smoothed_value(f, model, np.zeros(4), n, model.sampler(3))
    assert len(calls) <= 6


def test_an_error_leaves_the_sampler_at_the_end_of_the_batch(threads):
    # The batch is drawn whole before any block runs, so after block 0
    # fails the sampler stands where the batch ends, at any thread count.
    model = isotropic_model(1.0, 1.0, 1.0, 4)
    n = 6 * ROWS4
    first = model.sampler(3).draw(1) @ model.sigma_root
    f = ScalarField(value=lambda thetas: np.where((thetas == first).all(axis=1), 2.0, 0.0),
                    upper_bound=1.0, dim=4, vectorized=True)
    after = model.sampler(3)
    after.draw(n)
    for k in (1, 2):
        threads(k)
        sampler = model.sampler(3)
        with pytest.raises(FieldEvaluationError):
            smoothed_value(f, model, np.zeros(4), n, sampler)
        assert sampler.rng.bit_generator.state == after.rng.bit_generator.state, k


def test_the_adjoint_holds_one_jacobian_at_a_time(threads):
    # Dense (b, n, n), (b, n, m) and (b, q, n) Jacobians, each a new array:
    # every callable records how many Jacobians are still alive when it is
    # entered, and each result counts itself out when it is freed.
    dyn, cost, pol, model = smooth_control_problem(np.random.default_rng(3), 4, 3, 5)
    live = [0]
    entered = []

    def release():
        live[0] -= 1

    def counted(fn):
        def jacobian(*args):
            entered.append(live[0])
            J = fn(*args)
            live[0] += 1
            weakref.finalize(J, release)
            return J
        return jacobian

    dyn = dataclasses.replace(dyn, jacobian_state=counted(dyn.jacobian_state),
                              jacobian_control=counted(dyn.jacobian_control))
    pol = dataclasses.replace(pol, features_jacobian=counted(pol.features_jacobian))
    threads(1)
    n = 2 * rollout_rows((dyn, cost, pol, model))
    assert len(_row_blocks(n, _RolloutEngine(dyn, cost, pol, model).width)) == 2
    policy_gradient_batch(dyn, cost, pol, model, GaussianSampler(1, dim=1), n, "model_based")
    assert len(entered) == 2 * (3 * 4 - 2)   # per block: 4 steps of 3, only f_y at t = 1
    assert entered == [0] * len(entered)
    assert live[0] == 0


@pytest.mark.parametrize("method", ["model_based", "derivative_free"])
def test_helpers_run_under_the_callers_numpy_error_state(threads, method):
    # As in test_control: state costs + 250 overflow the squares of the
    # samples inside the blocks, which policy_gradient_batch runs under
    # np.errstate(over="ignore") and reports as a typed error.
    threads(2)
    dyn, cost, pol, model = smooth_control_problem(np.random.default_rng(3), 2, 1, 4)
    base = cost.state_cost
    cost = dataclasses.replace(cost, state_cost=lambda s, t: base(s, t) + 250.0,
                               bound=cost.bound + 250.0)
    n = 3 * rollout_rows((dyn, cost, pol, model)) + 1
    assert len(_row_blocks(n, _RolloutEngine(dyn, cost, pol, model).width)) == 3
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(EstimateOverflowError, match="standard error is nan"):
            policy_gradient_batch(dyn, cost, pol, model, GaussianSampler(1, dim=1), n, method)


class TestNoWaitOnAThreadThatCannotRun:
    def test_a_nested_call_finishes(self, threads):
        # One helper: the outer batch keeps it busy while its blocks call in.
        f, model, _ = bump_problem()

        def value(thetas):
            inner = smoothed_value(f, model, np.zeros(4), 2 * ROWS4, model.sampler(1))
            return np.full(len(thetas), inner.value)

        nested = ScalarField(value=value, upper_bound=1e9, dim=4, vectorized=True)

        def run():
            est = smoothed_value(nested, model, np.zeros(4), 3 * ROWS4 + 1, model.sampler(2))
            return est.value, est.std_err

        threads(1)
        serial = run()
        threads(2)
        assert joined(run) == serial

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="fork is POSIX only")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_a_forked_child_finishes(self, threads):
        f, model, theta = bump_problem()
        n = 3 * ROWS4 + 1
        threads(2)
        expected = smoothed_value(f, model, theta, n, model.sampler(4))  # starts a helper
        pid = os.fork()
        if pid == 0:  # the child: its call starts a helper of its own
            code = 2
            try:
                got = smoothed_value(f, model, theta, n, model.sampler(4))
                code = 0 if (got.value, got.std_err) == (expected.value, expected.std_err) else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + JOIN_TIMEOUT
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0


def refuse(thread):
    raise RuntimeError("can't start new thread")


def test_a_helper_the_system_refuses_leaves_the_blocks_to_the_caller(threads, monkeypatch):
    f, model, theta = bump_problem()
    n = 3 * ROWS4 + 1
    threads(1)
    serial = static_estimates(f, model, theta, n, 7)
    threads(2)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert_same(static_estimates(f, model, theta, n, 7), serial)


def test_a_refused_thread_start_runs_each_block_once(threads, monkeypatch):
    # The refused start leaves every block of the first call to the calling
    # thread, which runs each once; nothing is queued for the helper of the
    # second call, which runs its own blocks alone.
    threads(2)
    model = isotropic_model(1.0, 1.0, 1.0, 4)
    runs = collections.Counter()

    def value(thetas):
        runs[thetas[0].tobytes()] += 1   # blocks are told apart by their first point
        return np.zeros(len(thetas))

    f = ScalarField(value=value, upper_bound=1.0, dim=4, vectorized=True)
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", refuse)
    smoothed_value(f, model, np.zeros(4), 3 * ROWS4, model.sampler(1))
    first = set(runs)
    monkeypatch.setattr(threading.Thread, "start", start)
    smoothed_value(f, model, np.zeros(4), 3 * ROWS4, model.sampler(2))
    assert len(threads.started) == 1 and helpers_alive() == []
    assert len(first) == 3
    assert [runs[block] for block in first] == [1, 1, 1]


def test_a_refused_thread_start_keeps_no_array_alive(threads, monkeypatch):
    # What the refused thread still reaches once its call has returned must
    # not include the batch's draws or values (32 MB and 8 MB here).
    threads(2)
    model = isotropic_model(1.0, 1.0, 1.0, 4)
    f = ScalarField(value=lambda thetas: np.zeros(len(thetas)), upper_bound=1.0, dim=4,
                    vectorized=True)
    # what a first pooled call imports is not traced
    smoothed_value(f, model, np.zeros(4), 2 * ROWS4, model.sampler(1))
    monkeypatch.setattr(threading.Thread, "start", refuse)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        smoothed_value(f, model, np.zeros(4), 2**20, model.sampler(1))
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 2**20


def test_an_interrupt_on_the_calling_thread_leaves_no_helper_running(threads):
    # Blocks on the helper fail slowly, blocks on the calling thread are
    # interrupted at once: the interrupt, not a helper's lower-numbered
    # error, leaves the call, and only after the helper's block is done.
    threads(2)
    caller = threading.get_ident()
    lock = threading.Lock()
    running = [0]

    def value(thetas):
        if threading.get_ident() == caller:
            raise KeyboardInterrupt
        with lock:
            running[0] += 1
        time.sleep(0.1)
        with lock:
            running[0] -= 1
        return np.full(len(thetas), 2.0)

    f = ScalarField(value=value, upper_bound=1.0, dim=4, vectorized=True)
    model = isotropic_model(1.0, 1.0, 1.0, 4)
    for _ in range(3):
        with pytest.raises(KeyboardInterrupt):
            smoothed_value(f, model, np.zeros(4), 6 * ROWS4, model.sampler(1))
        assert running[0] == 0


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="pthread_kill is POSIX only")
def test_an_interrupt_during_the_wait_for_a_helper_leaves_no_helper_running(threads):
    # The helper's block interrupts the calling thread, which by then has
    # run its own block and waits for the helper's: the interrupt leaves
    # the call, and only after the helper's block is done.
    assert threading.current_thread() is threading.main_thread()
    threads(2)
    caller = threading.get_ident()
    helping = threading.Event()
    timer = threading.Timer(0.2, signal.pthread_kill, (caller, signal.SIGINT))
    running = []

    def value(thetas):
        if threading.get_ident() == caller:
            helping.wait(JOIN_TIMEOUT)   # leave the other block to the helper
        else:
            running.append(True)
            helping.set()
            timer.start()
            time.sleep(0.4)
            running.pop()
        return np.zeros(len(thetas))

    f = ScalarField(value=value, upper_bound=1.0, dim=4, vectorized=True)
    model = isotropic_model(1.0, 1.0, 1.0, 4)
    with pytest.raises(KeyboardInterrupt):
        smoothed_value(f, model, np.zeros(4), 2 * ROWS4, model.sampler(1))
    assert running == []
    timer.join(JOIN_TIMEOUT)


def simulate_problem():
    """The shape of det-max synthesis' Monte Carlo check: 4 states, 2
    controls, horizon 30; 4096 rollouts are one block of 29 one-step chunks."""
    rng = np.random.default_rng(47)
    system = LinearSystem(A=[0.3 * rng.standard_normal((4, 4)) for _ in range(29)],
                          B=[0.3 * rng.standard_normal((4, 2)) for _ in range(29)],
                          Q=[np.eye(4)] * 30, R=[np.eye(2)] * 29, sigma=[np.eye(2)] * 29,
                          horizon=30)
    return linear_control_problem(system, 0.05,
                                  gains=[0.2 * rng.standard_normal((2, 4)) for _ in range(29)])


def drawn_problem(draw_hook=None, cost_hook=None):
    """s' = 0.9 s + y + xi with l(s) = s^2 / 2 over 29 steps, s_1 and each
    xi_t drawn from the stream: ``draw_hook(t)`` runs before each of these
    draws (t = 0 for s_1), on the thread that draws, and ``cost_hook(t)``
    before each state cost, on the thread that runs the block."""
    def init_state_batch(g, b):
        if draw_hook is not None:
            draw_hook(0)
        return 0.5 * g.standard_normal((b, 1))

    def disturbance_batch(g, t, b):
        if draw_hook is not None:
            draw_hook(t)
        return 0.1 * g.standard_normal((b, 1))

    def state_cost(s, t):
        if cost_hook is not None:
            cost_hook(t)
        return 0.5 * s[:, 0] ** 2

    eye = lambda s, *_: np.broadcast_to(np.eye(1), s.shape + (1,))  # noqa: E731
    dyn = Dynamics(step=lambda s, y, xi, t: 0.9 * s + y + xi, state_dim=1, control_dim=1,
                   disturbance_dim=1, horizon=30,
                   jacobian_state=lambda s, y, xi, t: 0.9 * eye(s), jacobian_control=eye,
                   init_state_batch=init_state_batch, disturbance_batch=disturbance_batch,
                   vectorized=True)
    cost = ControlCost(state_cost=state_cost, control_weights=[np.eye(1)] * 29, bound=1e6,
                       state_cost_grad=lambda s, t: s, vectorized=True)
    pol = Policy(gains=[np.full((1, 1), -0.3)] * 29, features=lambda s, t: s,
                 features_jacobian=eye, vectorized=True)
    return dyn, cost, pol, ControlRiskModel(1.0, [np.eye(1)] * 29)


DRAWN_N = 4096   # one block of 8 chunks, drawn whole before it runs


class TestBlocksWhileTheBatchIsDrawn:
    """The calling thread draws a static batch and queues each block once
    its rows have landed, so the helper runs blocks during the draw and no
    block waits; a draw that stops part-way leaves the call with its own
    error.  A one-block rollout batch is drawn whole and then runs on the
    calling thread, with the bits, the errors and the sampler state of a
    one-thread run, and starts no thread."""

    def test_one_block_rollouts_keep_their_bits(self, threads):
        problem = simulate_problem()
        engine = _RolloutEngine(*problem)
        assert len(_row_blocks(4096, engine.width)) == 1
        assert len(_step_chunks(29, 4096, engine.width)) == 29
        threads(1)
        serial = batch_estimates(problem, 4096, 5)
        threads(2)
        assert_same(batch_estimates(problem, 4096, 5), serial)

    @pytest.mark.parametrize("method", ["model_based", "derivative_free"])
    def test_a_disturbed_batch_keeps_its_bits(self, threads, method):
        width = _RolloutEngine(*drawn_problem()).width
        assert len(_row_blocks(DRAWN_N, width)) == 1
        assert len(_step_chunks(29, DRAWN_N, width)) == 8
        threads(1)
        serial = policy_gradient_batch(*drawn_problem(), GaussianSampler(3, dim=1), DRAWN_N,
                                       method)
        threads(2)
        pooled = policy_gradient_batch(*drawn_problem(), GaussianSampler(3, dim=1), DRAWN_N,
                                       method)
        for name in ("mean", "std_err", "exp_cost_mean", "exp_cost_std_err"):
            assert np.array_equal(getattr(pooled, name), getattr(serial, name)), name

    def test_static_blocks_keep_their_bits(self, threads):
        f, model, theta = bump_problem()
        n = 3 * ROWS4 + 1
        threads(1)
        serial = static_estimates(f, model, theta, n, 7)
        threads(2)
        assert_same(static_estimates(f, model, theta, n, 7), serial)

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_a_static_draw_that_stops_part_way_gives_its_error(self, threads, monkeypatch,
                                                               error):
        # Five blocks; the draw of the third raises.  On two threads it
        # raises once the helper has run both landed blocks and, a moment
        # later, waits for the next: only the call's end marks free it.
        _, model, theta = bump_problem()
        helped = threading.Semaphore(0)
        calls, helpers = [0], [0]
        draw = GaussianSampler.draw

        def value(thetas):
            if threading.current_thread().name.startswith("riskconvex-blocks"):
                helped.release()
            return np.zeros(len(thetas))

        def stopping(self, n):
            calls[0] += 1
            if calls[0] == 3:
                for _ in range(2 * helpers[0]):
                    assert helped.acquire(timeout=JOIN_TIMEOUT), "the helper ran no block"
                time.sleep(0.05 * helpers[0])
                raise error("the draw stops")
            return draw(self, n)

        field = ScalarField(value=value, upper_bound=1.0, dim=4, vectorized=True)
        monkeypatch.setattr(GaussianSampler, "draw", stopping)
        for k in (1, 2):
            threads(k)
            calls[0], helpers[0] = 0, k - 1
            with pytest.raises(error, match="^the draw stops$"):
                joined(lambda: smoothed_value(field, model, theta, 5 * ROWS4, model.sampler(1)))
        assert helpers_alive() == []

    @pytest.mark.parametrize("step", [0, 10], ids=["init_state_batch", "disturbance_batch"])
    def test_a_draw_that_raises_gives_its_error(self, threads, step):
        def draw_hook(t):
            if t == step:
                raise ValueError(f"no draw at t={t}")

        def run():
            sampler = GaussianSampler(3, dim=1)
            with pytest.raises(ValueError, match=f"no draw at t={step}$"):
                policy_gradient_batch(*drawn_problem(draw_hook), sampler, DRAWN_N)
            return sampler.rng.bit_generator.state

        threads(1)
        serial = run()
        threads(2)
        assert joined(run) == serial
        assert threads.started == []

    def test_a_block_that_fails_after_the_draw_leaves_the_sampler_at_the_end(self, threads):
        # The block fails at its first state cost, which it reaches once
        # the whole batch is drawn.
        def cost_hook(t):
            raise ValueError("no state cost")

        problem = drawn_problem(cost_hook=cost_hook)
        after = GaussianSampler(3, dim=1)
        _RolloutEngine(*drawn_problem()).draw(after, DRAWN_N)
        for k in (1, 2):
            threads(k)
            sampler = GaussianSampler(3, dim=1)
            with pytest.raises(ValueError, match="no state cost"):
                joined(lambda: policy_gradient_batch(*problem, sampler, DRAWN_N))
            assert sampler.rng.bit_generator.state == after.rng.bit_generator.state, k
            assert threads.started == []

    def test_a_nested_call_during_the_draw_finishes(self, threads):
        # The calling thread, in the outer batch's draw, runs a batch of
        # three blocks with a helper of its own.
        f, model, theta = bump_problem()
        inner = []

        def draw_hook(t):
            if t == 5:
                inner.append(smoothed_value(f, model, theta, 3 * ROWS4 + 1, model.sampler(2)))

        def run():
            inner.clear()
            est = policy_gradient_batch(*drawn_problem(draw_hook), GaussianSampler(3, dim=1),
                                        DRAWN_N)
            return est.mean, inner[0].value

        threads(1)
        serial = run()
        threads(2)
        pooled = joined(run)
        assert np.array_equal(pooled[0], serial[0]) and pooled[1] == serial[1]
        assert helpers_alive() == []

    def test_a_refused_thread_start_leaves_the_draw_and_blocks_to_the_caller(self, threads,
                                                                              monkeypatch):
        problem = simulate_problem()
        f, model, theta = bump_problem()
        threads(1)
        serial = {**batch_estimates(problem, 4096, 5),
                  **static_estimates(f, model, theta, 3 * ROWS4 + 1, 7)}
        threads(2)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert_same({**batch_estimates(problem, 4096, 5),
                     **static_estimates(f, model, theta, 3 * ROWS4 + 1, 7)}, serial)

    def test_an_interrupt_during_the_draw_leaves_no_helper_running(self, threads):
        # The draw is interrupted at step 10, before any state cost runs.
        lock = threading.Lock()
        running = [0]

        def draw_hook(t):
            if t == 10:
                raise KeyboardInterrupt

        def cost_hook(t):
            with lock:
                running[0] += 1
            time.sleep(0.01)
            with lock:
                running[0] -= 1

        threads(2)
        for _ in range(3):
            with pytest.raises(KeyboardInterrupt):
                joined(lambda: policy_gradient_batch(*drawn_problem(draw_hook, cost_hook),
                                                     GaussianSampler(3, dim=1), DRAWN_N))
            assert running[0] == 0
            assert threads.started == []


def stepwise_estimate(problem, n, seed, method):
    """policy_gradient_batch's mean, std_err and exp_cost_* from the
    rollouts written out step by step (support's _full_batch, built on
    _reference_pass and _reference_scores), each step's moments reduced
    on their own: one product, or _reduced's dots of 8192 rows for a
    one-by-one moment over more rows."""
    g, PHI, w, scale = _full_batch(*problem, GaussianSampler(seed, dim=1), n, method)
    c = scale[:, None] / n
    product = _reduced if g[0].shape[1] == PHI[0].shape[1] == 1 and n > 8192 else np.matmul
    mean = np.empty((len(g), g[0].shape[1], PHI[0].shape[1]))
    sq = np.empty(mean.shape)
    for t, (g_t, phi) in enumerate(zip(g, PHI)):
        cg = c * g_t
        product(cg.T[None], phi[None], mean[t:t + 1])
        cg *= cg
        product(cg.T[None], (phi * phi)[None], sq[t:t + 1])
        sq[t] *= n
    var = np.maximum(sq - mean * mean, 0.0) * (n / (n - 1))
    return {"mean": mean, "std_err": np.sqrt(var / n), "exp_cost_mean": w.mean(),
            "exp_cost_std_err": w.std(ddof=1) / np.sqrt(n)}


def estimate_of(problem, n, seed, method):
    est = policy_gradient_batch(*problem, GaussianSampler(seed, dim=1), n, method)
    return {name: getattr(est, name)
            for name in ("mean", "std_err", "exp_cost_mean", "exp_cost_std_err")}


def chunk_steps(problem, n):
    """The steps of each chunk of a one-block batch."""
    engine = _RolloutEngine(*problem)
    assert len(_row_blocks(n, engine.width)) == 1
    return [c.stop - c.start for c in _step_chunks(engine.shape[0], n, engine.width)]


def scalar_problem(horizon):
    dyn, cost, pol, model = ScalarBenchmark(horizon=horizon).problem()
    return dyn, cost, pol.with_gains(np.full(pol.gains.shape, -0.3)), model


def planted_simulation(kind, row=100, step=10):
    """simulate_problem with one failure planted in rollout ``row`` at
    ``step``: a non-finite next state ("divergence"), a state cost past
    the bound ("bound") or one 1e5 larger, within the bound, so that
    exp(alpha J) overflows ("overflow")."""
    dyn, cost, pol, model = simulate_problem()
    if kind == "divergence":
        base_step = dyn.step

        def step_fn(s, y, xi, t):
            out = np.array(base_step(s, y, xi, t))
            if t == step:
                out[row] = np.inf
            return out

        return dataclasses.replace(dyn, step=step_fn), cost, pol, model
    base_cost, extra = cost.state_cost, 1e5 if kind == "overflow" else 2 * cost.bound

    def state_cost(s, t):
        vals = np.array(base_cost(s, t))
        if t == step:
            vals[row] += extra
        return vals

    return dyn, dataclasses.replace(cost, state_cost=state_cost), pol, model


class TestOneBlockSteps:
    """A one-block derivative-free batch of several chunks, drawn whole and
    run chunk by chunk on the calling thread at any thread count, has the
    bits of each step's moments written out alone."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("build,n,chunks", [
        (simulate_problem, 4096, [1] * 29),
        (drawn_problem, DRAWN_N, [4] * 7 + [1]),
        (lambda: scalar_problem(12), 12000, [1] * 11),
    ], ids=["detmax_simulate", "undivided_steps", "reduced_one_by_one"])
    def test_the_chunks_keep_the_bits_of_the_steps(self, threads, k, build, n, chunks):
        problem = build()
        assert chunk_steps(problem, n) == chunks
        threads(k)
        got = estimate_of(problem, n, 5, "derivative_free")
        assert np.any(got["mean"] != 0.0)
        assert_same(got, stepwise_estimate(problem, n, 5, "derivative_free"))

    def test_a_row_lifted_problem_starts_no_thread(self, threads):
        # 16 states, controls and features: 1100 rows are one block whose
        # three steps are a chunk each.
        problem = smooth_control_problem(np.random.default_rng(5), 16, 16, 4)
        for part in problem[:3]:
            part.vectorized = False
        assert chunk_steps(problem, 1100) == [1, 1, 1]
        threads(2)
        got = estimate_of(problem, 1100, 5, "derivative_free")
        assert threads.started == []
        assert_same(got, stepwise_estimate(problem, 1100, 5, "derivative_free"))

    @pytest.mark.parametrize("kind,error,match", [
        ("divergence", DivergenceError, "non-finite state at t=11$"),
        ("bound", FieldEvaluationError, "at t=10 in rollout 100$"),
        ("overflow", EstimateOverflowError, "at sample 100 "),
    ])
    def test_a_forward_pass_error_leaves_the_sampler_at_the_end(self, threads, kind, error,
                                                                 match):
        after = GaussianSampler(3, dim=1)
        _RolloutEngine(*simulate_problem()).draw(after, 4096)
        for k in (1, 2):
            threads(k)
            sampler = GaussianSampler(3, dim=1)
            with pytest.raises(error, match=match):
                policy_gradient_batch(*planted_simulation(kind), sampler, 4096)
            assert sampler.rng.bit_generator.state == after.rng.bit_generator.state, k


def streams_problem(fail_row=None, calls=None, vectorized=True):
    """drawn_problem over 3 steps: s_1 and each xi_t drawn from the stream.
    ``calls`` records (thread, b) for each init_state_batch call and
    (spawn key of the generator, t, b) for each disturbance_batch call;
    rollout ``fail_row`` starts at s_1 = 100, whose state cost breaks the
    bound.  The state cost takes a row or a batch, so the problem can be
    lifted row by row (``vectorized`` off) with the same bits per row."""
    def init_state_batch(g, b):
        if calls is not None:
            calls.append((threading.get_ident(), b))
        s1 = 0.5 * g.standard_normal((b, 1))
        if fail_row is not None:
            s1[fail_row] = 100.0
        return s1

    def disturbance_batch(g, t, b):
        if calls is not None:
            calls.append((g.bit_generator.seed_seq.spawn_key, t, b))
        return 0.1 * g.standard_normal((b, 1))

    dyn, cost, pol, model = drawn_problem()
    dyn = dataclasses.replace(dyn, horizon=4, init_state_batch=init_state_batch,
                              disturbance_batch=disturbance_batch, vectorized=vectorized)
    cost = dataclasses.replace(cost, state_cost=lambda s, t: 0.5 * np.sum(s * s, axis=-1),
                               control_weights=cost.control_weights[:3], bound=1e3,
                               vectorized=vectorized)
    pol = dataclasses.replace(pol, gains=pol.gains[:3], vectorized=vectorized)
    return dyn, cost, pol, ControlRiskModel(1.0, [np.eye(1)] * 3)


STREAMS_N = 3 * _block_rows(1) + 1   # three blocks of one-entry rows, the last one row longer


class TestBlockStreams:
    """A rollout batch of several row blocks draws s_1 of all its rollouts
    on the calling thread, then splits its sampler into one stream per
    block, from which each block draws its eps_t and xi_t on the thread
    that runs it."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_init_state_batch_is_called_once_on_the_calling_thread(self, threads, k):
        threads(k)
        calls = []
        policy_gradient_batch(*streams_problem(calls=calls), GaussianSampler(3, dim=1), STREAMS_N)
        assert [call for call in calls if len(call) == 2] == [(threading.get_ident(), STREAMS_N)]

    @pytest.mark.parametrize("k", [1, 2])
    def test_disturbance_batch_is_called_per_block_with_its_generator(self, threads, k):
        # The sampler's first split gives block i the spawn key (i,).
        threads(k)
        calls = []
        policy_gradient_batch(*streams_problem(calls=calls), GaussianSampler(3, dim=1), STREAMS_N)
        blocks = _row_blocks(STREAMS_N, 1)
        assert len(blocks) == 3
        got = collections.defaultdict(list)
        for key, t, b in (call for call in calls if len(call) == 3):
            got[key].append((t, b))
        assert got == {(i,): [(t, rows.stop - rows.start) for t in (1, 2, 3)]
                       for i, rows in enumerate(blocks)}

    @pytest.mark.parametrize("k", [1, 2])
    def test_an_error_in_block_2_leaves_the_sampler_where_a_batch_does(self, threads, k):
        # The rollout twin of test_an_error_leaves_the_sampler_at_the_end_of_the_batch.
        threads(k)
        row = 2 * _block_rows(1) + 5
        ok = GaussianSampler(3, dim=1)
        policy_gradient_batch(*streams_problem(), ok, STREAMS_N)
        failed = GaussianSampler(3, dim=1)
        with pytest.raises(FieldEvaluationError, match=f"at t=1 in rollout {row}$"):
            policy_gradient_batch(*streams_problem(fail_row=row), failed, STREAMS_N)
        assert failed.rng.bit_generator.state == ok.rng.bit_generator.state
        assert failed.seed_sequence.n_children_spawned == ok.seed_sequence.n_children_spawned == 3
        assert np.array_equal(failed.split(1)[0].draw(4), ok.split(1)[0].draw(4))

    @pytest.mark.parametrize("k", [1, 2])
    def test_a_row_lifted_problem_keeps_the_bits_of_its_vectorized_twin(self, threads, k):
        # The row-lifted twin runs serially, so at k = 2 this also checks
        # that the pooled batch keeps the serial bits.
        threads(k)
        assert_same(batch_estimates(streams_problem(vectorized=False), STREAMS_N, 5),
                    batch_estimates(streams_problem(), STREAMS_N, 5))


def python(code, *args, **env):
    """The stdout of ``code`` run by a new interpreter that imports this
    riskconvex, with ``env`` added to its environment."""
    src = str(Path(riskconvex.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


def blas_moments(threads_env, sizes):
    """policy_gradient_batch on the scalar benchmark (gains -0.3, seed 5)
    in a new process with OPENBLAS_NUM_THREADS=threads_env: the bytes of
    mean and std_err at each n of ``sizes``, hex-encoded."""
    code = ("import sys, numpy as np, riskconvex as rc; "
            "from riskconvex.benchmarks import ScalarBenchmark; "
            "dyn, cost, pol, model = ScalarBenchmark().problem(); "
            "pol = pol.with_gains(np.full(pol.gains.shape, -0.3)); "
            "[print((e.mean.tobytes() + e.std_err.tobytes()).hex()) for e in "
            "(rc.policy_gradient_batch(dyn, cost, pol, model, rc.GaussianSampler(5, dim=1), "
            "int(n)) for n in sys.argv[1:])]")
    return python(code, *map(str, sizes), OPENBLAS_NUM_THREADS=str(threads_env)).split()


def test_moments_keep_their_bits_at_one_and_two_blas_threads():
    # One-entry rows: a block of 12000 rows is one 12000-row dot, which
    # OpenBLAS splits over its threads; 40000 and 2**18 rows are blocks of
    # 16384 rows or more.
    sizes = (128, 12000, 40000, 2**18)
    assert len(_row_blocks(12000, 1)) == 1 and len(_row_blocks(2**18, 1)) == 16
    one = blas_moments(1, sizes)
    assert len(one) == len(sizes)
    assert blas_moments(2, sizes) == one


def test_import_and_single_block_calls_start_no_thread():
    engine = _RolloutEngine(*simulate_problem())
    assert engine.parallel and len(_row_blocks(4096, engine.width)) == 1
    assert len(_step_chunks(29, 4096, engine.width)) == 29
    code = ("import sys, threading, numpy as np, riskconvex.cli as cli, riskconvex as rc; "
            "imported = threading.active_count(); "
            # the calls below run as if on two CPUs, whatever the machine's count
            "from riskconvex import objective; objective._usable_cpus = lambda: 2; "
            "m = rc.isotropic_model(1.0, 1.0, 1.0, 4); "
            "rc.smoothed_value(rc.linear_field(np.ones(4)), m, np.zeros(4), 1000, m.sampler(1)); "
            # control train's batch: 128 rollouts of 2 steps, one block of one chunk
            "from riskconvex.benchmarks import ScalarBenchmark, linear_control_problem; "
            "rc.policy_gradient_batch(*ScalarBenchmark().problem(), rc.GaussianSampler(1, dim=1), "
            "128); "
            # simulate_problem's batch: 4096 rollouts of 29 steps, one block of 29 chunks
            "from riskconvex.synthesis import LinearSystem; g = np.random.default_rng(47); "
            "system = LinearSystem(A=[0.3 * g.standard_normal((4, 4)) for _ in range(29)], "
            "B=[0.3 * g.standard_normal((4, 2)) for _ in range(29)], Q=[np.eye(4)] * 30, "
            "R=[np.eye(2)] * 29, sigma=[np.eye(2)] * 29, horizon=30); "
            "problem = linear_control_problem(system, 0.05, "
            "gains=[0.2 * g.standard_normal((2, 4)) for _ in range(29)]); "
            "[rc.policy_gradient_batch(*problem, rc.GaussianSampler(1, dim=1), 4096, method) "
            "for method in ('model_based', 'derivative_free')]; "
            "single = threading.active_count(); "
            # a pooled call: three blocks and one row, on a helper that ends with the call
            "rc.smoothed_value(rc.linear_field(np.ones(4)), m, np.zeros(4), 3 * 4096 + 1, "
            "m.sampler(1)); "
            "print(imported, single, threading.active_count(), "
            "'concurrent.futures' in sys.modules)")
    assert python(code).split() == ["1", "1", "1", "False"]


def test_a_helper_stuck_in_a_block_lets_the_interpreter_exit():
    # A daemon thread's batch leaves its helper stuck in a block, and the
    # main thread returns once the helper is in it: the helper is a daemon
    # thread too, so nothing joins it at exit.
    code = textwrap.dedent("""
        import threading, numpy as np, riskconvex as rc
        from riskconvex import objective
        objective._usable_cpus = lambda: 2
        entered = threading.Event()

        def value(thetas):  # the calling thread leaves a block to the helper
            if threading.current_thread().name.startswith("riskconvex-blocks"):
                entered.set()
                threading.Event().wait()
            entered.wait()
            return np.zeros(len(thetas))

        f = rc.ScalarField(value=value, upper_bound=1.0, dim=4, vectorized=True)
        m = rc.isotropic_model(1.0, 1.0, 1.0, 4)
        threading.Thread(target=rc.smoothed_value, daemon=True,
                         args=(f, m, np.zeros(4), 3 * 4096, m.sampler(1))).start()
        print(entered.wait(60))
    """)
    assert python(code).split() == ["True"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs affinity masks and two usable CPUs")
def test_a_later_one_cpu_affinity_runs_every_block_on_the_calling_thread():
    # Slow blocks, so the helper of the first call surely takes one; the
    # second call runs under a one-CPU mask set after the first.
    code = textwrap.dedent("""
        import os, threading, time, numpy as np, riskconvex as rc
        names = []

        def value(thetas):
            names.append(threading.current_thread().name)
            time.sleep(0.02)
            return np.zeros(len(thetas))

        f = rc.ScalarField(value=value, upper_bound=1.0, dim=4, vectorized=True)
        m = rc.isotropic_model(1.0, 1.0, 1.0, 4)
        for cpus in (os.sched_getaffinity(0), {min(os.sched_getaffinity(0))}):
            os.sched_setaffinity(0, cpus)
            names.clear()
            rc.smoothed_value(f, m, np.zeros(4), 4 * 4096, m.sampler(1))
            print(",".join(sorted(set(names))))
    """)
    assert python(code).split() == ["MainThread,riskconvex-blocks", "MainThread"]
