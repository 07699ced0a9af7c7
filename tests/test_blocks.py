"""Batches of several row blocks on the block pool of ``objective``: the
bits of the serial loop at any thread count, the serial loop's error, and
no wait on a thread that cannot run (a forked child, a nested call)."""

import dataclasses
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import riskconvex
from riskconvex import objective
from riskconvex.control import (
    ControlCost,
    ControlRiskModel,
    Dynamics,
    Policy,
    policy_gradient_batch,
)
from riskconvex.demo1d import demo_curves, uniform_grid
from riskconvex.errors import EstimateOverflowError, FieldEvaluationError
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
from support import bump_field, certified_model, smooth_control_problem

JOIN_TIMEOUT = 120.0
ROWS4 = _block_rows(4)   # rows of one block of 4-dimensional points


@pytest.fixture
def threads(monkeypatch):
    """threads(k): run the batches of this test on k threads, the calling
    thread included, whatever the machine's CPU count; the pools it makes
    are shut down after the test."""
    pools = {}
    monkeypatch.setattr(objective, "_POOLS", pools)

    def use(k):
        shut_down(pools)
        monkeypatch.setattr(objective, "_usable_cpus", lambda: k)
        monkeypatch.setattr(objective, "_MAX_HELPERS", k - 1)

    yield use
    shut_down(pools)


def shut_down(pools):
    for executor, _ in pools.values():
        if executor is not None:
            executor.shutdown()
    pools.clear()


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
        threads(3)
        assert_same(static_estimates(f, model, theta, n, 7), serial)

    def test_demo_curves(self, threads):
        n = 3 * _block_rows(1) + 1
        threads(1)
        serial = demo_table(n)
        threads(3)
        assert_same(demo_table(n), serial)

    def test_policy_gradient_batch(self, threads):
        problem = smooth_control_problem(np.random.default_rng(3), 3, 2, 4)
        n = 3 * _block_rows(3 + 2) + 1
        threads(1)
        serial = batch_estimates(problem, n, 5)
        threads(3)
        assert_same(batch_estimates(problem, n, 5), serial)

    def test_row_callables_stay_on_the_calling_thread(self, threads):
        threads(3)
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
        n, n_pg = 3 * ROWS4 + 1, 3 * _block_rows(5) + 1

        def both(seed):
            return {**static_estimates(f, model, theta, n, seed),
                    **batch_estimates(problem, n_pg, seed)}

        threads(1)
        serial = [both(1), both(2)]
        threads(3)
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
    # Eight threads, three callers at once and a switch of the interpreter
    # lock every microsecond: a block lost, run twice or stored in the
    # wrong place would change some result's bits.
    f, model, theta = bump_problem()
    n = 16 * ROWS4 + 3
    threads(1)
    serial = [static_estimates(f, model, theta, n, seed) for seed in (1, 2, 3)]
    threads(8)
    results = [None] * 3
    users = [threading.Thread(target=lambda i=i: results.__setitem__(
        i, static_estimates(f, model, theta, n, i + 1))) for i in range(3)]
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
        threads(3)
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
        threads(3)
        width_rows = _block_rows(2)   # one state, one control
        n = 5 * width_rows + 1
        rows = [2 * width_rows + 5, 4 * width_rows + 7]
        assert len(_row_blocks(n, 2)) == 5
        problem = planted_rollouts(rows, alpha=10.0, bound=1e3)
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
    # serial loop evaluates one block, and the pool only the few it took
    # before block 0 failed.
    threads(3)
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


@pytest.mark.parametrize("method", ["model_based", "derivative_free"])
def test_helpers_run_under_the_callers_numpy_error_state(threads, method):
    # As in test_control: state costs + 250 overflow the squares of the
    # samples inside the blocks, which policy_gradient_batch runs under
    # np.errstate(over="ignore") and reports as a typed error.
    threads(3)
    dyn, cost, pol, model = smooth_control_problem(np.random.default_rng(3), 2, 1, 4)
    base = cost.state_cost
    cost = dataclasses.replace(cost, state_cost=lambda s, t: base(s, t) + 250.0,
                               bound=cost.bound + 250.0)
    n = 3 * _block_rows(3) + 1
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
        parent_pool = objective._POOLS[os.getpid()][0]
        pid = os.fork()
        if pid == 0:  # the child: its own pool, of two threads
            code = 2
            try:
                got = smoothed_value(f, model, theta, n, model.sampler(4))
                own = objective._POOLS[os.getpid()][0] is not parent_pool
                code = 0 if own and (got.value, got.std_err) == (expected.value,
                                                                 expected.std_err) else 1
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


def test_a_helper_the_system_refuses_leaves_the_blocks_to_the_caller(threads, monkeypatch):
    f, model, theta = bump_problem()
    n = 3 * ROWS4 + 1
    threads(1)
    serial = static_estimates(f, model, theta, n, 7)

    def refuse(thread):
        raise RuntimeError("can't start new thread")

    threads(3)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert_same(static_estimates(f, model, theta, n, 7), serial)


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


def test_import_and_single_block_calls_start_no_thread():
    src = str(Path(riskconvex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, threading, numpy as np, riskconvex.cli as cli, riskconvex as rc; "
            "imported = threading.active_count(); "
            "m = rc.isotropic_model(1.0, 1.0, 1.0, 4); "
            "rc.smoothed_value(rc.linear_field(np.ones(4)), m, np.zeros(4), 1000, m.sampler(1)); "
            "print(imported, threading.active_count(), 'concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["1", "1", "False"]
