"""Span tracing of riskconvex from outside the package.

:class:`Tracer` wraps every public function and method of the package's
layers, identified by object identity so that a function re-exported
under another module name (``riskconvex.solve`` and
``riskconvex.solver.solve``, or ``cli.rollout`` and ``control.rollout``)
is wrapped at every binding.  It also wraps the callables of every
problem object (fields, dynamics, costs, policies) that enters or leaves
a traced call, so time spent in user-supplied model code shows as its
own layer.  :meth:`Tracer.restore` puts every original back.

Spans are kept in memory as ``[parent, key, layer, t0, t1, outer, info]``
where ``outer`` is the outermost open span of the same layer (used for
busy time, which must not count nested same-layer spans twice) and
``info`` holds counts taken at the boundary.  :func:`layer_metrics`
turns them into the per-layer metrics; :meth:`Tracer.dump` writes them
as JSON.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import time

import numpy as np

# Module short name -> layer.  ``benchmarks`` builds control problems.
LAYER_OF_MODULE = {
    "sampling": "sampling", "fields": "fields", "objective": "objective",
    "sensitivity": "sensitivity", "solver": "solver", "control": "control",
    "benchmarks": "control", "synthesis": "synthesis", "classify": "classify",
    "noisynet": "noisynet", "demo1d": "demo1d", "cli": "io", "configfile": "io",
    "csvio": "io", "datasets": "io",
}
LAYERS = ("sampling", "fields", "objective", "sensitivity", "solver", "control",
          "synthesis", "classify", "noisynet", "demo1d", "io", "model")

# Callable fields of problem objects, by class name; the value is the key
# prefix their spans get in the "model" layer.
PROBLEM_FIELDS = {
    "ScalarField": ("field", ("value", "gradient")),
    "RawField": ("field", ("value", "gradient")),
    "Dynamics": ("dynamics", ("step", "jacobian_state", "jacobian_control", "disturbance",
                              "disturbance_batch", "init_state", "init_state_batch")),
    "ControlCost": ("cost", ("state_cost", "state_cost_grad")),
    "Policy": ("policy", ("features", "features_jacobian")),
}
JACOBIANS = ("jacobian_state", "jacobian_control", "features_jacobian")
CONTROL_MODEL_PREFIXES = ("dynamics.", "cost.", "policy.")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _rows(args, kwargs, result):
    return {"rows": int(np.shape(result)[0]) if np.ndim(result) else 1}


def _batch_points(args, kwargs, result):
    return {"points": len(_arg(args, kwargs, 1, "thetas"))}


def _ess(args, kwargs, result):
    a = np.asarray(_arg(args, kwargs, 0, "a"), dtype=float)
    w = np.exp(a - a.max())
    return {"ess_frac": float(w.sum() ** 2 / (w @ w) / a.size)}


def _pg_batch(args, kwargs, result):
    n = int(_arg(args, kwargs, 5, "n"))
    return {"rollouts": n, "batch": n}


def _train_policy(args, kwargs, result):
    cfg = _arg(args, kwargs, 5, "config")
    pilot = cfg.pilot_samples if cfg.zeta is None else 0
    return {"rollouts": cfg.iterations * max(cfg.batch, 1) + pilot, "batch": cfg.batch}


def _single_rollout(args, kwargs, result):
    return {"rollouts": 1, "batch": 1}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# Counts taken at the boundary of particular functions, keyed by span key.
POST = {
    "sampling.GaussianSampler.draw": _rows,
    "sampling.GaussianSampler.normal": _rows,
    "fields.ScalarField.evaluate": lambda a, k, r: {"points": 1},
    "fields.ScalarField.grad": lambda a, k, r: {"points": 1},
    "fields.ScalarField.evaluate_batch": _batch_points,
    "fields.ScalarField.grad_batch": _batch_points,
    "objective.log_mean_exp": _ess,
    "control.policy_gradient_batch": _pg_batch,
    "control.train_policy": _train_policy,
    "control.rollout": _single_rollout,
    "control.policy_gradient_model_based": _single_rollout,
    "control.policy_gradient_derivative_free": _single_rollout,
    "solver.solve": lambda a, k, r: {"iterations": _arg(a, k, 3, "config").iterations},
    "synthesis.synthesize": lambda a, k, r: {"iterations": r.iterations,
                                             "converged": bool(r.converged)},
    "synthesis.detmax_objective": lambda a, k, r: {"value": r.value, "min_eig": r.min_eig},
    "csvio.write_csv": _bytes_written,
}


def _jacobian_bytes(args, kwargs, result):
    # Computed from the returned array's logical size, not measured traffic.
    return {"bytes": int(np.asarray(result).nbytes)}


class Tracer:
    """Installs span-recording wrappers into the riskconvex package."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._outer: dict = {}
        self._patches: list = []
        self._problem_classes: tuple = ()
        self.origin = time.perf_counter()

    # -------------------------------------------------------------- wrapping

    def _wrap(self, fn, key, layer, post):
        spans, stack, outer = self.spans, self._stack, self._outer
        adopt = self._adopt
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for a in args:
                adopt(a)
            sid = len(spans)
            own = layer not in outer
            if own:
                outer[layer] = sid
            rec = [stack[-1] if stack else -1, key, layer, 0.0, 0.0, outer[layer], None]
            spans.append(rec)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if own:
                    del outer[layer]
                rec[3] = t0
                rec[4] = t1
            if post is not None:
                rec[6] = post(args, kwargs, result)
            if isinstance(result, tuple):
                for r in result:
                    adopt(r)
            else:
                adopt(result)
            return result

        traced.perfbench_traced = True
        return traced

    def _patch(self, owner, attr, value):
        # From a class, take the raw descriptor so a classmethod is restored as one.
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def _adopt(self, obj):
        """Wrap the callable fields of a problem object, once."""
        if not isinstance(obj, self._problem_classes):
            return
        prefix, names = PROBLEM_FIELDS[type(obj).__name__]
        for name in names:
            fn = getattr(obj, name)
            if fn is None or getattr(fn, "perfbench_traced", False):
                continue
            post = _jacobian_bytes if name in JACOBIANS else None
            self._patch(obj, name, self._wrap(fn, f"{prefix}.{name}", "model", post))

    def install(self) -> None:
        """Wrap every public function and method of every layer module."""
        import riskconvex

        modules = [riskconvex] + [importlib.import_module(f"riskconvex.{info.name}")
                                  for info in pkgutil.iter_modules(riskconvex.__path__)]
        classes = []
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            layer = LAYER_OF_MODULE.get(short)
            if layer is None:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    key = f"{short}.{name}"
                    wrappers[id(obj)] = (obj, self._wrap(obj, key, layer, POST.get(key)))
                elif inspect.isclass(obj):
                    if obj.__name__ in PROBLEM_FIELDS:
                        classes.append(obj)
                    self._wrap_methods(obj, short, layer)
        self._problem_classes = tuple(classes)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

    def _wrap_methods(self, cls, short, layer) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            key = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(member, key, layer, POST.get(key)))
            elif isinstance(member, classmethod):
                self._patch(cls, attr, classmethod(
                    self._wrap(member.__func__, key, layer, POST.get(key))))

    def restore(self) -> None:
        """Put back every original binding, in reverse order of patching."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -------------------------------------------------------------- output

    def by_name(self) -> dict:
        """{span key: {calls, busy_s, self_s}}; busy time counts a recursive call once."""
        out = {}
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[0] >= 0:
                child[s[0]] += s[4] - s[3]
        chain, open_keys = [], {}
        for i, (parent, key, _, t0, t1, _, _) in enumerate(self.spans):
            # Spans are recorded in start order, so the open chain ends at the parent.
            while chain and chain[-1] != parent:
                open_keys[self.spans[chain.pop()][1]] -= 1
            agg = out.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += t1 - t0 - child[i]
            if not open_keys.get(key):
                agg["busy_s"] += t1 - t0
            chain.append(i)
            open_keys[key] = open_keys.get(key, 0) + 1
        return out

    def dump(self, path) -> None:
        """Write per-name totals and every span as [parent, key, t0, t1] rows."""
        keys = sorted({s[1] for s in self.spans})
        index = {k: i for i, k in enumerate(keys)}
        layer = {s[1]: s[2] for s in self.spans}
        rows = [[s[0], index[s[1]], round(s[3] - self.origin, 9), round(s[4] - self.origin, 9)]
                for s in self.spans]
        doc = {"by_name": self.by_name(), "keys": keys, "layers": [layer[k] for k in keys],
               "columns": ["parent", "key", "t0_s", "t1_s"], "spans": rows}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics as {name: (value, unit)} from recorded spans."""
    n = len(spans)
    parent = np.array([s[0] for s in spans], dtype=np.int64)
    outer = np.array([s[5] for s in spans], dtype=np.int64)
    dur = np.array([s[4] - s[3] for s in spans], dtype=float)
    key = np.array([s[1] for s in spans], dtype=object).astype(str)
    layer = np.array([s[2] for s in spans], dtype=object).astype(str)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child
    is_outer = outer == np.arange(n)
    parent_key = np.where(has_parent, key[np.maximum(parent, 0)], "")
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def info(mask, field):
        return [(spans[i][6] or {}).get(field, 0) for i in np.flatnonzero(mask)]

    for name in LAYERS:
        in_layer = layer == name
        put(f"{name}.calls", in_layer.sum(), "count")
        put(f"{name}.busy_s", dur[in_layer & is_outer].sum(), "s")
        put(f"{name}.self_s", self_t[in_layer].sum(), "s")

    def group_self(name, roots):
        """Self time of `name` spans whose outermost same-layer span is in roots."""
        return self_t[(layer == name) & np.isin(outer, np.flatnonzero(roots))].sum()

    put("sampling.rows", sum(info(layer == "sampling", "rows")), "count")
    put("fields.points", sum(info(layer == "fields", "points")), "count")

    lme = key == "objective.log_mean_exp"
    put("objective.lme_s", dur[lme].sum(), "s")
    put("objective.lme_ess_frac", np.mean(info(lme, "ess_frac")) if lme.any() else 0.0, "frac")

    solves = (key == "solver.solve") & is_outer
    iters = sum(info(solves, "iterations"))
    put("solver.iterations", iters, "count")
    put("solver.self_us_per_iter", 1e6 * group_self("solver", solves) / iters if iters else 0.0,
        "us")

    small = np.zeros(n, dtype=bool)
    rollouts = 0
    for i in np.flatnonzero((layer == "control") & is_outer):
        rec = spans[i][6] or {}
        if rec.get("rollouts") and rec["batch"] <= 128:
            small[i] = True
            rollouts += rec["rollouts"]
    put("control.self_us_per_rollout",
        1e6 * group_self("control", small) / rollouts if rollouts else 0.0, "us")
    in_model = layer == "model"
    control_model = in_model & is_outer & np.char.startswith(key, CONTROL_MODEL_PREFIXES[0])
    for prefix in CONTROL_MODEL_PREFIXES[1:]:
        control_model |= in_model & is_outer & np.char.startswith(key, prefix)
    put("control.model_s", dur[control_model].sum(), "s")
    put("control.jacobian_bytes", sum(info(in_model, "bytes")), "B")

    put("classify.objective_evals", (key == "classify.erfc_objective").sum(), "count")
    evals = np.isin(key, ("noisynet.mse", "noisynet.predict"))
    put("noisynet.eval_s",
        dur[evals & ~np.isin(parent_key, ("noisynet.mse", "noisynet.predict"))].sum(), "s")
    csv = np.char.startswith(key, "csvio.")
    put("io.csv_s", dur[csv & ~np.char.startswith(parent_key, "csvio.")].sum(), "s")
    put("io.bytes_written", sum(info(key == "csvio.write_csv", "bytes")), "B")
    put("cli.self_s", self_t[np.char.startswith(key, "cli.")].sum(), "s")

    synth = key == "synthesis.synthesize"
    put("synthesis.iterations", sum(info(synth, "iterations")), "count")
    objective_evals = key == "synthesis.detmax_objective"
    gradient_evals = key == "synthesis.detmax_gradient"
    put("synthesis.objective_evals", objective_evals.sum(), "count")
    put("synthesis.gradient_evals", gradient_evals.sum(), "count")
    put("synthesis.objective_s", dur[objective_evals].sum(), "s")
    put("synthesis.gradient_s", dur[gradient_evals].sum(), "s")
    put("synthesis.converged_frac", np.mean(info(synth, "converged")) if synth.any() else 0.0,
        "frac")
    trials = accepted = 0
    by_parent: dict = {}
    for i in np.flatnonzero(objective_evals & np.isin(parent, np.flatnonzero(synth))):
        by_parent.setdefault(parent[i], []).append(spans[i][6])
    for evals_in in by_parent.values():
        # The first evaluation is the start point; each later one is a
        # trial step, accepted when W stays positive definite and the
        # objective improves on the current iterate.
        current = evals_in[0]["value"]
        for rec in evals_in[1:]:
            trials += 1
            if rec["min_eig"] > 0.0 and rec["value"] > current:
                accepted += 1
                current = rec["value"]
    put("synthesis.accept_frac", accepted / trials if trials else 0.0, "frac")
    put("trace.spans", n, "count")
    return out
