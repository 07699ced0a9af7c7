#!/usr/bin/env python3
"""Benchmark of riskconvex: one workload per process, driven from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root.  A workload is a closed loop with a single
client: each round of jobs starts only after the previous round ends, in
this process, with BLAS pinned to one thread.  The seed generates every
input; the round count is --seconds over the workload's nominal round
time, so a run does the same work on every commit.

The host's speed drifts, so every job is timed between two runs of a
fixed probe kernel (perfbench/speed.py) and the gated times are
reference-speed seconds: measured seconds scaled by the probe's
reference time over its current time.  The raw seconds are printed too.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
runs half as many rounds, each once untraced and once traced on the
same inputs, and reports the per-layer metrics from the spans plus
trace.overhead_frac (traced over untraced wall time, minus 1).  The
spans are written to .perfbench_work/ at the end of the run.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give the
run metadata and a readable report.  --smoke runs every workload at
tiny sizes, traced and untraced, and checks that every metric named in
BENCHMARK.json is present with its unit and that no job failed.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedProbe, reference_seconds  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="one round at smoke-test sizes")
    p.add_argument("--smoke", action="store_true", help="run every workload at tiny sizes")
    return p.parse_args(argv)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_in_fresh_interpreter() -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import riskconvex.cli"], cwd=ROOT, env=env,
                   check=True, stdout=subprocess.DEVNULL)


def run_round(workload, rnd, probe):
    """Run one round's jobs in order; a job that raises is recorded and skipped.

    Each job is timed on its own, with the speed probe taken between jobs
    (outside the timed spans), so the round has both raw seconds and
    reference-speed seconds.
    """
    done, errors, samples = {}, {}, 0
    raw = ref = 0.0
    before = probe.measure()
    for name, job in workload.jobs(rnd):
        t0 = time.perf_counter()
        try:
            out, n = job(done)
        except Exception as exc:  # counted as a failed job; the loop goes on
            out, n = None, 0
            errors[name] = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        after = probe.measure()
        raw += dt
        ref += reference_seconds(dt, before, after)
        before = after
        if name not in errors:
            done[name] = out
            samples += n
    return {"outputs": done, "errors": errors, "samples": samples, "raw_s": raw, "ref_s": ref}


def check_rounds(workload, records):
    """(attempted, failed, problems, per-record det-max gaps) over recorded rounds."""
    attempted = failed = 0
    problems = []
    gaps = []
    for i, (rnd, rec) in records:
        names = [name for name, _ in workload.jobs(rnd)]
        try:
            found = workload.check(rnd, rec["outputs"])
            gaps.append(workload.gap(rnd, rec["outputs"]))
        except Exception as exc:  # a check that cannot run fails every job it covers
            found = {name: [f"check raised {type(exc).__name__}: {exc}"] for name in names}
        for name in names:
            attempted += 1
            msgs = [rec["errors"][name]] if name in rec["errors"] else found.get(name, [])
            if msgs:
                failed += 1
                problems.append(f"round {i} {name}: {'; '.join(msgs)}")
    return attempted, failed, problems, gaps


def metadata(workload, seed, rounds, tiny):
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": workload.name, "why": workload.why, "seed": seed,
        "sizes": workload.sizes(tiny), "rounds": rounds,
        "loop": "closed, one client, one process",
    }


def untraced_phase(workload, inputs, probe, setup, setup_raw):
    """End-to-end metrics over all rounds, tracing off."""
    records = [(i, (rnd, run_round(workload, rnd, probe))) for i, rnd in enumerate(inputs)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref = [rec["ref_s"] for _, (_, rec) in records]
    raw = [rec["raw_s"] for _, (_, rec) in records]
    samples = sum(rec["samples"] for _, (_, rec) in records)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(ref), "s"),
        "round_p50_s": (statistics.median(ref), "s"),
        "samples_per_s": (samples / sum(ref), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    raw_metrics = {
        "setup_raw_s": (statistics.median(setup_raw), "s"),
        "wall_raw_s": (sum(raw), "s"),
        "round_p50_raw_s": (statistics.median(raw), "s"),
        "samples_per_raw_s": (samples / sum(raw), "1/s"),
    }
    extra = {"round_ref_s": ref, "round_raw_s": raw, "samples": samples}
    return records, metrics, raw_metrics, extra


def traced_phase(workload, inputs, probe):
    """Per-layer metrics: each round once untraced and once traced, order alternating."""
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    records = []
    walls = {False: 0.0, True: 0.0}
    for i, rnd in enumerate(inputs):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                rec = run_round(workload, rnd, probe)
            finally:
                if traced:
                    tracer.restore()
            walls[traced] += rec["ref_s"]
            records.append((i, (rnd, rec)))
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_frac"] = (walls[True] / walls[False] - 1.0, "frac")
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.dump(WORK / f"spans-{workload.name}.json")
    return records, metrics


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    warnings.filterwarnings("ignore", message="per-step certificate fails")
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    rounds = 1 if args.tiny else max(1, round(args.seconds / workload.nominal_round_s))
    workdir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        probe = SpeedProbe()
        setup, setup_raw = [], []
        for _ in range(SETUP_REPS):
            before = probe.measure()
            t0 = time.perf_counter()
            import_in_fresh_interpreter()
            inputs = workload.make_rounds(args.seed, rounds, args.tiny, workdir / "rounds")
            warm = workload.make_rounds(args.seed, 1, True, workdir / "warm")
            run_round(workload, warm[0], probe)
            setup_raw.append(time.perf_counter() - t0)
            setup.append(reference_seconds(setup_raw[-1], before, probe.measure()))

        if args.trace:
            records, metrics = traced_phase(workload, inputs[:max(1, rounds // 2)], probe)
            raw_metrics, extra = {}, {}
        else:
            records, metrics, raw_metrics, extra = untraced_phase(workload, inputs, probe,
                                                                  setup, setup_raw)
        attempted, failed, problems, gaps = check_rounds(workload, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Traced runs pass each round twice with identical results: one gap per round.
    gap = sum(dict(zip((i for i, _ in records), gaps)).values())

    meta = metadata(workload, args.seed, rounds, args.tiny)
    meta.update(extra, failed_frac=failed / attempted, attempted=attempted, failed=failed,
                trace=args.trace)
    notes = {}
    if args.trace:
        metrics["synthesis.detmax_gap"] = (gap, "logdet")
        report = metrics
    else:
        report = dict(metrics, failed_frac=(failed / attempted, "frac"))
        if workload.has_detmax_gap:
            report["detmax_gap"] = (gap, "logdet")
        report.update(raw_metrics)
        notes = {"setup_s": f"median of {SETUP_REPS} set-ups",
                 "round_p50_s": f"median of {rounds} rounds",
                 "failed_frac": f"{failed} of {attempted} jobs",
                 "detmax_gap": "reference optimum minus reached, summed over the run's solves",
                 "setup_raw_s": "raw: measured seconds; the gated times above are "
                                "reference-speed seconds"}
    if workload.has_detmax_gap:
        meta["detmax_gap"] = gap
    print("perfbench-meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in report.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {workload.name:<17} {name:<30} {value:>16.6g} {unit}{note}")
    for line in problems:
        print("FAILED " + line, file=sys.stderr)
    WORK.mkdir(parents=True, exist_ok=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (WORK / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "problems": problems, **result}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced, against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            problems = []
            if proc.returncode != 0 or not lines:
                problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
            else:
                result = json.loads(lines[-1])
                meta = json.loads(next(ln for ln in lines if ln.startswith("perfbench-meta "))
                                  .split(" ", 1)[1])
                expected = spec["per_layer" if trace else "end_to_end"]
                problems += [f"metric {m['name']} missing or not in {m['unit']}"
                             for m in expected
                             if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
                if not result["correct"] or result["failed"] or meta["failed_frac"] != 0:
                    problems.append(f"failed jobs: {proc.stderr.strip()[-500:]}")
                if name == "detmax_synth" and "detmax_gap" not in meta:
                    problems.append("detmax_gap not reported")
            ok = ok and not problems
            print(f"smoke {name} trace={trace}: {'ok' if not problems else '; '.join(problems)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "riskconvex" / "__init__.py").is_file():
        print(f"perfbench: no riskconvex sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        print("perfbench: --workload is required", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
