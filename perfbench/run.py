#!/usr/bin/env python3
"""Benchmark of the morphreduce design-study pipeline.

    python3 perfbench/run.py --workload demo_campaign --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from src/ next to this
directory.  --trace 0 measures the end-to-end metrics with nothing wrapped;
--trace 1 alternates untraced iterations with iterations in which every
layer is wrapped, and reports the per-layer metrics and the tracing
overhead.
--workload all runs each workload in its own process, one after another.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it name the
workload metrics of README.md with their units, and the full record
(environment, sizes, computed bytes, checks, per-layer statistics) is
written to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("demo_campaign", "fine_hull", "reduce_large", "rigidbody_rk4")
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_SHARE = 5, 1000, 0.05


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha(root: Path):
    """Commit of the checkout read from .git without running git, or None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    try:
        return (git / head[5:]).read_text().strip()
    except OSError:
        return None


def measure(wl, seconds, recorder=None, install=None):
    """Repeat iterations for about `seconds`, timing set-up between them.

    Set-up runs SETUP_MIN_REPS times before the first iteration and again
    after each one, for at least SETUP_MIN_REPS times and SETUP_SHARE of the
    iteration's time, so that its median covers the whole run.  Returns
    (state, set-up times, iterations), the last two keyed by whether the
    layers were traced.  With a recorder, set-ups and iterations alternate
    between untraced and traced, install(recorder) wrapping the layers for
    the traced ones only.
    """
    modes = (False,) if recorder is None else (False, True)
    setups = {m: [] for m in modes}
    iterations = {m: [] for m in modes}

    def timed(traced, fn):
        if traced:
            recorder.next_run()
            install(recorder)
        try:
            t0 = time.perf_counter()
            result = fn()
            return result, time.perf_counter() - t0
        finally:
            if traced:
                recorder.uninstall()

    def set_up(budget):
        spent = 0.0
        for rep in range(SETUP_MAX_REPS):
            if rep >= SETUP_MIN_REPS and spent >= budget:
                break
            for m in modes:
                state, elapsed = timed(m, wl.setup)
                setups[m].append(elapsed)
                spent += elapsed
        return state

    state = set_up(0.0)
    start, walls = time.perf_counter(), []
    while True:
        for m in modes:
            iteration, elapsed = timed(m, lambda: wl.iterate(state))
            iterations[m].append(iteration)
            walls.append(elapsed)
        set_up(SETUP_SHARE * sum(walls[-len(modes):]))
        if time.perf_counter() - start + len(modes) * median(walls) > seconds:
            return state, setups, iterations


def end_to_end(setup_times, iterations) -> dict:
    return {"setup_s": median(setup_times),
            "compute_s": median(t for it in iterations for t in it.compute),
            "finish_s": median(t for it in iterations for t in it.finish)}


def check_summary(checks) -> dict:
    out = {}
    for c in checks:
        entry = out.setdefault(c.name, {"min": c.value, "max": c.value,
                                        "limit": c.limit, "failed": 0, "of": 0})
        entry["min"] = min(entry["min"], c.value)
        entry["max"] = max(entry["max"], c.value)
        entry["failed"] += not c.ok
        entry["of"] += 1
    return out


def run_workload(args) -> int:
    import numpy
    import layers
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    iterations, checks, exceptions, metrics = [], [], 0, {}
    try:
        wl = workloads.make(args.workload, work, args.seed % 2**32)
        record["sizes"] = wl.prepare()
        record["environment"] = {
            "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": git_sha(ROOT), "worker_threads": wl.threads, "blas_threads": 1}
        try:
            recorder = spans.Recorder() if args.trace else None
            state, setups, runs = measure(wl, args.seconds, recorder, layers.install)
            iterations, traced = runs[False], runs.get(True, [])
            base = end_to_end(setups[False], iterations)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if args.trace:
                over = end_to_end(setups[True], traced)
                metrics, record["per_layer"] = layers.metrics(
                    recorder.spans, traced[-1].values, recorder.replay_alloc(),
                    {k: over[k] - base[k] for k in base})
                record["end_to_end_traced"] = over
                recorder.dump(OUT / f"{tag}-spans.jsonl")
            else:
                metrics = {k: (v, "s") for k, v in base.items()}
                metrics["peak_rss_mb"] = (rss_mb, "MB")
            verified = wl.verify(state)
            checks = [c for it in iterations + traced for c in it.checks] + verified
            summary = {"setup_s": (base["setup_s"], "s"), "peak_rss_mb": (rss_mb, "MB")}
            summary.update(wl.summary(iterations))
            summary.update({c.name: (c.value, "1") for c in verified
                            if c.name == "steady_rel_err"})
            record["workload_metrics"] = summary
            record["computed_bytes"] = wl.computed_bytes(iterations)
            iterations = iterations + traced
        except Exception:
            traceback.print_exc()
            exceptions += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(it.units for it in iterations) + len(checks) + exceptions
    failed = (sum(it.failed_units for it in iterations)
              + sum(not c.ok for c in checks) + exceptions)
    record.update(attempted=attempted, failed=failed, checks=check_summary(checks),
                  iterations=[it.phases for it in iterations])
    if "workload_metrics" in record:
        record["workload_metrics"]["failure_rate"] = (failed / max(attempted, 1), "1")
        for name, (value, unit) in record["workload_metrics"].items():
            print(f"{args.workload} {name} = {value:.6g} {unit}")
    for c in checks:
        if not c.ok:
            print(f"{args.workload} check failed: {c.name} = {c.value:.3g} "
                  f"(limit {c.limit:g})")
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": failed == 0 and bool(iterations),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "morphreduce" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # one BLAS thread: the worker threads of each workload are its only parallelism
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
