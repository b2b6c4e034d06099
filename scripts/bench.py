#!/usr/bin/env python3
"""Record a benchmark trajectory point: perfbench once per workload and seed.

    python3 scripts/bench.py --tag 27 --seed 1 2 3 --seconds 30
    python3 scripts/bench.py --root ../copy-of-parent --tag 26 --workload fine_hull

Each run is `perfbench/run.py --trace 0` of the checkout --root (default:
the one holding this script) in its own child process, with
MALLOC_MMAP_THRESHOLD_ set in that child's environment only, so that
glibc's dynamic mmap threshold cannot move the peak RSS between runs.
Seeds run in the order given, and every workload for one seed before the
next seed.

BENCH_<tag>.json, written to --out-dir, holds the commit of the checkout
and whether it is a git work tree (perfbench numbers have differed
between a work tree and a plain copy of the same files), the Python and
numpy versions and the CPU count, and per run: the end-to-end metrics and
summary line of run.py, the workload metrics, sizes and check summary of
its record, its wall time, and its user CPU, system CPU and minor page
faults from getrusage(RUSAGE_CHILDREN).  The last stdout line
is the file's path.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

WORKLOADS = ("demo_campaign", "fine_hull", "reduce_large", "rigidbody_rk4")
MMAP_THRESHOLD = 33554432


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tag", required=True, help="names the output file BENCH_<tag>.json")
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                   help="checkout to measure (default: the one holding this script)")
    p.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--seed", nargs="+", type=int, default=[1])
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--commit", default=None,
                   help="commit a plain copy was made from (a work tree reports its HEAD)")
    p.add_argument("--out-dir", type=Path, default=Path("."))
    return p.parse_args(argv)


def git(root: Path, *args):
    """Stripped stdout of a git command in root, or None if it fails."""
    try:
        proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_one(root: Path, workload: str, seed: int, seconds: float) -> dict:
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_=str(MMAP_THRESHOLD))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, env=env, check=False)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    run = {"workload": workload, "seed": seed, "returncode": proc.returncode,
           "wall_s": wall, "user_s": after.ru_utime - before.ru_utime,
           "system_s": after.ru_stime - before.ru_stime,
           "minor_faults": after.ru_minflt - before.ru_minflt}
    try:
        run["summary"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["summary"] = None
        return run
    record_path = root / ".perfbench" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(record_path.read_text())
    for key in ("sizes", "workload_metrics", "computed_bytes", "checks"):
        run[key] = record.get(key)
    return run


def main(argv=None) -> int:
    args = parse_args(argv)
    root = args.root.resolve()
    work_tree = git(root, "rev-parse", "--is-inside-work-tree") == "true"
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = None
    doc = {
        "tag": args.tag,
        "commit": git(root, "rev-parse", "HEAD") if work_tree else args.commit,
        "git_work_tree": work_tree,
        "environment": {"python": platform.python_version(), "numpy": numpy_version,
                        "cpu_count": os.cpu_count(),
                        "cpus_allowed": len(os.sched_getaffinity(0))},
        "settings": {"workloads": args.workload, "seeds": args.seed,
                     "seconds": args.seconds, "trace": 0,
                     "MALLOC_MMAP_THRESHOLD_": MMAP_THRESHOLD},
        "runs": [],
    }
    failed = False
    for seed in args.seed:
        for workload in args.workload:
            run = run_one(root, workload, seed, args.seconds)
            doc["runs"].append(run)
            summary = run["summary"]
            failed |= run["returncode"] != 0 or not (summary and summary["correct"])
            metrics = summary["metrics"] if summary else {}
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in metrics.items())
                + f", user {run['user_s']:.3f} s, system {run['system_s']:.3f} s, "
                f"minor faults {run['minor_faults']}", flush=True)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
