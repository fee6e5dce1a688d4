"""End-to-end and per-layer benchmark for trifuse.

    python3 perfbench/run.py --workload toy_train --seed 1 --seconds 35
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Run from the repository root. One process measures one workload as a
closed loop: one caller, each call after the previous one returns. With
``--trace 0`` the last line of standard output is a JSON object holding
every end-to-end metric; with ``--trace 1`` it holds every per-layer
metric, from a traced session that follows a shorter untraced one, and
the tracing overhead is the difference between the two. ``--workload
all`` runs each workload in its own process and prints every metric by
name and unit. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

#: BLAS pool size, pinned before numpy loads; a second thread measured no
#: faster on either input size of two cores
BLAS_THREADS = "1"
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: share of --seconds a traced run spends untraced, to measure overhead
UNTRACED_SHARE = 0.35


def _commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' if none."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(cfg_digest: str) -> dict:
    import numpy
    import scipy
    from trifuse.tensor import default_dtype
    return {"cores": os.cpu_count(), "blas_threads": int(BLAS_THREADS),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "precision": default_dtype().__name__, "commit": _commit(),
            "config_sha256": cfg_digest}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import hashlib
    import layers
    import workloads
    from spans import Tracer
    from trifuse.config import save_config

    workload = workloads.WORKLOADS[name]
    cfg = workloads.resolve(workload, ROOT)
    work = os.path.join(ROOT, ".perfbench_work", f"{name}-{os.getpid()}")
    os.makedirs(work)
    try:
        save_config(os.path.join(work, "resolved.cfg"), cfg)
        with open(os.path.join(work, "resolved.cfg"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        checks = workloads.Checks()

        def session(sub: str, tracer=None):
            path = os.path.join(work, sub)
            os.makedirs(path)
            return workloads.Session(workload, cfg, seed, path, checks, tracer)

        if not trace:
            s = session("e2e")
            metrics = s.run(seconds, 2)
            units = {n: u for n, u, _ in workloads.END_TO_END}
            info = s.info
        else:
            plain = session("untraced").run(UNTRACED_SHARE * seconds, 1)
            tracer = Tracer()
            s = session("traced", tracer)
            traced = s.run((1 - UNTRACED_SHARE) * seconds, 2)
            checks(layers.counters_repeat(tracer),
                   "tape counters repeat exactly across steps and passes")
            metrics = layers.layer_metrics(tracer)
            for key, _, _ in layers.OVERHEAD:
                metrics[f"trace.overhead.{key}"] = traced[key] - plain[key]
            units = {n: u for n, u, _ in layers.PER_LAYER}
            info = s.info
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    return {
        "workload": name, "seed": seed, "trace": int(trace), "info": info,
        "env": environment(digest),
        "failed_checks": sorted(set(checks.failed)),
        "result": {"correct": not checks.failed,
                   "attempted": checks.attempted,
                   "failed": len(checks.failed),
                   "metrics": {k: {"value": metrics[k], "unit": units[k]}
                               for k in units}},
    }


def _print_result(run: dict) -> None:
    res = run["result"]
    print(f"# {run['workload']} seed={run['seed']} trace={run['trace']}")
    print("# env " + json.dumps(run["env"], sort_keys=True))
    print("# info " + json.dumps(run["info"], sort_keys=True))
    for name, m in res["metrics"].items():
        print(f"{run['workload']:<15} {name:<36} {m['value']:>16.6g} "
              f"{m['unit']}")
    frac = res["failed"] / res["attempted"]
    print(f"{run['workload']:<15} {'failed_frac':<36} {frac:>16.6g} "
          f"({res['failed']} of {res['attempted']} checks)")
    for what in run["failed_checks"]:
        print(f"# FAILED check: {what}")


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    results = {}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines), flush=True)
        results[name] = json.loads(last)
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in _THREAD_VARS:
        os.environ[var] = BLAS_THREADS

    if not os.path.isfile(os.path.join(ROOT, "src", "trifuse", "__init__.py")):
        print(f"error: no trifuse source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload == "all":
        return run_all(args)

    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    run = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_result(run)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
