"""Benchmark of lsmaxwell: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 perfbench/run.py [--workload cube3d|sweep2d|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in its own process
(worker.py), one operation at a time, with the numerical libraries pinned
to THREADS threads.  With ``--trace 0`` the set-up is measured in
SETUP_PROBES extra processes as well and the median is reported.  Each
workload's report ends with one JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``, so a run of one workload ends with its result;
the raw samples and the trace go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("cube3d", "sweep2d")

# one BLAS/OpenMP thread: the operations run one at a time, SuperLU and
# ARPACK gain nothing from a second thread here, and a second thread makes
# the timings of a 2-core machine spread more
THREADS = 1
SETUP_PROBES = 6

END_TO_END = {"setup_s": "s", "solve_s.p50": "s", "wall_s": "s",
              "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """A worker process failed or ran past the deadline."""


def worker_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def run_worker(args, deadline):
    """Start worker.py; returns (set-up seconds, parsed last JSON line or
    None for a set-up probe).  Set-up runs from just before the process
    starts until it prints READY."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=worker_env(), cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        setup = None
        lines = []
        for line in proc.stdout:
            if setup is None and line.strip() == "READY":
                setup = time.perf_counter() - t0
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or setup is None:
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    return setup, (json.loads(lines[-1]) if lines else None)


def end_to_end(raw, setups):
    # every round holds the same operations; the median is taken within each
    # round and averaged over the run, like the round time, so that a slow
    # spell of the machine lasting part of the run shifts it only by its share
    rounds = [[op["seconds"] for op in r["ops"]] for r in raw["rounds"]]
    values = {
        "setup_s": statistics.median(setups),
        "solve_s.p50": statistics.fmean(statistics.median(r) for r in rounds),
        "wall_s": statistics.fmean(sum(r) for r in rounds),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}


def per_layer(raw):
    def mean_round(traced):
        sums = [sum(op["seconds"] for op in r["ops"])
                for r in raw["rounds"] if r["traced"] == traced]
        return sum(sums) / len(sums)
    metrics = dict(raw["layers"])
    metrics["trace.overhead_s"] = {"value": mean_round(True) - mean_round(False),
                                   "unit": "s"}
    return metrics


def check_problems(ops):
    """Failed checks, and failures of operations not known to fail; the run
    is correct only when there are none."""
    problems = [f"{op['label']}: {p}" for op in ops for p in op["problems"]]
    problems += [f"{op['label']}: unexpected failure: {op['error']}"
                 for op in ops if op["failed"] and not op["known_failure"]]
    return problems


def run_workload(name, seed, seconds, trace, tiny):
    # a traced run measures every round twice; the last round may overrun
    deadline = time.monotonic() + 2 * seconds * (2 if trace else 1) + 60
    os.makedirs(OUT, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace}"
    base = ["--workload", name, "--seed", str(seed)]
    if tiny:
        base.append("--tiny")
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(base + ["--seconds", "0", "--setup-only"],
                                     deadline)[0])
    extra = ["--trace-out", os.path.join(OUT, f"trace-{tag}.json")] if trace else []
    setup, raw = run_worker(base + ["--seconds", str(seconds),
                                    "--trace", str(trace)] + extra, deadline)
    setups.append(setup)

    ops = [op for r in raw["rounds"] for op in r["ops"]]
    problems = check_problems(ops)
    metrics = per_layer(raw) if trace else end_to_end(raw, setups)
    result = {"correct": not problems, "attempted": len(ops),
              "failed": sum(op["failed"] for op in ops), "metrics": metrics}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as f:
        json.dump({"result": result, "setups": setups, "problems": problems,
                   "raw": raw}, f, indent=1)
    return result, problems


def report(name, result, problems):
    for m, v in result["metrics"].items():
        print(f"{name:8s} {m:40s} {v['value']:14.6g} {v['unit']}")
    print(f"{name:8s} attempted {result['attempted']}  failed {result['failed']}"
          f"  correct {str(result['correct']).lower()}")
    for p in problems[:20]:
        print(f"{name:8s} CHECK FAILED {p}")
    print(json.dumps(result), flush=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the self-test")
    args = p.parse_args(argv)
    # on SIGTERM, exit through run_worker's finally, which kills the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isfile(os.path.join(ROOT, "src", "lsmaxwell", "__init__.py")):
        print(f"no lsmaxwell sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            report(name, *run_workload(name, args.seed, args.seconds,
                                       args.trace, args.tiny))
    except BenchError as e:
        print(e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
