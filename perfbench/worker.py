"""One workload in one process, one operation at a time.

Started by run.py with the thread count of the numerical libraries pinned.
Imports lsmaxwell from the checkout's ``src``, makes the inputs from the
seed, runs one warm-up solve, prints ``READY``, then runs whole rounds
until ``--seconds`` have passed and prints one JSON line with the raw
samples.  With ``--setup-only`` it exits after ``READY``.

With ``--trace 1`` every round runs twice on the same inputs, untraced and
then traced; the traced ones give the per-layer metrics and the difference
of the two kinds of rounds is the tracing overhead.  Checks run outside every timed interval.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from lsmaxwell.assembly import AssemblyError  # noqa: E402
from lsmaxwell.elements import ElementError  # noqa: E402
from lsmaxwell.mesh import MeshError  # noqa: E402
from lsmaxwell.pencil import PencilError  # noqa: E402

import workloads  # noqa: E402

# lsmaxwell's own errors end an operation as failed; any other exception is
# a fault of the benchmark or of a library and ends the run
FAILURES = (AssemblyError, ElementError, MeshError, PencilError)


def run_round(round_ops, tracer, first_id):
    """Run one round's operations; returns one dict per operation."""
    out = []
    for k, op in enumerate(round_ops):
        failed = False
        t0 = time.perf_counter()
        try:
            result = tracer.run_op(first_id + k, op.run) if tracer else op.run()
        except FAILURES as e:
            failed, result = True, str(e)
        dt = time.perf_counter() - t0
        problems = [] if failed else op.check(result)
        out.append({"seconds": dt, "failed": failed, "problems": problems,
                    "label": op.label, "known_failure": op.known_failure,
                    "error": result if failed else None})
    return out


def measure(wl, seconds, traced):
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
    rounds = []       # (traced, ops)
    start = time.perf_counter()
    n_ops = 0
    while not rounds or time.perf_counter() - start < seconds:
        round_ops = wl.round()
        for with_trace in ((False, True) if traced else (False,)):
            restore = tracer.install() if with_trace else None
            try:
                ops = run_round(round_ops, tracer if with_trace else None, n_ops)
            finally:
                if restore:
                    restore()
            rounds.append((with_trace, ops))
            n_ops += len(ops)
    return rounds, tracer


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-out")
    args = p.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    wl.warmup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    rounds, tracer = measure(wl, args.seconds, bool(args.trace))
    result = {
        "rounds": [{"traced": t, "ops": ops} for t, ops in rounds],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        n_traced = sum(1 for t, _ in rounds if t)
        result["layers"] = tracer.metrics(n_traced)
        if args.trace_out:
            with open(args.trace_out, "w") as f:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "spans": tracer.dump()}, f)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
