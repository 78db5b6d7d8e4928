"""Quick self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Runs every workload at tiny sizes, untraced and traced, and checks that
each workload's result line carries every metric BENCHMARK.json names, with
its unit, and that every operation passed its checks.  Then shows that the sweep2d
check rejects a spectrum with one eigenvalue moved by 1e-6 relative.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cube3d", "sweep2d")


class SelfTestError(AssertionError):
    pass


def expect(cond, message):
    if not cond:
        raise SelfTestError(message)


def run_tiny(trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
         "--tiny", "--seconds", "0.5", "--seed", "3", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    expect(out.returncode == 0, f"run.py --trace {trace} exited "
           f"{out.returncode}: {out.stderr[-2000:]}")
    results = [json.loads(line) for line in out.stdout.splitlines()
               if line.startswith("{")]
    expect(len(results) == len(WORKLOADS),
           f"{len(results)} result lines for {len(WORKLOADS)} workloads")
    return dict(zip(WORKLOADS, results))


def test_every_metric_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for wl, result in run_tiny(trace).items():
            expect(result["correct"], f"{wl}, trace {trace}: a check failed")
            expect(result["attempted"] >= 1, f"{wl}: no operation")
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                expect(got is not None, f"{wl}: metric {m['name']} missing")
                expect(got["unit"] == m["unit"],
                       f"{wl}: {m['name']} in {got['unit']}, not {m['unit']}")
                expect(isinstance(got["value"], (int, float))
                       and math.isfinite(got["value"]),
                       f"{wl}: {m['name']} = {got['value']}")


def test_check_catches_moved_eigenvalue():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    sweep = workloads.Sweep2d(seed=0, tiny=True)
    case = ("square", 8, math.pi, "ned0", "none", "standard")
    lam, sol = sweep._solve(case)
    expect(sweep.check(case, lam, sol) == [], "unmoved spectrum rejected")
    for k in (0, 4, 9):
        moved = lam.copy()
        moved[k] *= 1 + 1e-6
        expect(sweep.check(case, moved, sol) != [],
               f"eigenvalue {k + 1} moved by 1e-6 passed the check")


def test_unexpected_failure_is_incorrect():
    sys.path.insert(0, HERE)
    import run

    def op(failed, known):
        return {"label": "op", "problems": [], "failed": failed,
                "known_failure": known, "error": "raised" if failed else None}
    expect(run.check_problems([op(True, True), op(False, False)]) == [],
           "a known failure was reported as a problem")
    expect(run.check_problems([op(True, False)]) != [],
           "an unexpected failure left the run correct")


def main():
    for test in (test_every_metric_reported, test_check_catches_moved_eigenvalue,
                 test_unexpected_failure_is_incorrect):
        try:
            test()
        except SelfTestError as e:
            print(f"FAIL {test.__name__}: {e}")
            return 1
        print(f"ok   {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
