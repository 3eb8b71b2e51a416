#!/usr/bin/env python3
"""The benchmark's own test.

Usage (from the repository root):

    python3 perfbench/selftest.py

Runs every workload in smoke mode (tiny pools and slot counts), once
untraced and once traced, and asserts that each run exits 0, reports
correct outputs, and emits exactly the end-to-end (untraced) or per-layer
(traced) metrics that BENCHMARK.json names, each with its unit.  Then
feeds the benchmark mismatched results (--inject-mismatch corrupts one
checked output) and asserts that the run exits non-zero and reports
incorrect outputs, on a bit-identity check and on the scheduler's
determinism check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--smoke", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, result, p.stdout + p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for wl in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            rc, res, log = run(wl, trace)
            tag = "%s trace=%d" % (wl, trace)
            if rc != 0 or res is None:
                failures.append("%s: exit %d\n%s" % (tag, rc, log[-2000:]))
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: result keys %s" % (tag, sorted(res)))
            if res["correct"] is not True or res["failed"] != 0:
                failures.append("%s: outputs reported incorrect" % tag)
            if res["attempted"] < 1:
                failures.append("%s: nothing attempted" % tag)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                wrong = sorted(k for k in set(got) & set(want[trace])
                               if got[k] != want[trace][k])
                failures.append("%s: missing %s extra %s wrong units %s"
                                % (tag, missing, extra, wrong))
            for k, v in res["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    failures.append("%s: %s is not a number" % (tag, k))
            print("ok   %s (%d metrics)" % (tag, len(got)), flush=True)

    for wl in ("macro-mimo", "small-cells-harq"):
        rc, res, _ = run(wl, 0, "--inject-mismatch")
        tag = "%s with a mismatched result" % wl
        if rc == 0 or (res is not None and res["correct"] is not False):
            failures.append("%s: exit %d, result %s" % (tag, rc, res))
        else:
            print("ok   %s: exit %d" % (tag, rc), flush=True)

    for f in failures:
        print("FAIL " + f)
    print("%s: %d failure(s)" % ("FAILED" if failures else "PASSED",
                                 len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
