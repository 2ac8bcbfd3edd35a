#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload (those of BENCHMARK.json and push-durable) for one
second, untraced and traced, and checks that each run exits 0, reports correct=true and prints every
end-to-end (untraced) or per-layer (traced) metric with its declared unit.
Then checks the correctness gates themselves: a deliberately wrong expected
fold (push workloads) and a wrong expected checksum (sample-suite) must
make the command exit nonzero with correct=false, and sample-suite's
simulated metrics must be bit-identical across seeds.  Takes about three
minutes; prints one line per check and exits nonzero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    inputs = [l.split(": ", 1)[1] for l in lines if l.startswith("inputs: ")]
    return proc.returncode, result, inputs[0] if inputs else None


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def check_metrics(result, declared, what):
    got = result["metrics"]
    for m in declared:
        expect(m["name"] in got and got[m["name"]]["unit"] == m["unit"],
               "%s prints %s [%s]" % (what, m["name"], m["unit"]))
    extra = set(got) - {m["name"] for m in declared}
    expect(not extra, "%s prints no undeclared metric %s" % (what,
                                                             sorted(extra)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # push-durable is runnable but not listed in BENCHMARK.json (README.md
    # says why); it is held to the same output format.
    workloads = [w["name"] for w in bench["workloads"]]
    if "push-durable" not in workloads:
        workloads.append("push-durable")
    sims = {}
    for w in workloads:
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            what = "%s --trace %d" % (w, trace)
            code, result, inputs = run(w, 7, trace)
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0 and result["attempted"] >= 1,
                   what + " exits 0 with correct=true")
            expect(inputs is not None, what + " prints its inputs hash")
            check_metrics(result, declared, what)
            if trace == 0 and w == "sample-suite":
                sims[7] = (result["metrics"]["sim_overhead_pct"]["value"],
                           result["metrics"]["overlap_pct"]["value"])

    # Same seed, same inputs; another seed, same simulated results.
    _, _, h1 = run("push-shm", 5, 0)
    _, _, h2 = run("push-shm", 5, 0)
    expect(h1 == h2, "push-shm: one seed gives identical inputs")
    _, _, h3 = run("push-shm", 6, 0)
    expect(h3 != h1, "push-shm: another seed gives other inputs")
    _, result, _ = run("sample-suite", 8, 0)
    expect((result["metrics"]["sim_overhead_pct"]["value"],
            result["metrics"]["overlap_pct"]["value"]) == sims[7],
           "sample-suite: sim_overhead_pct and overlap_pct bit-identical "
           "across seeds")

    # The gates must fire on a wrong expectation.
    for w, fault in (("push-shm", "fold"), ("push-durable", "fold"),
                     ("sample-suite", "checksum")):
        code, result, _ = run(w, 9, 0, ["--fault", fault])
        expect(code != 0 and result is not None and not result["correct"]
               and result["failed"] > 0,
               "%s --fault %s fails the run" % (w, fault))
    print("self-test passed")


if __name__ == "__main__":
    main()
