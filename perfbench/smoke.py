#!/usr/bin/env python3
"""Fast smoke test of the host-cost benchmark (well under a minute).

    python3 perfbench/smoke.py

Runs every workload at --small sizes through perfbench/run.py, in both
passes, and checks that:
  - every metric BENCHMARK.json names is printed, with its unit, and
    perfbench/spec.json describes exactly those metrics;
  - the timing shim is passive: a traced and an untraced bench.exe
    repetition of one seed give the same simulated digests, and an
    empty span allocates nothing;
  - the failure gate fires: a planted TAPIR-CC cell, which the strict
    streaming check flags, makes the run report correct=false;
  - run.py refuses, without printing a result, in a directory that
    holds only BENCHMARK.json and perfbench/.
Exits 1 on the first failed check.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def fail(msg):
    print(f"smoke: FAIL: {msg}")
    sys.exit(1)


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--small", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if p.returncode != 0:
        fail(f"{' '.join(cmd[1:])} exited {p.returncode}: {p.stderr.strip()[-1000:]}")
    lines = p.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    for key in ("end_to_end", "per_layer"):
        names = [m["name"] for m in bench[key]]
        if sorted(names) != sorted(spec[key]):
            fail(f"spec.json {key} does not match BENCHMARK.json")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(spec["workloads"]):
        fail("spec.json workloads do not match BENCHMARK.json")

    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            log, res = run(w, trace)
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{w} --trace {trace}: result keys {sorted(res)}")
            if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
                fail(f"{w} --trace {trace}: {res['correct']=} {res['attempted']=} {res['failed']=}")
            for m in bench[key]:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    fail(f"{w} --trace {trace}: metric {m['name']} missing or mis-unit: {got}")
                if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
                    fail(f"{w} --trace {trace}: metric {m['name']} = {got['value']}")
            if trace == 0:
                for name in spec["printed_only"]:
                    if not any(line.strip().startswith(name) for line in log):
                        fail(f"{w}: {name} not printed")
        print(f"smoke: {w}: every metric printed, correct")

    # shim passivity, straight from bench.exe
    for w in spec["workloads"]:
        outs = []
        for extra in ([], ["--trace"]):
            p = subprocess.run([EXE, "--workload", w, "--seed", "3", "--small", *extra],
                               cwd=ROOT, capture_output=True, text=True, timeout=120)
            if p.returncode != 0:
                fail(f"bench.exe {w} {extra}: exit {p.returncode}")
            out = json.loads(p.stdout)
            if extra and out["span_words"] != 0:
                fail(f"{w}: an empty shim span allocates {out['span_words']} words")
            outs.append([c["digest"] for c in out["cells"]])
        if outs[0] != outs[1]:
            fail(f"{w}: traced digest differs from untraced:\n{outs[0]}\n{outs[1]}")
    print("smoke: the timing shim is passive on every workload")

    # the failure gate
    log, res = run("hotspot-roster", 0, "--plant-tapir")
    if res["correct"] is not False or res["failed"] < 1:
        fail(f"planted TAPIR-CC cell not reported: {res['correct']=} {res['failed']=}")
    if not any(line.startswith("FAILED: cell TAPIR-CC") for line in log):
        fail("planted TAPIR-CC cell not named in the output")
    print("smoke: a planted TAPIR-CC cell fails the run")

    # refusal outside a checkout
    bare = os.path.join(ROOT, ".perfbench-smoke")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "f1-paper",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=180)
        if p.returncode == 0 or '"correct"' in p.stdout:
            fail("run.py printed a result outside a checkout")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: run.py refuses outside a checkout")
    print("smoke: ok")


if __name__ == "__main__":
    main()
