#!/usr/bin/env python3
"""Steadiness runs and the benchmark's results record.

    python3 perfbench/steady.py [--label TEXT] [--append]

Calls perfbench/run.py (with BENCHMARK.json's run_seconds) once per
(set, workload, seed) with --trace 0: two sets of ten seeds each, set 1
on seeds 1-10 and set 2 on seeds 11-20, every workload BENCHMARK.json
names. Then it runs each workload once with --trace 1 (seed 1). For
every end-to-end metric it prints the median of each set and its
spread: the distance between the first and third quartile
(statistics.quantiles(n=4)) as a share of the median. A spread above a
third of the metric's bound, or a second-set median worse than the
first by more than the bound, is flagged; the script exits 1 if any
is. With --append the whole record (every value, the per-layer split
and the host it ran on) is appended as one line to
perfbench/trajectory.jsonl.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJ = os.path.join(HERE, "trajectory.jsonl")
SEEDS = 10
SETS = 2


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"steady: {' '.join(cmd[1:])} exited {p.returncode}: {p.stderr.strip()}")
    lines = p.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def spread(xs):
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)


def host():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model or platform.processor(), "cpus": os.cpu_count(),
            "os": platform.platform()}


def seeds_of(set_index):
    """Each set runs its own seeds: set 0 seeds 1..10, set 1 11..20."""
    return list(range(set_index * SEEDS + 1, (set_index + 1) * SEEDS + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="")
    ap.add_argument("--append", action="store_true")
    a = ap.parse_args()
    spec = bench_spec()
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = spec["end_to_end"]
    sets = []
    for s in range(SETS):
        cur = {}
        for w in workloads:
            vals = {m["name"]: [] for m in e2e}
            for seed in seeds_of(s):
                _, res = run_once(w, seed, seconds, 0)
                if not res["correct"]:
                    sys.exit(f"steady: {w} seed {seed} is not correct")
                for m in e2e:
                    vals[m["name"]].append(res["metrics"][m["name"]]["value"])
            cur[w] = vals
            print(f"set {s + 1} {w}: " + "  ".join(
                f"{n} {statistics.median(v):.6g} ({spread(v):.1%})" for n, v in vals.items()),
                flush=True)
        sets.append(cur)

    flags = []
    for w in workloads:
        for m in e2e:
            n, bound = m["name"], m["bound"]
            meds = [statistics.median(st[w][n]) for st in sets]
            for i, st in enumerate(sets):
                sp = spread(st[w][n])
                if sp > bound / 3:
                    flags.append(f"{w} {n}: set {i + 1} spread {sp:.1%} > bound/3 {bound / 3:.1%}")
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            if worse > bound:
                flags.append(f"{w} {n}: second median worse by {worse:.1%} > {bound:.0%}")

    layers = {}
    for w in workloads:
        log, res = run_once(w, 1, seconds, 1)
        if not res["correct"]:
            sys.exit(f"steady: {w} per-layer pass is not correct")
        layers[w] = {"metrics": {k: v["value"] for k, v in res["metrics"].items()},
                     "split": [line for line in log if line.startswith("    ") or line.lstrip()
                               .startswith(("host time", "checker ablation", "NOTE"))]}
        print(f"per-layer {w}:\n" + "\n".join(layers[w]["split"]), flush=True)

    for f in flags:
        print(f"FLAG: {f}")
    if a.append:
        entry = {
            "label": a.label,
            "date": time.strftime("%Y-%m-%d", time.gmtime()),
            "host": host(),
            "run_seconds": seconds,
            "seeds": [seeds_of(i) for i in range(SETS)],
            "sets": [{w: {n: {"median": statistics.median(v), "spread": spread(v), "values": v}
                          for n, v in st[w].items()} for w in workloads} for st in sets],
            "per_layer": layers,
            "flags": flags,
        }
        with open(TRAJ, "a") as f:
            f.write(json.dumps(entry) + "\n")
        print(f"appended to {os.path.relpath(TRAJ, ROOT)}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
