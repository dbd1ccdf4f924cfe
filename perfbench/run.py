#!/usr/bin/env python3
"""Host-cost benchmark for the NCC simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload f1-paper --seed 1 --seconds 25 --trace 0

It builds perfbench/bench.exe with dune, then runs the workload's cells
through Harness.Runner.run in fresh processes, one repetition per
process, until --seconds of host time are used (at least MIN_REPS
repetitions). Every repetition uses the same seed, so every one must
produce the same simulated digest; every cell's streaming verdict must
be ok. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. A shared host runs the same
work up to ~1.7x slower, in stretches from a second to minutes, so
host times are taken at the host's undisturbed speed. Within a run,
each cell's measured run is cut into segments of 256 commits, which
cost the same simulated work in every repetition of one seed; a segment
counts with its fastest time over the repetitions, and set-up with its
fastest repetition. Stretches as long as a run are cancelled by the
yardstick (perfbench/yardstick.ml, Stdlib only, one pass in its own
process before every repetition and after the last, timed in segments
of equal work and taken at each segment's fastest in the same way):
host times are scaled by its time over its nominal time. The other
metrics are medians over repetitions.
--trace 1 runs the per-layer pass instead: untraced repetitions with
the checker on and off (the checker ablation), then one repetition
under the timing shim, whose simulated digest must equal the untraced
one and whose span self times plus the remainder must sum to its host
time. Metric names and units come from BENCHMARK.json; perfbench/spec.json
says which layer each per-layer metric belongs to and which end-to-end
metric it should move.

--small and --plant-tapir exist for perfbench/smoke.py only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
YARDSTICK = os.path.join(ROOT, "_build", "default", "perfbench", "yardstick.exe")
# The yardstick's pass time on the nominal host (a 2-vCPU Intel Xeon
# microVM at its fastest): host times are scaled to a host of that speed.
YARD_NOMINAL_S = 0.19
WORKLOADS = ("f1-paper", "hotspot-roster")
ROSTER = ("NCC", "dOCC", "d2PL-NW", "d2PL-WW", "Janus-CC")
MIN_REPS = 3
DEADLINE_S = 170.0  # every run must end within 180 s


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def build():
    for need in ("dune-project", os.path.join("lib", "harness", "runner.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"not a checkout of the simulator: {need} is missing")
    p = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled", "--display", "quiet",
         "./perfbench/bench.exe", "./perfbench/yardstick.exe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=880,
    )
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        raise BenchError(f"dune build failed (exit {p.returncode})")


class Runner:
    """Spawns bench.exe repetitions against one wall-clock budget."""

    def __init__(self, args):
        self.args = args
        self.t0 = time.monotonic()
        self.yard = []  # segment times (CPU seconds) of every yardstick pass

    def elapsed(self):
        return time.monotonic() - self.t0

    def rep(self, traced=False, check=True):
        a = self.args
        cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed)]
        if traced:
            cmd.append("--trace")
        if not check:
            cmd.append("--no-check")
        if a.small:
            cmd.append("--small")
        if a.plant_tapir:
            cmd.append("--plant-tapir")
        budget = DEADLINE_S - self.elapsed()
        if budget <= 1.0:
            raise BenchError("out of time before a repetition could start")
        t = time.monotonic()
        try:
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            raise BenchError("a repetition overran the run's deadline")
        if p.returncode != 0:
            raise BenchError(f"bench.exe exited {p.returncode}: {p.stderr.strip()[-2000:]}")
        r = json.loads(p.stdout.strip().splitlines()[-1])
        r["wall_s"] = time.monotonic() - t
        return r

    def yardstick(self):
        try:
            p = subprocess.run([YARDSTICK], cwd=ROOT, capture_output=True,
                               text=True, timeout=max(1.0, DEADLINE_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            raise BenchError("the yardstick overran the run's deadline")
        if p.returncode != 0:
            raise BenchError(f"yardstick.exe exited {p.returncode}: {p.stderr.strip()[-2000:]}")
        self.yard.append([float(x) for x in p.stdout.split()])

    def yard_s(self):
        """The yardstick's pass at the host's undisturbed speed: each
        segment at its fastest over the run's passes."""
        return sum(min(seg) for seg in zip(*self.yard))

    def speed(self):
        """The host's speed over the run against the nominal host."""
        return YARD_NOMINAL_S / self.yard_s()

    def reps_for(self, seconds, make, least=MIN_REPS):
        """Call [make] (one unit of work, a list of repetitions) until
        the next unit would overrun [seconds], at least [least] times."""
        units = []
        while True:
            units.append(make())
            per_unit = self.elapsed() / len(units)
            if len(units) >= least and self.elapsed() + per_unit > seconds:
                return units


# --- per-repetition figures ------------------------------------------------


def arrivals(c):
    return c["committed"] + c["gave_up"] + c["dropped"]


def fig(r):
    cells = r["cells"]
    host = sum(c["host_s"] for c in cells)
    commits = sum(c["commits"] for c in cells)
    ncc = next(c for c in cells if c["label"] == "NCC")
    return {
        "setup_s": sum(c["setup_s"] for c in cells),
        "host_s": host,
        "commits": commits,
        "commits_per_host_s": commits / host if host > 0 else 0.0,
        "peak_heap_mb": r["top_heap_mb"],
        "sim_p50_ms": ncc["p50_exact_ms"],
        "sim_p99_ms": ncc["p99_ms"],
        "samples": ncc["committed"],
        "arrivals": sum(arrivals(c) for c in cells),
        "shed_or_gave_up": sum(c["gave_up"] + c["dropped"] for c in cells),
        "failed": sum(arrivals(c) for c in cells if not c["ok"]),
    }


def fastest_host_s(reps):
    """Host seconds of one repetition's measured work at the host's
    undisturbed speed: each cell's run is cut into segments of a fixed
    number of commits, which cost the same simulated work in every
    repetition of one seed; each segment counts with its fastest time
    over the repetitions. The host runs the same segment up to ~1.7x
    slower in stretches of a second or more when it is shared; the
    fastest of many repetitions does not see those stretches."""
    total = 0.0
    for i in range(len(reps[0]["cells"])):
        runs = [r["cells"][i]["segments"] for r in reps]
        total += sum(min(seg) for seg in zip(*runs))
    return total


def fastest_setup_s(reps):
    """Set-up seconds summed over cells, each cell's set-up at its
    fastest pass in any repetition (see fastest_host_s)."""
    return sum(min(r["cells"][i]["setup_s"] for r in reps)
               for i in range(len(reps[0]["cells"])))


def digests(r, with_verdict=True):
    out = []
    for c in r["cells"]:
        d = c["digest"]
        if not with_verdict:
            d = d.split(" verdict=")[0]
        out.append((c["label"], d))
    return out


class Gate:
    def __init__(self):
        self.problems = []

    def check(self, ok, msg):
        if not ok:
            self.problems.append(msg)

    def verdicts(self, reps):
        for r in reps:
            for c in r["cells"]:
                self.check(c["ok"], f"cell {c['label']}: {c['digest']}")
                self.latency(c)

    def latency(self, c):
        """The shim's exact latency samples must be the runner's: one per
        windowed commit, their median inside the runner's p50 bucket
        (whose upper edge it reports; buckets are 4% wide)."""
        if c["committed"] == 0:
            return
        self.check(c["lat_samples"] == c["committed"],
                   f"cell {c['label']}: {c['lat_samples']} latency samples for"
                   f" {c['committed']} commits")
        p50, exact = c["p50_ms"], c["p50_exact_ms"]
        self.check(p50 / 1.0401 <= exact <= p50 * (1 + 1e-9),
                   f"cell {c['label']}: exact p50 {exact} ms outside the runner's bucket {p50} ms")

    def same(self, reps, what, with_verdict=True):
        first = digests(reps[0], with_verdict)
        for r in reps[1:]:
            self.check(digests(r, with_verdict) == first, f"{what}: simulated digests differ")


def med(xs):
    return statistics.median(xs)


def metric_table(values, units):
    """The result's metrics: exactly the ones BENCHMARK.json lists."""
    out = {}
    for n, unit in units.items():
        if n not in values:
            raise BenchError(f"BENCHMARK.json names {n}, which this run did not measure")
        out[n] = {"value": values[n], "unit": unit}
    return out


def print_cells(r):
    for c in r["cells"]:
        log(f"  cell {c['label']:<9} setup {c['setup_s']:.6f} s (cold {c['setup_cold_s']:.6f} s)"
            f"  host {c['host_s']:.4f} s"
            f"  commits {c['commits']}  {c['digest']}")


# --- end-to-end pass (--trace 0) --------------------------------------------


def end_to_end(run, gate):
    a = run.args
    def measured():
        run.yardstick()  # beside every repetition, and once after the last
        return [run.rep()]

    reps = [u[0] for u in run.reps_for(a.seconds, measured)]
    gate.verdicts(reps)
    gate.same(reps, "two repetitions of one seed")
    figs = [fig(r) for r in reps]
    for f in figs:
        gate.check(f["commits"] > 0 and f["host_s"] > 0, "a repetition committed nothing")
    for r in reps[1:]:
        gate.check([len(c["segments"]) for c in r["cells"]]
                   == [len(c["segments"]) for c in reps[0]["cells"]],
                   "two repetitions of one seed cut their runs into different segments")
    log(f"{a.workload} seed {a.seed}: {len(reps)} repetitions in {run.elapsed():.1f} s")
    print_cells(reps[0])
    m = {k: med([f[k] for f in figs]) for k in ("peak_heap_mb", "sim_p50_ms", "sim_p99_ms")}
    f0 = figs[0]
    run.yardstick()
    speed = run.speed()
    host, setup = fastest_host_s(reps), fastest_setup_s(reps)
    m["commits_per_host_s"] = f0["commits"] / (host * speed)
    m["setup_s"] = setup * speed
    txn_failed = (f0["shed_or_gave_up"] + f0["failed"]) / max(1, f0["arrivals"])
    log(f"  host speed         {speed:.4f} of nominal  (yardstick {run.yard_s():.6f} s, the"
        f" fastest time of each segment over {len(run.yard)} passes; nominal {YARD_NOMINAL_S} s)")
    log(f"  commits_per_host_s {m['commits_per_host_s']:.2f} 1/s  ({f0['commits']} commits in"
        f" {host:.4f} s, the fastest time of each segment, at nominal speed; whole repetitions"
        f" as measured " + " ".join(f"{f['commits_per_host_s']:.0f}" for f in figs) + ")")
    log(f"  setup_s            {m['setup_s']:.6f} s  ({setup:.6f} s, the fastest repetition,"
        f" at nominal speed; each repetition's fastest pass as measured "
        + " ".join(f"{f['setup_s']:.6f}" for f in figs) + ")")
    log(f"  peak_heap_mb       {m['peak_heap_mb']:.3f} MB")
    log(f"  sim_p50_ms         {m['sim_p50_ms']:.6f} ms  (NCC, exact, {f0['samples']} samples)")
    log(f"  sim_p99_ms         {m['sim_p99_ms']:.4f} ms  (NCC, runner's bucket edge,"
        f" {f0['samples']} samples)")
    log(f"  txn_failed_frac    {txn_failed:.6f}  ({f0['shed_or_gave_up']} of {f0['arrivals']}"
        f" arrivals gave up or were shed; {f0['failed']} in failed cells)")
    attempted = sum(f["arrivals"] for f in figs)
    failed = sum(f["failed"] for f in figs)
    return m, attempted, failed


# --- per-layer pass (--trace 1) ---------------------------------------------


def per_layer(run, gate):
    a = run.args
    # the traced repetition costs about 1.4 untraced ones; keep room for it
    pairs = run.reps_for(a.seconds * 0.6,
                         lambda: [run.rep(check=True), run.rep(check=False)], least=2)
    on = [p[0] for p in pairs]
    off = [p[1] for p in pairs]
    tr = run.rep(traced=True)
    gate.verdicts(on + [tr])
    gate.same(on, "two repetitions of one seed")
    gate.same(off, "two checker-off repetitions of one seed")
    gate.same([on[0], tr], "traced against untraced (shim passivity)")
    gate.same([on[0], off[0]], "checker off against on (checker passivity)", with_verdict=False)

    fo = [fig(r) for r in on]
    host_on = med([f["host_s"] for f in fo])
    host_off = med([fig(r)["host_s"] for r in off])
    ft = fig(tr)
    host_tr = ft["host_s"]
    cells_on, cells_tr = on[0]["cells"], tr["cells"]
    commits = ft["commits"]

    spans = tr["spans"]

    def sel(field, phase, layers):
        return sum(s[field] for s in spans if s["phase"] == phase and s["layer"] in layers)

    measured_self = tr["measured_self_s"]
    remainder = host_tr - measured_self
    gate.check(abs(measured_self - tr["measured_top_s"]) <= 1e-6 * max(1.0, host_tr),
               "span self times do not sum to the top-level span totals")
    gate.check(remainder >= -1e-6, "span self times exceed the traced host time")

    # the checker ablation: on and off repetitions run back to back, so
    # each pair's difference sees the same host speed; the median of
    # the differences is the checker's cost
    diffs = [fig(p[0])["host_s"] - fig(p[1])["host_s"] for p in pairs]
    checker_s = med(diffs)
    diff_range = max(diffs) - min(diffs)
    checker_commits = sum(c["checker_commits"] for c in cells_on)
    per_proto = {}
    for name in ROSTER:
        times = [sum(c["host_s"] for c in r["cells"] if c["label"] == name) for r in on]
        per_proto[name] = med(times)
    v = {
        "sim.events": sum(c["events"] for c in cells_tr),
        "sim.events_per_host_s": sum(c["events"] for c in cells_tr) / host_on,
        "sim.pending_max": tr["pending_max"],
        "sim.timer.self_s": sel("self_s", "run", {"timer"}),
        "net.messages_per_commit": sum(c["messages"] for c in cells_tr) / commits,
        "net.send.calls": sel("count", "run", {"send"}),
        "net.send.self_s": sel("self_s", "run", {"send"}),
        "proto.server.self_s": sel("self_s", "run", {"server", "replica"}),
        "proto.client.self_s": sel("self_s", "run", {"client"}),
        "proto.timer.calls": sel("count", "run", {"timer"}),
        "proto.timer.self_s": sel("self_s", "run", {"timer_fire"}),
        "proto.minor_words_per_commit":
            sel("minor_words", "run", {"server", "replica", "client", "timer_fire"}) / commits,
        "proto.attempts_per_commit": sum(c["attempts"] for c in cells_tr) / commits,
        "store.versions_per_commit": sum(c["versions"] for c in cells_tr) / commits,
        "store.chain_len_max": max(c["chain_max"] for c in cells_tr),
        "checker.self_s": checker_s,
        "checker.share": checker_s / host_on,
        "checker.us_per_commit": checker_s / max(1.0, checker_commits) * 1e6,
        "checker.live_high_water": max(c["live_hw"] for c in cells_on),
        "checker.epochs": sum(c["epochs"] for c in cells_on),
        "runner.report.self_s": sel("self_s", "run", {"report"}),
        "runner.retries_per_commit":
            (sum(c["attempts"] for c in cells_tr) - commits) / commits,
        "runner.shed": sum(c["dropped"] for c in cells_tr),
        "runner.txn_failed_frac": (ft["shed_or_gave_up"] + ft["failed"]) / max(1, ft["arrivals"]),
        "runner.remainder_s": remainder,
        "workload.create_s": med([sum(c["create_s"] for c in r["cells"]) for r in on]),
        "workload.gen.self_s": sel("self_s", "run", {"gen"}),
        "setup.servers_s": sel("total_s", "setup", {"make_server"}),
        "setup.clients_s": sel("total_s", "setup", {"make_client"}),
        "gc.minor_words_per_commit":
            sum(c["gc_minor_words"] for c in cells_on) / fo[0]["commits"],
        "gc.major_collections": sum(c["gc_major"] for c in cells_on),
        "trace.overhead_frac": host_tr / host_on - 1.0,
        "trace.span_ns": tr["span_s"] * 1e9,
    }
    for name in ROSTER:
        v[f"proto.{name}.host_s"] = per_proto[name]

    log(f"{a.workload} seed {a.seed}: per-layer pass, {len(pairs)} checker on/off pairs"
        f" + 1 traced repetition in {run.elapsed():.1f} s")
    print_cells(tr)
    log(f"  host time: untraced {host_on:.4f} s (checker off {host_off:.4f} s),"
        f" traced {host_tr:.4f} s (overhead {v['trace.overhead_frac']:+.3f})")
    log(f"  traced split ({commits} commits; self time, share of traced host time,"
        f" minor words per commit):")
    rows = {}
    for s in spans:
        if s["phase"] != "run":
            continue
        r = rows.setdefault(s["layer"], [0, 0.0, 0.0])
        r[0] += s["count"]
        r[1] += s["self_s"]
        r[2] += s["minor_words"]
    for layer, (n, self_s, words) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
        log(f"    {layer:<11} {self_s:9.4f} s {self_s / host_tr:7.1%}"
            f" {words / commits:10.1f} w  ({n} spans)")
    log(f"    {'remainder':<11} {remainder:9.4f} s {remainder / host_tr:7.1%}"
        f"   (engine drain, Net delivery, arrivals, store GC, checker epochs)")
    log(f"    {'sum':<11} {measured_self + remainder:9.4f} s = traced host time {host_tr:.4f} s")
    log(f"  checker ablation: {checker_s:.4f} s of {host_on:.4f} s"
        f" ({v['checker.share']:.1%}), {v['checker.us_per_commit']:.2f} us/commit"
        f" (median of pair differences " + " ".join(f"{d:.4f}" for d in diffs) + ")")
    if checker_s <= 0 or checker_s < diff_range:
        log(f"  NOTE: the checker's cost is below host noise here: the pair differences"
            f" span {diff_range:.4f} s, more than their median {checker_s:.4f} s")
    return v, ft["arrivals"], ft["failed"]


# --- main -------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--plant-tapir", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build()
        run = Runner(args)
        gate = Gate()
        key = "per_layer" if args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in spec[key]}
        if args.trace:
            values, attempted, failed = per_layer(run, gate)
        else:
            values, attempted, failed = end_to_end(run, gate)
        metrics = metric_table(values, units)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1
    for p in gate.problems:
        log(f"FAILED: {p}")
    print(json.dumps({"correct": not gate.problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
