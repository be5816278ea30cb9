#!/usr/bin/env python3
"""The repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench/bench.exe with dune into the build directory named by
$CARGO_TARGET_DIR (default .bench_build), runs the workload, checks its
outputs against perfbench/reference.json and prints a readable summary
followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end-to-end metrics, with
--trace 1 its per-layer metrics (perfbench/layers.json says which
end-to-end metric and workload each one should move).

Inputs come from a roster of 16 seeds with a recorded reference output
each.  A run measures a fixed number of units of work for its --seconds
(one Table 1, one learner run or one fleet of sessions each), and unit i
takes roster seed 42 + (N - 42 + i) mod 16, so that a run's medians
cover several inputs instead of one draw.  To re-record the
references (for example after a deliberate change of simulated output):

    python3 perfbench/run.py --record
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
LAYERS = os.path.join(HERE, "layers.json")
ROSTER = 16
# What one operation is: the unit of op_p50_ms/op_p90_ms and of failures.
OPERATION = {
    "table1-smoke": "learner run",
    "learn-paper": "learner iteration",
    "serve-fleet": "request (latency: Tick requests only)",
}
SETUP_LAUNCHES = 3  # set-up time is the median over this many launches
RUN_LIMIT_S = 170  # the whole run, build excluded
BUILD_LIMIT_S = 800


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def check_layers(bench, layers):
    """Every per-layer metric names the end-to-end metrics and workloads it
    should move; refuse to run when the two files disagree."""
    workloads = {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    documented = {entry["metric"] for entry in layers}
    declared = {m["name"] for m in bench["per_layer"]}
    if documented != declared:
        fail("layers.json and BENCHMARK.json per_layer differ: %s"
             % sorted(documented ^ declared))
    for entry in layers:
        for m in entry["moves"]:
            if m["workload"] not in workloads or m["metric"] not in e2e:
                fail("layers.json: %s moves an unknown pairing %s"
                     % (entry["metric"], m))
        for m in entry.get("no_change", []):
            if m["workload"] not in workloads:
                fail("layers.json: %s: unknown workload %s"
                     % (entry["metric"], m["workload"]))


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ROOT, "--build-dir", build_dir,
             "--display", "quiet", "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if p.returncode != 0:
        fail("build failed:\n" + p.stdout[-4000:])
    return os.path.join(build_dir, "default", "perfbench", "bench.exe")


def launch(exe, args, deadline):
    """Run bench.exe; return (parsed lines, spawn time, exit status or None
    when it had to be killed at the deadline)."""
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen([exe] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        status = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        status = None
    lines = []
    for raw in out.splitlines():
        try:
            lines.append(json.loads(raw))
        except ValueError:
            pass
    return lines, spawn_ns, status


def quantile(values, q):
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def account(lines, status, ref, first_seed):
    """Split the event lines into units and count attempted and failed
    operations.  Every unit the process planned but did not finish (crash
    or timeout) counts each operation it did not complete as failed; a unit
    whose output differs from its seed's reference counts all of its
    operations as failed."""
    ready = [ev for ev in lines if ev.get("ev") == "ready"]
    plan = ready[0]["plan"] if ready else [first_seed]
    units, attempted, failed, mismatches = [], 0, 0, 0
    open_ok = None  # operations completed by the unit in progress
    for ev in lines:
        kind = ev.get("ev")
        if kind == "begin":
            open_ok = 0
        elif kind == "op" and open_ok is not None:
            open_ok += 1 if ev["ok"] else 0
        elif kind == "unit":
            open_ok = None
            units.append(ev)
            attempted += ev["ops"]
            if ev["fingerprint"] != ref[str(ev["seed"])]["fingerprint"]:
                mismatches += 1
                failed += ev["ops"]
            else:
                failed += ev["failed"]
    for i, seed in enumerate(plan[len(units):]):
        ok = open_ok if i == 0 and open_ok is not None else 0
        expected = max(ref[str(seed)]["ops"], ok)
        attempted += expected
        failed += expected - ok
    crashed = status != 0 or not any(ev.get("ev") == "done" for ev in lines)
    return units, attempted, failed, mismatches, crashed


def run(args, bench):
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %r (one of %s)" % (args.workload, workloads))
    if args.trace not in (0, 1) or args.seconds < 1:
        fail("--trace must be 0 or 1 and --seconds at least 1")
    ref = load_json(REFERENCE)[args.workload]
    seeds = [42 + (args.seed - 42 + i) % ROSTER for i in range(ROSTER)]
    exe = build()
    deadline = time.monotonic() + RUN_LIMIT_S
    common = [args.workload, "--seeds", ",".join(map(str, seeds)),
              "--seconds", str(args.seconds)]

    def setup_time(lines, spawn_ns):
        ready = [ev for ev in lines if ev.get("ev") == "ready"]
        return [(ready[0]["t_ns"] - spawn_ns) / 1e9] if ready else []

    setups = []
    for _ in range(0 if args.trace else SETUP_LAUNCHES - 1):
        lines, spawn_ns, _ = launch(exe, common + ["--setup-only"], deadline)
        setups += setup_time(lines, spawn_ns)

    flags = ["--trace"] if args.trace else []
    start = time.monotonic()
    lines, spawn_ns, status = launch(exe, common + flags, deadline)
    elapsed = time.monotonic() - start
    setups += setup_time(lines, spawn_ns)
    units, attempted, failed, mismatches, crashed = account(
        lines, status, ref, seeds[0])
    correct = mismatches == 0 and not crashed

    timed = [u for u in units if not u["traced"]]
    run_s = statistics.median([u["run_s"] for u in timed]) if timed else elapsed
    latencies = [x for u in timed for x in u["latencies_ms"]]
    done = [ev for ev in lines if ev.get("ev") == "done"]
    if done and done[0]["peak_rss_kb"] > 0:
        peak_mb = done[0]["peak_rss_kb"] / 1024.0
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    e2e = {
        "setup_s": statistics.median(setups) if setups else elapsed,
        "run_s": run_s,
        "op_p50_ms": quantile(latencies, 0.5),
        "op_p90_ms": quantile(latencies, 0.9),
        "peak_rss_mb": peak_mb,
    }
    layers = [ev for ev in lines if ev.get("ev") == "layers"]
    per_layer = layers[0]["metrics"] if layers else {}

    print("workload %s, seed %d, %d timed unit(s) on roster seeds %s; "
          "operation = %s" % (args.workload, args.seed, len(timed),
                              [u["seed"] for u in timed],
                              OPERATION.get(args.workload, "?")))
    units_of = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for name, value in e2e.items():
        print("  %-26s %14.4f %s" % (name, value, units_of.get(name, "")))
    print("  %-26s %14.4f (%d of %d operations)"
          % ("failed_frac", failed / attempted if attempted else 0.0,
             failed, attempted))
    print("  %-26s %s" % ("output check", "ok" if correct else
          "FAILED (%d unit(s) differ from the reference%s)"
          % (mismatches, ", run did not finish" if crashed else "")))
    for name, value in per_layer.items():
        print("  %-26s %14.4f" % (name, value or 0.0))

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    source = per_layer if args.trace else e2e
    if args.trace and not per_layer:
        correct = False
    metrics = {m["name"]: {"value": float(source.get(m["name"]) or 0.0),
                           "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def record(bench):
    """Record each roster seed's reference output from one unit of work
    (for learn-paper, without the timing wrappers, so that every later run
    also proves the wrappers leave the outcome bit-identical)."""
    exe = build()
    reference = {}
    for name in [w["name"] for w in bench["workloads"]]:
        table = {}
        for i in range(ROSTER):
            seed = 42 + i
            lines, _, status = launch(
                exe, [name, "--seeds", str(seed), "--seconds", "1",
                      "--record"], time.monotonic() + 600)
            units = [ev for ev in lines if ev.get("ev") == "unit"]
            if status != 0 or len(units) != 1 or units[0]["failed"]:
                fail("reference run of %s seed %d failed" % (name, seed))
            table[str(seed)] = {"fingerprint": units[0]["fingerprint"],
                                "ops": units[0]["ops"]}
            print("%s %d %s" % (name, seed, units[0]["fingerprint"]),
                  flush=True)
        reference[name] = table
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    check_layers(bench, load_json(LAYERS))
    if args.record:
        record(bench)
    elif args.workload:
        run(args, bench)
    else:
        fail("--workload is required")


if __name__ == "__main__":
    main()
