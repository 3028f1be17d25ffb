#!/usr/bin/env python3
"""End-to-end benchmark of the lbist library's three user flows.

Usage (from the repository root):

    python3 e2ebench/run.py --workload signoff_sa --seed 1 --seconds 15 --trace 0

Workloads: signoff_sa, atspeed_tf, die_floor (see e2ebench/README.md).
Seed 1 is the baseline seed; seed 1009 is held out for checking claims
made against the baseline.

The script builds e2ebench/ (which pulls in the library from the root
CMakeLists.txt) under .bench_build/e2ebench, runs one workload, prints a
report with every metric's unit and sample count, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end set of BENCHMARK.json, with --trace 1 the
per-layer set (and a Chrome trace-event file of the benchmark's spans is
written under .bench_build/e2ebench/traces/). It exits non-zero when the
build fails or any output check fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ("signoff_sa", "atspeed_tf", "die_floor")
MAX_THREADS = 4
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures and builds e2e_bench; incremental after the first run."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no lbist source tree at {ROOT} (need CMakeLists.txt and src/)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        steps.append(["cmake", "--build", BUILD, "--target", "e2e_bench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "e2e_bench")


def source_digest():
    """Content hash of everything the benchmark builds from."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json missing at the repository root")
    with open(path) as f:
        return json.load(f)


def print_metrics(title, metrics):
    print(f"{title}:")
    for name in sorted(metrics):
        m = metrics[name]
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']:<6s} n={m['n']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    spec = load_spec()
    exe = build()
    cpus = len(os.sched_getaffinity(0))
    threads = max(1, min(MAX_THREADS, cpus))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    out = os.path.join(BUILD, "results", stem + ".json")
    trace_out = os.path.join(BUILD, "traces", stem + ".trace.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--max-threads", str(threads), "--out", out]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if not os.path.isfile(out):
        fail(f"{args.workload} exited {proc.returncode} without results")
    with open(out) as f:
        res = json.load(f)

    provenance = {
        "effective_cpus": cpus,
        "worker_threads": res["threads"],
        "compiler": res["compiler"],
        "build_type": res["build_type"],
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "machine": platform.machine(),
    }
    res["provenance"] = provenance
    with open(out, "w") as f:
        json.dump(res, f, indent=2)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {res['passes']} untraced / {res['traced_passes']} traced")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print_metrics("end-to-end", res["end_to_end"])
    if res["per_layer"]:
        print_metrics("per-layer / die-floor outcomes", res["per_layer"])
    if res["layer_share_pct"]:
        print("layer share of traced wall time (self time):")
        for layer, pct in sorted(res["layer_share_pct"].items(),
                                 key=lambda kv: -kv[1]):
            print(f"  {layer:10s} {pct:7.2f}%")
        wall = res["traced_wall_s"]
        print("obs span histograms (busy s summed over threads; die_floor "
              "includes the traced set-up):")
        timers = sorted(res["obs_timers"].items(),
                        key=lambda kv: -kv[1]["total_s"])
        for name, t in timers[:10]:
            pct = 100.0 * t["total_s"] / wall if wall > 0 else 0.0
            print(f"  {name:24s} {t['total_s']:10.4f} s  {pct:7.2f}% of "
                  f"traced wall  calls={t['count']}")
        print(f"trace: {os.path.relpath(trace_out, ROOT)}")
    print("checks:")
    for c in res["checks"]:
        status = "ok" if c["ok"] else "FAILED: " + c["detail"]
        print(f"  {c['name']}: {status}")

    correct = bool(res["correct"]) and proc.returncode == 0
    key, source = (("per_layer", res["per_layer"]) if args.trace
                   else ("end_to_end", res["end_to_end"]))
    metrics = {}
    for m in spec[key]:
        got = source.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"  metric {m['name']} missing or in the wrong unit: FAILED")
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(f"results: {os.path.relpath(out, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
