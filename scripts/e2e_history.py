#!/usr/bin/env python3
"""Appends e2ebench results to the committed run history.

Usage (from the repository root):

    python3 scripts/e2e_history.py [--label TEXT] RESULT.json...
    python3 scripts/e2e_history.py --check
    python3 scripts/e2e_history.py --self-test

RESULT.json is a result file e2ebench/run.py wrote under
.bench_build/e2ebench/results/ (run.py prints its path last). Each one
becomes one JSON line of bench/e2e_history.jsonl holding the workload,
seed, trace flag, pass counts, the failure fraction, the provenance, and
the end-to-end, per-layer and obs counter values, plus the optional
--label (say "parent" or "change" for the two sides of a comparison).

A result that failed an output check ("correct": false) or carries no
provenance is refused, and then nothing is appended: a history line must
be trustworthy and comparable with the lines around it. --check
validates every line of the history file the same way.
"""

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HISTORY = os.path.join(ROOT, "bench", "e2e_history.jsonl")
PROVENANCE_KEYS = ("effective_cpus", "worker_threads", "compiler",
                   "build_type", "git_sha", "source_digest", "machine")
SECTIONS = ("end_to_end", "per_layer")


def problems(res):
    """Reasons `res` may not enter the history; empty when it may."""
    out = []
    if res.get("correct") is not True:
        out.append("result is not correct (an output check failed)")
    prov = res.get("provenance")
    if not isinstance(prov, dict):
        out.append("result has no provenance")
    else:
        missing = [k for k in PROVENANCE_KEYS if k not in prov]
        if missing:
            out.append("provenance lacks " + ", ".join(missing))
    for key in ("workload", "seed", "trace") + SECTIONS:
        if key not in res:
            out.append(f"result has no '{key}'")
    return out


def values(metrics):
    """{name: value} of a run.py metric section ({name: {value, ...}})."""
    return {name: m["value"] for name, m in sorted(metrics.items())}


def record(res, label):
    """The history line for one result."""
    rec = {
        "workload": res["workload"],
        "seed": res["seed"],
        "trace": res["trace"],
        "passes": res.get("passes"),
        "traced_passes": res.get("traced_passes"),
        "attempted": res.get("attempted"),
        "failed": res.get("failed"),
        "provenance": res["provenance"],
        "end_to_end": values(res["end_to_end"]),
        "per_layer": values(res["per_layer"]),
        "counters": dict(sorted(res.get("counters", {}).items())),
        "correct": True,
    }
    if label:
        rec["label"] = label
    return rec


def check_line(rec):
    """Reasons a stored history line is malformed."""
    out = problems(rec)
    for key in SECTIONS:
        sec = rec.get(key)
        if isinstance(sec, dict) and not all(
                isinstance(v, (int, float)) for v in sec.values()):
            out.append(f"'{key}' holds a non-numeric value")
    return out


def append(paths, label, history):
    lines = []
    refused = False
    for path in paths:
        with open(path) as f:
            res = json.load(f)
        why = problems(res)
        if why:
            print(f"e2e_history: refusing {path}: " + "; ".join(why),
                  file=sys.stderr)
            refused = True
            continue
        lines.append(json.dumps(record(res, label), sort_keys=True))
    if refused:
        print("e2e_history: nothing appended", file=sys.stderr)
        return 1
    os.makedirs(os.path.dirname(os.path.abspath(history)), exist_ok=True)
    with open(history, "a") as f:
        for line in lines:
            f.write(line + "\n")
    print(f"e2e_history: appended {len(lines)} record(s) to "
          f"{os.path.relpath(history, ROOT)}")
    return 0


def check(history):
    bad = 0
    with open(history) as f:
        for n, line in enumerate(f, 1):
            try:
                why = check_line(json.loads(line))
            except json.JSONDecodeError as e:
                why = [f"not JSON: {e}"]
            if why:
                print(f"e2e_history: {history}:{n}: " + "; ".join(why),
                      file=sys.stderr)
                bad += 1
    print(f"e2e_history: {history}: {'FAILED' if bad else 'ok'}")
    return 1 if bad else 0


def self_test():
    """Builds synthetic results and asserts what is kept and refused."""
    good = {
        "workload": "signoff_sa", "seed": 1, "trace": 1, "passes": 2,
        "traced_passes": 1, "correct": True, "attempted": 10, "failed": 0,
        "end_to_end": {"flow_s": {"value": 1.5, "unit": "s", "n": 1}},
        "per_layer": {"atpg.sat_busy_s": {"value": 0.5, "unit": "s",
                                          "n": 1}},
        "counters": {"atpg.sat.solves": 3},
        "provenance": {k: "x" for k in PROVENANCE_KEYS},
    }
    wrong = dict(good, correct=False)
    bare = {k: v for k, v in good.items() if k != "provenance"}
    partial = dict(good, provenance={"git_sha": "x"})
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, doc):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                json.dump(doc, f)
            return path

        hist = os.path.join(tmp, "h.jsonl")
        cases = [
            ("correct result with provenance is kept", [good], 0, 1),
            ("correct: false is refused", [wrong], 1, 0),
            ("missing provenance is refused", [bare], 1, 0),
            ("partial provenance is refused", [partial], 1, 0),
            ("one refusal appends nothing", [good, wrong], 1, 0),
        ]
        for name, docs, want_rc, want_lines in cases:
            if os.path.exists(hist):
                os.remove(hist)
            paths = [write(f"r{i}.json", d) for i, d in enumerate(docs)]
            rc = append(paths, "test", hist)
            got = 0
            if os.path.exists(hist):
                with open(hist) as f:
                    got = sum(1 for _ in f)
            ok = rc == want_rc and got == want_lines
            if ok and got:
                ok = check(hist) == 0
            print(f"self-test [{'ok' if ok else 'FAILED'}]: {name}")
            failures += 0 if ok else 1
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("results", nargs="*", help="run.py result JSON files")
    ap.add_argument("--label", default="",
                    help="tag stored with each record, e.g. parent/change")
    ap.add_argument("--check", action="store_true",
                    help="validate the history file instead of appending")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.check:
        return check(HISTORY)
    if not args.results:
        ap.error("give at least one result file (or --check / --self-test)")
    return append(args.results, args.label, HISTORY)


if __name__ == "__main__":
    sys.exit(main())
