#!/usr/bin/env python3
"""Compare two sets of bench_suite results (standard library only).

    python3 bench/suite/compare.py PARENT.jsonl CHANGE.jsonl
    python3 bench/suite/compare.py PARENT.jsonl CHANGE.jsonl --claim ops_per_s@monitor_mix
    python3 bench/suite/compare.py A.jsonl B.jsonl --bounds
    python3 bench/suite/compare.py A.jsonl B.jsonl --write-baseline bench/suite/baseline.json

Each input holds one JSON result per line, as written by run.py --out (one
line per workload run).  For every end-to-end metric and workload it prints
each side's median and quartiles and one verdict:

  improved    the change's median is better than the parent's by more than
              the metric's bound
  worse       ... worse by more than the bound
  unchanged   within the bound
  unresolved  either side's spread (IQR / median) is wider than the bound,
              unless every change run beats every parent run (improved);
              setup_s is judged on its median alone

Bounds come from BENCHMARK.json and, for the metrics only some workloads
report, from metrics.json.  A change run that failed a correctness gate
counts as worse.  --claim METRIC@WORKLOAD applies the pair rule: runs are
paired in file order, and the claim holds when the change wins at least 9
of every 10 pairs (ties count for neither) and the medians differ by more
than the parent's IQR.  Exit status is 1 on any worse verdict or failed
claim.
"""
import argparse
import json
import os
import statistics
import sys

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def values(runs, workload, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["trace"] == 0
            and metric in r["metrics"]]


def declarations(benchmark_path):
    with open(os.path.join(SUITE_DIR, "metrics.json")) as f:
        decl = json.load(f)
    with open(benchmark_path) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in decl["metrics"]
              if m["kind"] == "end_to_end"}
    bounds.update({m["name"]: m["bound"] for m in bench["end_to_end"]})
    better = {m["name"]: m["better"] for m in decl["metrics"]}
    e2e = [m for m in decl["metrics"] if m["kind"] == "end_to_end"]
    return e2e, bounds, better


def is_better(a, b, direction):
    return a > b if direction == "higher" else a < b


def verdict(parent, change, bound, direction, judge_spread=True):
    _, pm, _ = quartiles(parent)
    _, cm, _ = quartiles(change)
    if all(is_better(c, p, direction) for c in change for p in parent):
        if abs(cm - pm) > bound * abs(pm):
            return "improved"
    if judge_spread and (spread(parent) > bound or spread(change) > bound):
        return "unresolved"
    delta = (cm - pm) / pm if pm else 0.0
    if direction == "higher":
        delta = -delta
    if delta > bound:
        return "worse"
    if delta < -bound:
        return "improved"
    return "unchanged"


def claim(parent_runs, change_runs, metric, workload, direction):
    parent = values(parent_runs, workload, metric)
    change = values(change_runs, workload, metric)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if is_better(c, p, direction))
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    met = (len(pairs) > 0 and wins * 10 >= 9 * len(pairs)
           and abs(cm - pm) > (p3 - p1))
    print("claim %s@%s: change wins %d of %d pairs; median %.6g -> %.6g; "
          "parent IQR %.6g: %s" % (metric, workload, wins, len(pairs), pm, cm,
                                   p3 - p1, "MET" if met else "NOT MET"))
    return met


def suggest_bounds(a_runs, b_runs, e2e):
    """max(3 x the larger spread of the two sets, 2%), capped at 25% (the
    largest bound BENCHMARK.json admits)."""
    print("%-26s %-18s %8s %8s %8s" % ("metric", "workload", "spread_a",
                                       "spread_b", "bound"))
    for m in e2e:
        worst = 0.0
        for w in m["workloads"]:
            a, b = values(a_runs, w, m["name"]), values(b_runs, w, m["name"])
            if len(a) < 2 or len(b) < 2:
                continue
            bound = min(max(3 * max(spread(a), spread(b)), 0.02), 0.25)
            worst = max(worst, bound)
            print("%-26s %-18s %8.4f %8.4f %8.3f" % (m["name"], w, spread(a),
                                                     spread(b), bound))
        print("%-26s %-18s %8s %8s %8.3f" % (m["name"], "(all)", "", "", worst))


def write_baseline(path, runs, e2e):
    bad = [r for r in runs if r["build"]["sanitizer"] or not r["build"]["ndebug"]]
    if bad:
        sys.exit("refusing to write a baseline from a sanitizer or non-NDEBUG "
                 "build (%d runs)" % len(bad))
    out = {"meta": runs[0].get("meta", {}), "build": runs[0]["build"],
           "runs": len(runs), "metrics": {}}
    out["meta"].pop("seed", None)
    for m in e2e:
        for w in m["workloads"]:
            v = values(runs, w, m["name"])
            if not v:
                continue
            q1, med, q3 = quartiles(v)
            out["metrics"].setdefault(m["name"], {})[w] = {
                "median": med, "q1": q1, "q3": q3, "n": len(v),
                "unit": m["unit"]}
    with open(path, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(SUITE_DIR, "..", "..",
                                             "BENCHMARK.json"))
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC@WORKLOAD")
    parser.add_argument("--bounds", action="store_true",
                        help="suggest bounds from the spread of both sets")
    parser.add_argument("--write-baseline", metavar="PATH",
                        help="write medians and quartiles of both sets")
    args = parser.parse_args()

    e2e, bounds, better = declarations(args.benchmark)
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    if args.bounds:
        suggest_bounds(parent_runs, change_runs, e2e)
        return
    if args.write_baseline:
        write_baseline(args.write_baseline, parent_runs + change_runs, e2e)
        return

    worse = False
    print("%-24s %-18s %-34s %-34s %s" % ("metric", "workload",
                                          "parent q1/median/q3",
                                          "change q1/median/q3", "verdict"))
    for m in e2e:
        for w in m["workloads"]:
            parent = values(parent_runs, w, m["name"])
            change = values(change_runs, w, m["name"])
            if not parent or not change:
                continue
            # Set-up time is judged on its median alone, as the benchmark's
            # acceptance rule does: sub-millisecond set-ups spread widely.
            v = verdict(parent, change, bounds[m["name"]], m["better"],
                        judge_spread=m["name"] != "setup_s")
            worse |= v == "worse"
            print("%-24s %-18s %-34s %-34s %s" % (
                m["name"], w, "%.4g/%.4g/%.4g" % quartiles(parent),
                "%.4g/%.4g/%.4g" % quartiles(change), v))
    for r in change_runs:
        if not r.get("correct", True) or r["failed"] > 0:
            print("change run %s seed %s failed its gates or ops"
                  % (r["workload"], r["seed"]))
            worse = True
    ok = True
    for c in args.claim:
        metric, _, workload = c.partition("@")
        ok &= claim(parent_runs, change_runs, metric, workload,
                    better.get(metric, "lower"))
    sys.exit(1 if worse or not ok else 0)


if __name__ == "__main__":
    main()
