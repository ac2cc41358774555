#!/usr/bin/env python3
"""Build and run the robmon benchmark (bench_suite); see README.md.

    python3 bench/suite/run.py --workload monitor_mix --seed 1 --seconds 15 --trace 0
    python3 bench/suite/run.py --workload all --seed 1 --out r.jsonl
    python3 bench/suite/run.py --workload all --trace 1 --trace-file t.json
    python3 bench/suite/run.py --smoke

Run from the repository root.  The first run builds robmon, the shim and
the suite into .bench_build/suite (Release).  Each workload runs in its own
process.  Every metric is printed with its unit and sample count, checked
against the declarations in bench/suite/metrics.json, and the last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"},
holding the BENCHMARK.json end-to-end metrics (--trace 0) or its per-layer
metrics (--trace 1).  Exit status is 0 only when every workload run was
correct.
"""
import argparse
import fcntl
import json
import os
import platform
import subprocess
import sys
import time

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "suite")
WORKLOADS = ["monitor_mix", "many_idle", "deadlock_recovery", "shim_pthread"]
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 2


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def load_declarations():
    """metrics.json (full declarations) checked against BENCHMARK.json, which
    holds the metrics marked "benchmark": true."""
    with open(os.path.join(SUITE_DIR, "metrics.json")) as f:
        decl = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for m in decl["metrics"]:
        if m.get("benchmark") and sorted(m["workloads"]) != sorted(WORKLOADS):
            fail("metrics.json: %s is in BENCHMARK.json but not reported by "
                 "every workload" % m["name"])
    for kind in ("end_to_end", "per_layer"):
        mine = {m["name"]: (m["unit"], m["better"], m.get("bound"))
                for m in decl["metrics"]
                if m["kind"] == kind and m.get("benchmark")}
        theirs = {m["name"]: (m["unit"], m.get("better"), m.get("bound"))
                  for m in bench[kind]}
        if mine != theirs:
            fail("BENCHMARK.json %s disagrees with metrics.json: %s vs %s"
                 % (kind, sorted(theirs), sorted(mine)))
    if [w["name"] for w in bench["workloads"]] != WORKLOADS:
        fail("BENCHMARK.json workloads disagree with run.py")
    return decl, bench


def build():
    """Configure once, then an incremental build (a no-op when current)."""
    for needed in ("CMakeLists.txt", os.path.join("src", "robmon.hpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("robmon sources not found at %s (missing %s)" % (ROOT, needed))
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", SUITE_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", "4",
                      "--target", "bench_suite"])
        for step in steps:
            proc = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-8000:])
                fail("build step failed: " + " ".join(step))


def run_metadata(args, seconds):
    meta = {"nproc": os.cpu_count(), "cpu_model": platform.machine(),
            "seed": args.seed, "seconds": seconds, "git_rev": None}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    meta["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        meta["git_rev"] = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return meta


def run_workload(workload, args, seconds, trace_file):
    binary = os.path.join(BUILD_DIR, "bench_suite")
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    if workload == "shim_pthread":
        cmd += ["--host", os.path.join(BUILD_DIR, "bench_suite_pthread_host"),
                "--preload",
                os.path.join(BUILD_DIR, "robmon", "librobmon_preload.so")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: %s timed out after %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return None, 1
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, ValueError):
        print("run.py: %s printed no result" % workload, file=sys.stderr)
        return None, proc.returncode or 1


def check_names(result, decl, workload, trace):
    """Every printed metric declared for this workload; every declared one
    for this mode printed.  Returns a list of problems."""
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m for m in decl["metrics"]
                if workload in m["workloads"]}
    printed = set(result["metrics"])
    problems = ["undeclared metric " + n for n in sorted(printed - set(declared))]
    problems += ["missing metric " + n for n, m in sorted(declared.items())
                 if m["kind"] == kind and n not in printed]
    return problems


def report(workload, result, code, decl, bench, trace):
    kind = "per_layer" if trace else "end_to_end"
    print("== %s (%s)" % (workload, kind.replace("_", "-")))
    if result is None:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    problems = check_names(result, decl, workload, trace)
    for m in decl["metrics"]:
        if m["kind"] != kind or m["name"] not in result["metrics"]:
            continue
        v = result["metrics"][m["name"]]
        print("  %-44s %14.6g %-8s (n=%d)" % (m["name"], v["value"], v["unit"],
                                               v["n"]))
    gates = {}
    for g in result["gates"]:
        ok, detail = gates.get(g["name"], (True, ""))
        gates[g["name"]] = (ok and g["ok"], detail if not ok else g["detail"])
    for name, (ok, detail) in sorted(gates.items()):
        print("  gate %-40s %s%s" % (name, "ok" if ok else "FAILED",
                                      "" if ok else ": " + detail))
    for p in problems:
        print("  name check: " + p)
    correct = (code == 0 and not problems and result["failed"] == 0
               and all(ok for ok, _ in gates.values()))
    names = [m["name"] for m in bench[kind]]
    return {"correct": correct, "attempted": max(1, result["attempted"]),
            "failed": result["failed"],
            "metrics": {n: {"value": result["metrics"][n]["value"],
                            "unit": result["metrics"][n]["unit"]}
                        for n in names if n in result["metrics"]}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-file", default=None,
                        help="Chrome trace-event JSON path (with --trace 1); "
                             "'{workload}' expands per workload")
    parser.add_argument("--out", default=None,
                        help="append each workload's full result as a JSON "
                             "line to this file")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload for %d s with the same gates"
                             % SMOKE_SECONDS)
    args = parser.parse_args()

    decl, bench = load_declarations()
    build()
    seconds = args.seconds or bench["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.smoke:
        seconds, workloads = SMOKE_SECONDS, WORKLOADS
    trace_file = args.trace_file
    if args.trace and trace_file is None:
        trace_file = os.path.join(ROOT, ".bench_build", "traces",
                                  "{workload}-seed%d.json" % args.seed)
        os.makedirs(os.path.dirname(trace_file), exist_ok=True)

    meta = run_metadata(args, seconds)
    lines = []
    for workload in workloads:
        started = time.monotonic()
        path = trace_file.format(workload=workload) if args.trace else None
        result, code = run_workload(workload, args, seconds, path)
        line = report(workload, result, code, decl, bench, args.trace)
        print("  (%.1f s%s)" % (time.monotonic() - started,
                                ", trace " + path if path else ""))
        if args.out and result is not None:
            with open(args.out, "a") as f:
                f.write(json.dumps(dict(result, meta=meta,
                                        correct=line["correct"])) + "\n")
        lines.append(line)
    if len(lines) == 1:
        final = lines[0]
    else:
        final = {"correct": all(l["correct"] for l in lines),
                 "attempted": sum(l["attempted"] for l in lines),
                 "failed": sum(l["failed"] for l in lines),
                 "metrics": {}}
    print(json.dumps(final))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
