#!/usr/bin/env python3
"""Builds and runs the HeteroG benchmark (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload search_rl --seed 1 --seconds 20 --trace 0

prints a record line (ops, failures, configuration) and, as its last line,
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with every
end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer metric
(--trace 1). Exits nonzero when any op's output differs from the reference.

Steadiness self-check (each workload over --runs seeds, then repeated runs on
a held-out seed):
    python3 perfbench/run.py --steadiness --runs 10 [--workloads a,b]

Regenerate the reference table of one workload's input pool:
    python3 perfbench/run.py --record chaos_pod64

Run from the repository root. Builds into $CARGO_TARGET_DIR (default
.bench_build) and keeps scratch files under .bench_work and .bench_out.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
RUN_TIMEOUT_S = 170
HOLDOUT_SEED = 90001
# Simulated metrics: identical inputs must give bit-identical values.
SIMULATED = ("plan_iter_ms_geomean", "speedup_vs_dp", "goodput_steps_per_sim_s")
# Host-speed corrected metrics (speed.h) and the record's uncorrected values.
RAW = {"setup_s": "raw_setup_s", "op_wall_ms_p50": "raw_op_wall_ms_p50",
       "op_wall_ms_p90": "raw_op_wall_ms_p90", "throughput_per_s": "raw_throughput_per_s"}


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures and builds the benchmark binary; returns its path or None."""
    out = build_dir()
    for cmd in (["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", str(os.cpu_count() or 1)]):
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def run_binary(binary, workload, seed, seconds, trace, record=False):
    """Runs the benchmark binary once; returns (exit code, stdout lines)."""
    work = os.path.join(".bench_work", "%s-%d" % (workload, os.getpid()))
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work-dir", work, "--out-dir", ".bench_out",
           "--reference", os.path.join(REFERENCE_DIR, workload + ".txt"),
           "--record", "1" if record else "0"]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                                timeout=None if record else RUN_TIMEOUT_S)
        return result.returncode, result.stdout.splitlines()
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None, []
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_once(binary, spec, workload, seed, seconds, trace):
    """One benchmark run; returns (record, result) or None when the binary
    produced no result."""
    code, lines = run_binary(binary, workload, seed, seconds, trace)
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: the binary printed no result (exit %s)" % code)
        return None
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    known = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    problems = list(record["failures"])
    for name, metric in record["metrics"].items():
        if name not in known or metric["unit"] != known[name]:
            problems.append("binary metric %s [%s] is not in BENCHMARK.json" %
                            (name, metric["unit"]))
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None and trace:
            got = {"value": 0, "unit": m["unit"]}  # layer not driven by this workload
        if got is None or (not trace and not got["value"] > 0):
            problems.append("end-to-end metric %s missing or not positive" % m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    failed = record["failed"] + (len(problems) - len(record["failures"]))
    record["failures"] = problems
    record["config"]["python"] = platform.python_version()
    record["config"]["machine"] = platform.machine()
    result = {"correct": failed == 0 and code == 0, "attempted": max(1, record["attempted"]),
              "failed": failed, "metrics": metrics}
    return record, result


def quartile_summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def steadiness(binary, spec, workloads, runs, first_seed, seconds, holdout_runs):
    """Runs each workload over `runs` seeds, then `holdout_runs` times on a
    held-out seed; reports each end-to-end metric's median, quartiles and
    spread against its bound, and the spread of the uncorrected walls for
    comparison. Returns True when every spread is within its bound and
    simulated metrics repeat exactly."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    ok = True
    os.makedirs(".bench_out", exist_ok=True)
    records = open(os.path.join(".bench_out", "steadiness_records.jsonl"), "w")
    for workload in workloads:
        report[workload] = {}
        for label, seeds in (("seeds", list(range(first_seed, first_seed + runs))),
                             ("holdout", [HOLDOUT_SEED] * holdout_runs)):
            values = {name: [] for name in bounds}
            raw = {name: [] for name in RAW}
            for seed in seeds:
                started = time.time()
                outcome = run_once(binary, spec, workload, seed, seconds, False)
                if outcome is None or not outcome[1]["correct"]:
                    log("%s seed %d: FAILED %s" % (workload, seed,
                                                   outcome[0]["failures"] if outcome else ""))
                    ok = False
                    continue
                records.write(json.dumps(outcome[0], sort_keys=True) + "\n")
                for name, metric in outcome[1]["metrics"].items():
                    values[name].append(metric["value"])
                for name, key in RAW.items():
                    raw[name].append(outcome[0]["config"][key])
                log("%s seed %d: %.1f s" % (workload, seed, time.time() - started))
            rows = {}
            for name, vals in values.items():
                if len(vals) < 2:
                    continue
                row = quartile_summary(vals)
                row["bound"] = bounds[name]
                row["within_bound"] = row["spread"] <= bounds[name]
                row["within_third"] = row["spread"] <= bounds[name] / 3
                if label == "holdout" and name in SIMULATED:
                    row["bit_identical"] = len(set(vals)) == 1
                    ok = ok and row["bit_identical"]
                ok = ok and row["within_bound"]
                if name in RAW:
                    row["uncorrected"] = quartile_summary(raw[name])
                rows[name] = row
            report[workload][label] = rows
            print("%-16s %-8s %-24s %12s %12s %12s %8s %6s" %
                  (workload, label, "metric", "q1", "median", "q3", "spread", "bound"))
            for name, row in rows.items():
                flag = "" if row["within_third"] else (" <bound" if row["within_bound"]
                                                       else " OVER")
                if row.get("bit_identical") is False:
                    flag += " NOT-BIT-IDENTICAL"
                if "uncorrected" in row:
                    flag += "  (uncorrected: median %.6g spread %.4f)" % (
                        row["uncorrected"]["median"], row["uncorrected"]["spread"])
                print("%-16s %-8s %-24s %12.6g %12.6g %12.6g %8.4f %6.3f%s" %
                      (workload, label, name, row["q1"], row["median"], row["q3"],
                       row["spread"], row["bound"], flag), flush=True)
    records.close()
    with open(os.path.join(".bench_out", "steadiness.json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--holdout-runs", type=int, default=3)
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--record", metavar="WORKLOAD")
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    binary = build()
    if binary is None:
        return 1

    if args.record:
        code, lines = run_binary(binary, args.record, 1, seconds, False, record=True)
        if code != 0:
            return 1
        os.makedirs(REFERENCE_DIR, exist_ok=True)
        with open(os.path.join(REFERENCE_DIR, args.record + ".txt"), "w") as f:
            f.write("\n".join(sorted(lines)) + "\n")
        return 0

    if args.steadiness:
        workloads = args.workloads.split(",") if args.workloads else names
        return 0 if steadiness(binary, spec, workloads, args.runs, args.seed, seconds,
                               args.holdout_runs) else 1

    if args.workload not in names:
        log("perfbench: --workload must be one of " + ", ".join(names))
        return 2
    outcome = run_once(binary, spec, args.workload, args.seed, seconds, bool(args.trace))
    if outcome is None:
        return 1
    record, result = outcome
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
