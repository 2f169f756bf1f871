#!/usr/bin/env python3
"""End-to-end benchmark runner.

Builds e2e_bench/ (which compiles the repository's `rfid` library with the
repository's own CMake settings) into a Release build directory, runs the
selected workloads and prints every metric by name, unit and bound. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Untraced runs report the end-to-end metrics of BENCHMARK.json, traced runs
(--trace 1) its per-layer metrics and write trace_<workload>.json (Chrome
trace format) into <build-dir>/out/.

    python3 e2e_bench/run.py --workload fleet --seed 1 --trace 0
    python3 e2e_bench/run.py                       # every workload
    python3 e2e_bench/run.py --smoke               # small inputs, ~10 s in all
    python3 e2e_bench/run.py --repeat 10           # spread table vs bounds
    python3 e2e_bench/run.py --repeat 5 --trace    # + traced/untraced counters

Every workload does a fixed amount of work; run_seconds (BENCHMARK.json)
is the typical length of a run on the host the bounds were measured on.
--seconds is accepted only with that value: it cannot resize a run.
"""
import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["fleet", "warehouse", "idle_site"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600
FALSE_VALUES = ("", "OFF", "FALSE", "0", "NO", "N")


def fail(message):
    print("e2e_bench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(REPO_ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def run(cmd, timeout, what):
    """Runs cmd in its own process group and returns (exit code, stdout,
    stderr). On timeout the whole group is killed and reaped, so no
    compiler or benchmark process outlives the runner."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (what, timeout))
    return proc.returncode, out, err


def read_cache(build_dir):
    cache = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key_type, value = line.rstrip("\n").split("=", 1)
                    cache[key_type.split(":", 1)[0]] = value
    except OSError:
        pass
    return cache


def build(build_dir):
    """Configures (once) and builds bench_e2e; returns the CMake cache."""
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    cache = read_cache(build_dir)
    if not cache:
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        code, out, err = run(cmd, BUILD_TIMEOUT_S, "cmake configure")
        if code != 0:
            sys.stderr.write((out + err)[-4000:])
            fail("cmake configure failed (exit %d)" % code)
        cache = read_cache(build_dir)
    home = cache.get("CMAKE_HOME_DIRECTORY", "")
    if os.path.realpath(home) != os.path.realpath(BENCH_DIR):
        fail("%s is configured for %s, not for %s; pass another --build-dir"
             % (build_dir, home or "another project", BENCH_DIR))
    jobs = str(min(4, os.cpu_count() or 1))
    code, out, err = run(["cmake", "--build", build_dir, "--target",
                          "bench_e2e", "-j", jobs],
                         max(1.0, deadline - time.monotonic()), "build")
    if code != 0:
        sys.stderr.write((out + err)[-4000:])
        fail("build failed (exit %d)" % code)
    return cache


def guard(cache):
    """Refuses builds that measure a different program than users run."""
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type != "Release":
        fail("build type is %r; the benchmark measures Release builds only"
             % build_type)
    for option in ("RFID_SANITIZE", "RFID_COVERAGE"):
        value = cache.get(option, "OFF")
        if value.upper() not in FALSE_VALUES:
            fail("%s=%s build; refusing to measure it" % (option, value))


def git(*args):
    try:
        return subprocess.run(["git", "-C", REPO_ROOT] + list(args),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def metadata(cache):
    sha, dirty = "unknown", "unknown"
    if os.path.isdir(os.path.join(REPO_ROOT, ".git")):
        sha = git("rev-parse", "HEAD") or "unknown"
        dirty = "yes" if git("status", "--porcelain") else "no"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        code, out, _ = run([compiler, "--version"], 30, "compiler")
        if code == 0 and out.strip():
            compiler = out.splitlines()[0]
    except OSError:
        pass
    return {
        "git_sha": sha, "dirty": dirty, "nproc": os.cpu_count(), "cpu": cpu,
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "RFID_SIMD": cache.get("RFID_SIMD", "OFF"),
        "RFID_SANITIZE": cache.get("RFID_SANITIZE", "OFF"),
        "RFID_COVERAGE": cache.get("RFID_COVERAGE", "OFF"),
    }


def run_binary(binary, out_dir, workload, seed, traced, smoke):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0",
           "--smoke", "1" if smoke else "0", "--out-dir", out_dir]
    code, out, err = run(cmd, RUN_TIMEOUT_S, workload)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(err)
        fail("%s exited with %d" % (workload, code))
    return json.loads(lines[-1])


def select(report, wanted):
    """Keeps the metrics BENCHMARK.json lists; a missing, non-finite or
    (for end-to-end metrics) non-positive value is a harness fault."""
    metrics, problems = {}, []
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            problems.append("metric %s missing" % m["name"])
            continue
        value = got["value"]
        if not math.isfinite(value) or ("bound" in m and value <= 0):
            problems.append("metric %s = %r" % (m["name"], value))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, problems


def print_report(report, wanted, metrics, problems):
    mode = "traced" if report["traced"] else "untraced"
    print("%s  seed %d  %s  (%.1f s)" % (report["workload"], report["seed"],
                                        mode, report["wall_s"]))
    for m in wanted:
        if m["name"] not in metrics:
            continue
        bound = m.get("bound")
        print("  %-26s %16.6g %-7s %s" % (
            m["name"], metrics[m["name"]]["value"], m["unit"],
            "bound %.2f" % bound if bound is not None else ""))
    listed = set(m["name"] for m in wanted)
    for name, got in report["metrics"].items():
        if name not in listed:
            print("  %-26s %16.6g %-7s (not in the result)" % (
                name, got["value"], got["unit"]))
    for name, value in sorted(report["counters"].items()):
        print("  counter %-18s %d" % (name, value))
    verdict = "correct" if report["correct"] and not problems else "INCORRECT"
    print("  gates: %s (attempted %d, failed %d)" % (
        verdict, report["attempted"], report["failed"]))
    for v in report["violations"] + problems:
        print("    violation: " + v)
    if not report["valid"]:
        print("    invalid: the open-loop generator fell behind its schedule "
              "(gen.late_ms.p99 > 5 ms); latencies include its stall")


def single(args, spec, binary, out_dir, workloads):
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    for workload in workloads:
        report = run_binary(binary, out_dir, workload, args.seed,
                            args.trace, args.smoke)
        metrics, problems = select(report, wanted)
        print_report(report, wanted, metrics, problems)
        total["correct"] &= report["correct"] and not problems
        total["attempted"] += report["attempted"]
        total["failed"] += report["failed"]
        if len(workloads) == 1:
            total["metrics"] = metrics
        else:
            for name, m in metrics.items():
                total["metrics"][workload + "." + name] = m
    return total


def repeat(args, spec, binary, out_dir, workloads):
    """N interleaved rounds, seeds seed..seed+N-1; prints each metric's
    median, quartiles and spread against its bound."""
    runs = {w: [] for w in workloads}
    notes = []
    all_correct = True
    attempted = failed = 0
    for i in range(args.repeat):
        shift = i % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            seed = args.seed + i
            report = run_binary(binary, out_dir, workload, seed, False,
                                args.smoke)
            metrics, problems = select(report, spec["end_to_end"])
            ok = report["correct"] and not problems
            all_correct &= ok
            attempted += report["attempted"]
            failed += report["failed"]
            if not report["valid"]:
                notes.append("invalid run (generator fell behind): %s seed %d"
                             % (workload, seed))
            runs[workload].append(metrics)
            print("round %d %-10s seed %d %s" % (
                i + 1, workload, seed, "correct" if ok else
                "INCORRECT " + "; ".join(report["violations"] + problems)),
                flush=True)
            if args.trace:
                traced = run_binary(binary, out_dir, workload, seed, True,
                                    args.smoke)
                all_correct &= traced["correct"]
                if traced["counters"] != report["counters"]:
                    all_correct = False
                    notes.append("counter mismatch traced/untraced: %s seed "
                                 "%d: %s vs %s" % (workload, seed,
                                                   report["counters"],
                                                   traced["counters"]))
    print()
    print("%-10s %-14s %12s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound",
        "verdict"))
    for workload in workloads:
        for m in spec["end_to_end"]:
            values = [r[m["name"]]["value"] for r in runs[workload]
                      if m["name"] in r]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = m["bound"]
            verdict = ("ok" if spread < bound / 3 else
                       "within" if spread <= bound else "WIDE")
            print("%-10s %-14s %12.6g %12.6g %12.6g %8.4f %6.2f  %s" % (
                workload, m["name"], median, q1, q3, spread, bound, verdict))
    for line in notes:
        print(line)
    return {"correct": all_correct, "attempted": attempted, "failed": failed,
            "metrics": {}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, same gates")
    parser.add_argument("--repeat", type=int, default=0,
                        help="interleaved rounds for the spread table")
    parser.add_argument("--build-dir", default=".bench_build")
    args = parser.parse_args()
    args.trace = args.trace == "1"

    spec = load_spec()
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        fail("--seconds %g: every run does a fixed amount of work, and only "
             "run_seconds = %d from BENCHMARK.json is accepted"
             % (args.seconds, spec["run_seconds"]))
    build_dir = os.path.abspath(args.build_dir)
    cache = build(build_dir)
    guard(cache)
    meta = metadata(cache)
    print("e2e_bench: " + ", ".join("%s=%s" % kv for kv in meta.items()))

    binary = os.path.join(build_dir, "bench_e2e")
    out_dir = os.path.join(build_dir, "out")
    workloads = [args.workload] if args.workload else WORKLOADS
    if args.repeat > 0:
        result = repeat(args, spec, binary, out_dir, workloads)
    else:
        result = single(args, spec, binary, out_dir, workloads)
    print(json.dumps(result))
    if not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
