#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run one workload.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout. The first run configures and builds the
repository's libraries plus the perfbench binary into .bench_build/perfbench (later
runs only re-check the build). The workload runs in its own process, so
its peak RSS is its own.

Standard output: a few human-readable lines, the workload's full
self-describing record (one JSON line: build type, compiler, nproc,
threads, seed, input sizes, observed traffic, every self-check and every
metric with its unit), then, as the last line, the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list; with --trace 1 its per_layer list.
A per-layer metric of a layer the workload does not exercise reads 0 and
is named under "not_exercised" in the record.

Exit status is 0 only if the build succeeded and every self-check passed.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# Wall-clock cap on one workload process (the build is not included).
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure (once) and build; serialised across concurrent runs."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log("no repository sources next to perfbench/; nothing to build")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_DIR + ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
        if os.path.isfile(cache):
            with open(cache) as f:
                if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                    # The checkout moved: the old tree points elsewhere.
                    shutil.rmtree(BUILD_DIR)
                    os.makedirs(BUILD_DIR)
        steps = []
        if not os.path.isfile(cache):
            steps.append(
                ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            )
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
        for cmd in steps:
            # Build chatter goes to stderr; stdout is reserved for results.
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if proc.returncode != 0:
                log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
                return False
    return os.path.isfile(BINARY)


def run_binary(args):
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [
        BINARY,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--trace-out", os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"workload exceeded {RUN_TIMEOUT_S} s; killed")
        return None, -1
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        record = None
    return record, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in workloads:
        log(f"unknown workload {args.workload!r}; known: {', '.join(workloads)}")
        return 2
    if args.seconds < 1 or args.seed < 0:
        log("--seconds must be >= 1 and --seed >= 0")
        return 2

    t0 = time.monotonic()
    if not build():
        return 1
    log(f"build ready in {time.monotonic() - t0:.1f} s")

    record, rc = run_binary(args)
    if record is None:
        log(f"workload produced no record (exit {rc})")
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    reported = record["per_layer"] if args.trace else record["end_to_end"]
    metrics, unit_errors, not_exercised = {}, [], []
    for m in wanted:
        got = reported.get(m["name"])
        if got is None:
            if not args.trace:
                unit_errors.append(f"{m['name']}: not reported")
                continue
            not_exercised.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            unit_errors.append(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    record["not_exercised"] = not_exercised

    correct = bool(record.get("correct")) and rc == 0 and not unit_errors
    for err in unit_errors:
        log(f"metric mismatch: {err}")

    build_info = record.get("build", {})
    print(f"workload  {args.workload} (seed {args.seed}, {args.seconds} s, trace {args.trace})")
    print(f"why       {workloads[args.workload]}")
    print(
        f"build     {build_info.get('build_type')} / NDEBUG {build_info.get('ndebug')} / "
        f"{build_info.get('compiler')} / nproc {build_info.get('nproc')} / "
        f"threads {record.get('threads')}"
    )
    if build_info.get("optimized") != "true":
        print("WARNING   not an optimized Release build; timings are not comparable")
    failed_checks = [k for k, ok in record.get("checks", {}).items() if not ok]
    print(f"checks    {len(record.get('checks', {}))} run, failed: {failed_checks or 'none'}")
    for name, m in sorted(reported.items()):
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(json.dumps(record, separators=(",", ":")))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(record.get("attempted", 0)),
                "failed": int(record.get("failed", 0)),
                "metrics": metrics,
            },
            separators=(",", ":"),
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
