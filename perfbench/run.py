#!/usr/bin/env python3
"""The repository benchmark (described by BENCHMARK.json at the repo root).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The script builds perfbench/ (a
standalone CMake project over the library sources in src/ and include/)
into .bench_build/perfbench, then runs one benchmark run of the named
workload and passes its report through. The report starts with a header
describing host and build, prints every trial and every metric with its
unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). A traced run also writes its spans as a Chrome trace (open it
in Perfetto) to .bench_build/traces/.

Workloads: syscall, fanout_bulk, fanin_mpmc, fanin_shard (see the "why"
of each in BENCHMARK.json and the header of perfbench/src/workloads.cpp).

--selftest builds and runs the benchmark's own tests: a smoke run of every
workload, and consumer-side corruptions (drop, duplicate, swap) that the
output checks must catch.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("syscall", "fanout_bulk", "fanin_mpmc", "fanin_shard")
JOBS = str(max(1, min(3, os.cpu_count() or 1)))


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; build output goes to stderr."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("no library sources next to perfbench/ (src/ is missing)")
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", JOBS])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=840).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed: %s" % e)
            return False
        if rc != 0:
            log("build step failed (exit %d): %s" % (rc, " ".join(cmd)))
            return False
    return True


def source_revision():
    """The git sha when the checkout is a git work tree, else a digest of
    the sources the benchmark builds."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for sub in ("include", "src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, sub)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "no-git-sources-sha256:" + h.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    try:
        result = json.loads(line)
        want = expected_metrics(trace)
    except (ValueError, OSError, KeyError) as e:
        log("unreadable result or BENCHMARK.json: %s" % e)
        return False
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        log("metrics do not match BENCHMARK.json: missing %s, extra %s"
            % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
        return False
    return True


def run(cmd, timeout):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as e:
        log("timed out after %d s" % timeout)
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes)
                         else (e.stdout or ""))
        return None
    return proc


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not args.selftest and not 0 < args.seconds <= 600:
        ap.error("--seconds must be in (0, 600]")
    if not build():
        return 1

    if args.selftest:
        proc = run([os.path.join(BUILD, "perfbench_selftest")], 600)
        if proc is None:
            return 1
        sys.stdout.write(proc.stdout)
        return proc.returncode

    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", source_revision()]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = run(cmd, int(2 * args.seconds) + 120)
    if proc is None:
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if not check_result(lines[-1], args.trace):
        # Keep the report for the reader but never end with a result line.
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log("run failed (exit %d); last line was: %s"
            % (proc.returncode, lines[-1]))
        return proc.returncode or 1
    # A failed output check still ends with its result ("correct": false)
    # and exits non-zero.
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
