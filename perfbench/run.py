#!/usr/bin/env python3
"""PQS benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload pqs-small --seed 1 --seconds 40 --trace 0

Builds perfbench/pqs_bench from the repository's src/ tree (CMake, into
$CARGO_TARGET_DIR or .bench_build), times the program's set-up over several
launches, runs the workload, checks its outputs and its deterministic counts,
and prints one JSON result as the last line of standard output. Everything
else (build log, run manifest, warnings) goes to standard error. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pqs-small", "pqs-sqlite3", "hunt")
SETUP_LAUNCHES = 21  # set-up is timed over this many launches (fastest)
RUN_LIMIT_S = 175  # a run must end within 180 s


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def build(root, build_dir):
    """Configures (once) and builds pqs_bench; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=root).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--parallel", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=root).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "pqs_bench")


def timed_launch(cmd, root, setup_only, deadline):
    """Starts pqs_bench; returns (seconds until READY, process)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd + (["--setup-only"] if setup_only else []),
                            cwd=root, stdout=subprocess.PIPE, text=True)
    # A launch stuck before READY is killed at the deadline; readline then
    # returns "" and the launch fails below.
    watchdog = threading.Timer(max(1.0, deadline - time.time()), proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    watchdog.cancel()
    if not line.startswith("READY"):
        rest, _ = communicate(proc, deadline)
        fail(f"pqs_bench did not become ready: {(line + rest)[-500:]!r}", 3)
    return ready, proc


def communicate(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("pqs_bench timed out", 4)
    return out, proc.returncode


def source_digest(root):
    """Digest of the code a run executes: src/ and this benchmark."""
    h = hashlib.sha256()
    for top in (os.path.join(root, "src"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "none"  # not a git checkout; never search parent directories
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def check_counts(path, chunk_counts):
    """Compares this run's per-chunk counts with earlier runs of the same
    code, workload and seed, then stores the union."""
    stored = []
    if os.path.exists(path):
        with open(path) as f:
            stored = json.load(f)
    errors = [f"chunk {i}: counts differ from an earlier run"
              for i, (old, new) in enumerate(zip(stored, chunk_counts))
              if old != new]
    if len(chunk_counts) > len(stored):
        stored = stored + chunk_counts[len(stored):]
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(stored, f)
        os.replace(tmp, path)
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.time() + RUN_LIMIT_S

    root = os.path.dirname(BENCH_DIR)
    if not os.path.isfile(os.path.join(root, "src", "pqs", "runner.h")):
        fail(f"no PQS source tree under {root}/src")
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json missing")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    state_dir = os.path.join(root, target, "perfbench")
    binary = build(root, os.path.join(state_dir, "build"))
    # The build can be slow on a cold checkout; the run budget starts now.
    deadline = time.time() + RUN_LIMIT_S

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setup = []
    for _ in range(0 if args.trace else SETUP_LAUNCHES - 1):
        ready, proc = timed_launch(cmd, root, True, deadline)
        _, rc = communicate(proc, deadline)
        if rc != 0:
            fail(f"set-up launch exited with {rc}", 3)
        setup.append(ready)
    ready, proc = timed_launch(cmd, root, False, deadline)
    setup.append(ready)
    out, rc = communicate(proc, deadline)
    if rc != 0:
        fail(f"pqs_bench exited with {rc}", 3)
    result = json.loads(out.strip().splitlines()[-1])

    errors = list(result["errors"])
    digest = source_digest(root)
    counts_dir = os.path.join(state_dir, "counts", digest)
    os.makedirs(counts_dir, exist_ok=True)
    errors += check_counts(
        os.path.join(counts_dir, f"{args.workload}-{args.seed}.json"),
        result["chunk_counts"])
    metrics = result["metrics"]
    if not args.trace:
        # The fastest launch, like the fastest repetition of each chunk:
        # launch times split into modes that follow the host, and their
        # median moved by a third between two sets of runs.
        metrics["setup_s"] = min(setup)
    out_metrics = {}
    for m in wanted:
        if m["name"] not in metrics:
            errors.append(f"metric {m['name']} not measured")
            continue
        out_metrics[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}

    manifest = dict(result["manifest"])
    manifest.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_sha": git_sha(root),
        "source_digest": digest, "nproc": os.cpu_count(),
        "setup_launches_s": setup,
    })
    report = {
        "correct": not errors and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": out_metrics,
    }
    runs_dir = os.path.join(state_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(runs_dir, name), "w") as f:
        json.dump({"manifest": manifest, "errors": errors,
                   "chunk_counts": result["chunk_counts"],
                   "chunk_timings": result["chunk_timings"],
                   "all_metrics": metrics, "report": report}, f, indent=1)
    log("manifest " + json.dumps(manifest, sort_keys=True))
    for e in errors:
        log("error: " + e)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
