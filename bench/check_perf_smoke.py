#!/usr/bin/env python3
"""CI perf-smoke gate over BENCH_throughput.json.

Fails (exit 1) when the bench JSON is missing the tail-latency /
zipf-workload structure DESIGN §11 promises, when the 1-worker sweep
throughput, the scan rows/sec or the real-sqlite3 1-worker throughput
drops more than 30% below its checked-in floor
(bench/throughput_floor.json), or when a pipeline stage recorded no
wall-clock phase spans. Keys are asserted by name so a refactor that
silently drops a reported metric breaks CI, not the perf trajectory.

Usage: check_perf_smoke.py BENCH_throughput.json throughput_floor.json
"""

import json
import sys

LATENCY_KEYS = ("count", "mean_ms", "p50_ms", "p99_ms", "p999_ms")


def fail(msg):
    print("perf-smoke FAIL: " + msg)
    sys.exit(1)


def check_latency(obj, where):
    if not isinstance(obj, dict):
        fail("%s is not an object" % where)
    for key in LATENCY_KEYS:
        if key not in obj:
            fail("%s is missing %r" % (where, key))
    if obj["count"] <= 0:
        fail("%s recorded no samples" % where)


def main(argv):
    if len(argv) != 3:
        fail("usage: check_perf_smoke.py BENCH.json FLOOR.json")
    with open(argv[1]) as f:
        bench = json.load(f)
    with open(argv[2]) as f:
        floor = json.load(f)

    sweep = bench.get("worker_sweep")
    if not sweep:
        fail("worker_sweep missing or empty")
    for point in sweep:
        check_latency(point.get("session_latency"),
                      "worker_sweep[workers=%s].session_latency"
                      % point.get("workers"))

    zipf = bench.get("zipf_workload")
    if not isinstance(zipf, dict):
        fail("zipf_workload section missing")
    if not zipf.get("buckets"):
        fail("zipf_workload.buckets missing or empty")
    for bucket in zipf["buckets"]:
        check_latency(bucket.get("session_latency"),
                      "zipf_workload.buckets[max_rows=%s].session_latency"
                      % bucket.get("max_rows"))
    check_latency(zipf.get("session_latency"), "zipf_workload.session_latency")

    scan = bench.get("scan_rows_sweep")
    if not isinstance(scan, list) or not scan:
        fail("scan_rows_sweep missing or empty")
    sizes = sorted(p.get("rows", 0) for p in scan)
    if sizes != [10**4, 10**5, 10**6]:
        fail("scan_rows_sweep sizes are %s, expected 10^4/10^5/10^6" % sizes)
    scan_floor = floor["scan_rows_per_second"]
    scan_minimum = 0.7 * scan_floor
    for point in scan:
        where = "scan_rows_sweep[rows=%s]" % point.get("rows")
        check_latency(point.get("query_latency"), where + ".query_latency")
        rps = point.get("rows_per_second", 0.0)
        if rps < scan_minimum:
            fail("%s: %.0f rows/sec is below %.0f (70%% of the checked-in "
                 "floor %.0f)" % (where, rps, scan_minimum, scan_floor))

    # The real-sqlite3 loop, the path the paper measures.
    sqlite_rate = bench.get("sqlite_statements_per_second_1worker")
    if sqlite_rate is None:
        fail("sqlite_statements_per_second_1worker missing")
    sqlite_floor = floor["sqlite_statements_per_second_1worker"]
    if sqlite_rate < 0.7 * sqlite_floor:
        fail("real-sqlite3 1-worker throughput %.0f stmts/sec is below "
             "%.0f (70%% of the checked-in floor %.0f)"
             % (sqlite_rate, 0.7 * sqlite_floor, sqlite_floor))

    txn = bench.get("txn_workload")
    if not isinstance(txn, list) or not txn:
        fail("txn_workload missing or empty")
    sessions = sorted(p.get("sessions", 0) for p in txn)
    if sessions != [2, 3, 4]:
        fail("txn_workload sessions are %s, expected K in {2, 3, 4}" % sessions)
    for point in txn:
        where = "txn_workload[sessions=%s]" % point.get("sessions")
        if point.get("commits", 0) <= 0:
            fail("%s committed no transactions" % where)
        if point.get("serial_replays", 0) <= 0:
            fail("%s ran no serial-replay comparisons" % where)
        if point.get("statements_per_second", 0.0) <= 0:
            fail("%s reports no throughput" % where)

    telemetry = bench.get("telemetry")
    if not isinstance(telemetry, dict):
        fail("telemetry section missing")
    wall = telemetry.get("phase_wall_micros")
    if not isinstance(wall, dict):
        fail("telemetry.phase_wall_micros missing (bench runs opt into "
             "wall-clock spans)")
    # Stages every minidb run exercises must have recorded spans. "render"
    # is legitimately 0 on minidb (only the sqlite3 adapter renders SQL
    # text), so it is not gated.
    for phase in ("generate", "rectify", "engine_execute",
                  "ground_truth_replay", "oracle_check"):
        stage = wall.get(phase)
        if not isinstance(stage, dict):
            fail("phase_wall_micros.%s missing" % phase)
        if stage.get("spans", 0) <= 0:
            fail("phase_wall_micros.%s recorded no spans" % phase)

    one_worker = [p for p in sweep if p.get("workers") == 1]
    if not one_worker:
        fail("no 1-worker sweep point")
    got = one_worker[0].get("statements_per_second", 0.0)
    floor_value = floor["statements_per_second_1worker"]
    minimum = 0.7 * floor_value
    if got < minimum:
        fail("1-worker throughput %.0f stmts/sec is below %.0f "
             "(70%% of the checked-in floor %.0f)"
             % (got, minimum, floor_value))

    print("perf-smoke OK: 1-worker %.0f stmts/sec (floor %.0f), real sqlite3 "
          "%.0f stmts/sec (floor %.0f), latency + zipf keys present"
          % (got, floor_value, sqlite_rate, sqlite_floor))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
