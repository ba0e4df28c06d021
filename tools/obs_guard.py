#!/usr/bin/env python3
"""Observability guard for the flight-recorder smoke run.

Usage: obs_guard.py ARTIFACT.json TRACE.json

ARTIFACT.json is a `loadgen --json --verify sat` artifact produced in
in-process mode with `--trace-out TRACE.json`, so the Chrome-trace file
holds the server-side span ring of the same process that served the
load. The guard exits non-zero when:

  * the trace is not well-formed Chrome trace-event JSON, or any
    event's `args.parent` link points at a span id that is not in the
    trace (a broken tree);
  * the trace's `otherData.dropped_events` is missing or non-zero (the
    ring evicted events, so the trees below may be incomplete);
  * the number of root `request` spans (parent 0, `args.request_id`
    set) does not cover every job the artifact reports as executed —
    with a clean run (no timeouts/errors) the counts must match
    exactly;
  * any root `request` span has a zero duration, lacks a request id,
    or is missing `map` / `verify` / `estimate` descendants (the
    per-request pipeline stages);
  * no root span carries the full cold-leader tree: `synthesize` with
    nested `flow/*` passes, and `map` with nested `map/*` phases, all
    with non-zero durations (warm cache hits legitimately skip
    synthesis, but at least one request per run must have built the
    entry);
  * the scraped Prometheus frame embedded in the artifact (`"metrics"`)
    is missing, or its `synthd_request_latency_us` histogram count is
    zero or disagrees with the artifact's `jobs_ok` (the histogram is
    observed exactly once per job served), or `synthd_queue_wait_us`
    saw fewer observations than jobs served, or any histogram's
    cumulative buckets decrease (a malformed exposition);
  * the frame lacks any of the eight `aig_*_total` engine counters, or
    `aig_sat_merge_calls_total` is zero (a SAT-verified run must have
    issued merge queries).
"""

import json
import sys

ENGINE_COUNTERS = (
    "cuts_reused",
    "cuts_computed",
    "sat_merge_calls",
    "sat_merge_proven",
    "sat_merge_refuted",
    "sat_merge_budget_out",
    "sim_words",
    "refine_rounds",
)


def metric_value(metrics, name):
    """The value of a plain `name N` sample line, or None."""
    for line in metrics.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == name:
            return float(parts[1])
    return None


def histogram_buckets(metrics, name):
    """[(le, cumulative_count)] for `name_bucket{le="..."}` lines."""
    buckets = []
    prefix = f'{name}_bucket{{le="'
    for line in metrics.splitlines():
        if line.startswith(prefix):
            le, count = line[len(prefix) :].split('"} ')
            buckets.append((le, float(count)))
    return buckets


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        artifact = json.load(f)
    with open(sys.argv[2]) as f:
        trace = json.load(f)
    failures = []

    # --- span tree ---------------------------------------------------------
    dropped = trace.get("otherData", {}).get("dropped_events")
    if dropped is None:
        failures.append("trace carries no otherData.dropped_events")
    elif dropped != 0:
        failures.append(f"the trace ring dropped {dropped} events")
    events = trace["traceEvents"]
    spans = {e["args"]["id"]: e for e in events if e.get("ph") == "X"}
    children = {}
    for event in events:
        parent = event["args"]["parent"]
        if parent != 0 and parent not in spans:
            failures.append(
                f"event {event['name']!r} links to unknown parent span {parent}"
            )
        children.setdefault(parent, []).append(event)

    def descendants(span_id):
        frontier, out = [span_id], []
        while frontier:
            for event in children.get(frontier.pop(), []):
                out.append(event)
                if event.get("ph") == "X":
                    frontier.append(event["args"]["id"])
        return out

    roots = [
        e
        for e in events
        if e.get("ph") == "X"
        and e["name"] == "request"
        and e["args"]["parent"] == 0
    ]
    executed = (
        artifact["jobs_ok"] + artifact["jobs_timeout"] + artifact["jobs_error"]
    )
    if artifact["jobs_timeout"] == 0 and artifact["jobs_error"] == 0:
        if len(roots) != executed:
            failures.append(
                f"{len(roots)} request root spans != {executed} executed jobs"
            )
    elif len(roots) < artifact["jobs_ok"]:
        failures.append(
            f"{len(roots)} request root spans < {artifact['jobs_ok']} jobs ok"
        )

    cold_leaders = 0
    for root in roots:
        rid = root["args"].get("request_id")
        if not rid:
            failures.append("a request root span carries no request_id")
            continue
        if root.get("dur", 0) <= 0:
            failures.append(f"request {rid}: zero-duration root span")
        tree = descendants(root["args"]["id"])
        names = [e["name"] for e in tree]
        for stage in ("map", "verify", "estimate"):
            if stage not in names:
                failures.append(f"request {rid}: no `{stage}` span under the root")
        has_flow = any(n.startswith("flow/") for n in names)
        map_phases = [
            e for e in tree if e["name"].startswith("map/") and e.get("ph") == "X"
        ]
        if "synthesize" in names and has_flow and map_phases:
            if all(
                e.get("dur", 0) > 0
                for e in tree
                if e["name"] in ("synthesize", "map")
            ):
                cold_leaders += 1
    if roots and cold_leaders == 0:
        failures.append(
            "no request span owns the full cold-leader tree "
            "(synthesize + flow/* + map/* with non-zero durations)"
        )

    # --- metrics frame -----------------------------------------------------
    metrics = artifact.get("metrics")
    if not metrics:
        failures.append("artifact carries no scraped Prometheus metrics frame")
        metrics = ""
    latency_count = metric_value(metrics, "synthd_request_latency_us_count")
    if not latency_count:
        failures.append("synthd_request_latency_us_count is missing or zero")
    elif latency_count != artifact["jobs_ok"]:
        failures.append(
            f"latency histogram count {latency_count:.0f} != "
            f"jobs_ok {artifact['jobs_ok']} (observed once per job served)"
        )
    queue_count = metric_value(metrics, "synthd_queue_wait_us_count")
    if queue_count is None or queue_count < artifact["jobs_ok"]:
        failures.append(
            f"synthd_queue_wait_us_count {queue_count} < jobs_ok "
            f"{artifact['jobs_ok']} (observed once per executed job)"
        )
    for name in ("synthd_request_latency_us", "synthd_queue_wait_us"):
        buckets = histogram_buckets(metrics, name)
        counts = [count for _, count in buckets]
        if counts != sorted(counts):
            failures.append(f"{name}: cumulative bucket counts decrease")
        if buckets and buckets[-1][0] != "+Inf":
            failures.append(f"{name}: final bucket is not +Inf")
    for counter in ENGINE_COUNTERS:
        if metric_value(metrics, f"aig_{counter}_total") is None:
            failures.append(f"metrics frame lacks aig_{counter}_total")
    if not metric_value(metrics, "aig_sat_merge_calls_total"):
        failures.append("aig_sat_merge_calls_total is zero under --verify sat")

    if failures:
        print("OBSERVABILITY GUARD FAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(
        f"obs guard: {len(roots)} request span trees ({cold_leaders} cold leaders), "
        f"{len(spans)} spans, latency histogram count {latency_count:.0f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
