"""Turn the span files of one traced run into the per-layer metrics.

Each traced process writes one JSON file (:meth:`tracer.Recorder.dump`).
This module merges the files of an invocation into one timeline and
splits the invocation's wall time between the layers:

* Within a process, an instant belongs to the innermost open span, so a
  single-process run's layer times are exactly the spans' self times.
* Across processes (the sweep service: a coordinator and its workers),
  an instant during which several processes are inside a span is split
  equally between them.  The layer times therefore still add up to the
  time covered by any span, and ``other_s`` - wall time minus covered
  time - is the named residual: interpreter start, argument parsing,
  waiting on a pipe, and everything else no layer claims.

Rates (``ns_per_cycle`` and the like) divide a layer's busy time, summed
over processes, by the work the layer counted, so two workers running
the same kernel at once each count in full.
"""

from __future__ import annotations

import collections
import glob
import json
import os
import statistics

from tracer import HOT_LAYER, LAYERS

COUNTS = (
    "compiler.units",
    "cache.puts",
    "cache.misses",
    "cache.transient_errors",
    "execute.tasks",
    "fast.cycles",
    "fleet.kernels",
    "batch.cycles",
    "plan.leases",
    "service.leases_issued",
    "service.leases_retried",
    "service.dispatched",
)
"""Counters reported as they were summed over processes."""


def load_processes(trace_dir: str) -> list[dict]:
    """The span records every process of one invocation wrote."""
    processes = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            processes.append(json.load(handle))
    return processes


def self_segments(spans) -> list[tuple[int, int, str]]:
    """``(start, end, layer)`` pieces of one process's innermost spans.

    Spans of one thread nest, so sorting by start (outer span first on
    ties) and keeping a stack of open spans yields, between any two
    span boundaries, the one innermost open span.
    """
    segments = []
    stack: list[tuple[str, int]] = []
    cursor = 0
    for layer, start, end in sorted(spans, key=lambda s: (s[1], -s[2])):
        while stack and stack[-1][1] <= start:
            top, top_end = stack.pop()
            segments.append((cursor, top_end, top))
            cursor = top_end
        if stack:
            segments.append((cursor, start, stack[-1][0]))
        stack.append((layer, end))
        cursor = start
    while stack:
        top, top_end = stack.pop()
        segments.append((cursor, top_end, top))
        cursor = top_end
    return [segment for segment in segments if segment[1] > segment[0]]


def wall_shares(processes) -> tuple[dict[str, float], int]:
    """Each layer's share of wall time (ns) and the time any span covers."""
    events = []
    for process in processes:
        for start, end, layer in self_segments(process["spans"]):
            events.append((start, 1, layer))
            events.append((end, -1, layer))
    events.sort(key=lambda event: (event[0], event[1]))
    shares: dict[str, float] = collections.defaultdict(float)
    active: collections.Counter = collections.Counter()
    busy = 0
    covered = 0
    last = 0
    for time_ns, delta, layer in events:
        if busy and time_ns > last:
            elapsed = time_ns - last
            covered += elapsed
            for name, open_count in active.items():
                if open_count:
                    shares[name] += elapsed * open_count / busy
        active[layer] += delta
        busy += delta
        last = time_ns
    # Hot-layer calls are summed, not stored as spans, so the timeline
    # charged them to the span that made them; move that time back.
    for process in processes:
        for layer, hot_ns in process["hot_in"].items():
            shares[layer] -= hot_ns
            shares[HOT_LAYER] += hot_ns
    return shares, covered


def service_stats(process: dict) -> dict:
    """Handshake and lease round trips seen by one coordinator process."""
    spawns = [t for name, t, _ in process["events"] if name == "spawn"]
    readies = [t for name, t, _ in process["events"] if name == "ready"]
    sent: dict[int, int] = {}
    round_trips = []
    for name, t, attrs in process["events"]:
        if name == "lease":
            sent[attrs["lease"]] = t
        elif name == "lease_done" and attrs["lease"] in sent:
            round_trips.append((t - sent.pop(attrs["lease"])) / 1e9)
    handshake = (max(readies) - min(spawns)) / 1e9 if readies else 0.0
    return {
        "workers": len(spawns),
        "handshake_s": handshake,
        "round_trips": round_trips,
    }


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 where the layer did no work."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(invocations) -> dict[str, float]:
    """Per-layer metrics of one traced workload pass.

    ``invocations`` lists ``(processes, wall_s)`` for every CLI
    invocation of the pass.  Times and counts are summed over
    invocations; ``trace.overhead_s`` is filled in by the caller, which
    knows the untraced median.
    """
    shares: dict[str, float] = collections.defaultdict(float)
    busy: dict[str, int] = collections.defaultdict(int)
    calls: dict[str, int] = collections.defaultdict(int)
    counts: dict[str, float] = collections.defaultdict(float)
    wall = 0.0
    covered = 0
    handshake = 0.0
    round_trips: list[float] = []
    worker_wall = 0.0
    for processes, wall_s in invocations:
        wall += wall_s
        invocation_shares, invocation_covered = wall_shares(processes)
        covered += invocation_covered
        for layer, share in invocation_shares.items():
            shares[layer] += share
        for process in processes:
            for layer, ns in process["self_ns"].items():
                busy[layer] += ns
            for layer, n in process["calls"].items():
                calls[layer] += n
            for name, value in process["counts"].items():
                counts[name] += value
            service = service_stats(process)
            if service["workers"]:
                handshake += service["handshake_s"]
                round_trips += service["round_trips"]
                worker_wall += service["workers"] * wall_s
    metrics = {f"{layer}_s": shares[layer] / 1e9 for layer in LAYERS}
    metrics.update({name: counts[name] for name in COUNTS})
    metrics.update(
        {
            "fast.ns_per_cycle": ratio(busy["fast.run"], counts["fast.cycles"]),
            "metrics.records": calls[HOT_LAYER],
            "metrics.ns_per_record": ratio(busy[HOT_LAYER], calls[HOT_LAYER]),
            "fleet.rows_per_kernel": ratio(
                counts["fleet.rows"], counts["fleet.kernels"]
            ),
            "fleet.lane_fill": ratio(
                counts["fleet.valid_lanes"], counts["fleet.padded_lanes"]
            ),
            "batch.us_per_cycle": ratio(
                busy["batch.advance"] / 1e3, counts["batch.cycles"]
            ),
            "batch.ns_per_row_cycle": ratio(
                busy["batch.advance"], counts["batch.row_cycles"]
            ),
            "plan.units_per_lease": ratio(
                counts["plan.leased_units"], counts["plan.leases"]
            ),
            "service.handshake_s": handshake,
            "service.lease_rtt_p50_s": (
                statistics.median(round_trips) if round_trips else 0.0
            ),
            "service.lease_rtt_max_s": max(round_trips, default=0.0),
            "service.worker_busy_frac": ratio(sum(round_trips), worker_wall),
            "other_s": wall - covered / 1e9,
            "trace.wall_s": wall,
        }
    )
    return metrics


def chrome_trace(invocations) -> dict:
    """One Chrome trace-event document (opens in Perfetto) for a pass."""
    trace_events = []
    origin = min(
        (span[1] for processes, _ in invocations for p in processes
         for span in p["spans"]),
        default=0,
    )
    for processes, _ in invocations:
        for process in processes:
            for layer, start, end in process["spans"]:
                trace_events.append(
                    {
                        "name": layer,
                        "ph": "X",
                        "pid": process["pid"],
                        "tid": process["pid"],
                        "ts": (start - origin) / 1e3,
                        "dur": (end - start) / 1e3,
                    }
                )
            for name, t, attrs in process["events"]:
                trace_events.append(
                    {
                        "name": name,
                        "ph": "i",
                        "s": "t",
                        "pid": process["pid"],
                        "tid": process["pid"],
                        "ts": (t - origin) / 1e3,
                        "args": attrs,
                    }
                )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
