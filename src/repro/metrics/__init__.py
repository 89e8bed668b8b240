"""Streaming latency-distribution metrics.

The buffering decisions this paper studies are really decisions about
the *tail* of the waiting-time distribution; mean bandwidth alone cannot
distinguish a buffer that shortens p99 waits from one that merely
reorders them.  This package gives every layer of the library the same
latency vocabulary:

* :mod:`repro.metrics.quantiles` - the O(1)-memory P² streaming
  quantile estimator with an exact small-sample fallback;
* :mod:`repro.metrics.summary` - the mergeable
  :class:`LatencySummary` / :class:`LatencyReport` values whose merge
  operator is *exactly* associative and order-invariant (rational
  arithmetic), so sharded and parallel runs combine bit-for-bit;
* :mod:`repro.metrics.tracker` - the per-run collector the simulators
  feed;
* :mod:`repro.metrics.sketch` - the vectorized per-row
  :class:`FleetQuantileSketch` the batch kernel feeds: a collapsing
  power-of-two histogram with exact aggregates, exact quantiles while
  its bucket width is 1, and a ``2*max/bins`` value-error bound after
  collapsing; rows freeze into ordinary :class:`LatencySummary`
  values, so every merge path downstream is unchanged.

The cycle-accurate bus simulator records wait/service/total per
completed request (:class:`repro.bus.MultiplexedBusSystem`), the
replication layer aggregates reports across seeds
(:func:`repro.des.replications.replicate_latency`), and the scenario
pipeline renders percentile columns per work unit
(``repro-experiments scenario <name> --metrics latency``).

The names below load their modules on first use, so the exact kernels
never import the batch kernel's sketch.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.metrics.quantiles": (
            "DEFAULT_EXACT_LIMIT",
            "P2Quantile",
            "exact_quantile",
        ),
        "repro.metrics.sketch": ("DEFAULT_SKETCH_BINS", "FleetQuantileSketch"),
        "repro.metrics.summary": (
            "LATENCY_METRICS_TOKEN",
            "LATENCY_METRICS_VERSION",
            "LatencyReport",
            "LatencySummary",
            "merge_latency_reports",
            "merge_summaries",
        ),
        "repro.metrics.tracker": (
            "TRACKED_QUANTILES",
            "LatencyTracker",
            "StreamingQuantiles",
        ),
    },
)

__all__ = [
    "DEFAULT_EXACT_LIMIT",
    "DEFAULT_SKETCH_BINS",
    "FleetQuantileSketch",
    "P2Quantile",
    "exact_quantile",
    "LATENCY_METRICS_TOKEN",
    "LATENCY_METRICS_VERSION",
    "LatencyReport",
    "LatencySummary",
    "merge_latency_reports",
    "merge_summaries",
    "TRACKED_QUANTILES",
    "LatencyTracker",
    "StreamingQuantiles",
]
