"""Discrete-event simulation kernel.

A small, deterministic, dependency-free event scheduler plus the
statistics and random-stream utilities that every simulator in this
repository builds on.  It replaces the SimPy dependency with an
auditable in-tree core.  The names below load their modules on first
use, so the bus kernels, which need only :mod:`repro.des.rng`, never
import the event engine.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.des.engine": ("Engine",),
        "repro.des.events": ("Event", "EventHandle"),
        "repro.des.processes": (
            "Acquire",
            "FifoResource",
            "ProcessRunner",
            "Timeout",
        ),
        "repro.des.replications": (
            "LatencyReplication",
            "ReplicationResult",
            "ebw_estimator",
            "latency_estimator",
            "replicate",
            "replicate_latency",
            "replicate_until",
            "replication_seeds",
        ),
        "repro.des.rng": ("RandomStream", "StreamFactory", "derive_seed"),
        "repro.des.stats": (
            "BatchMeans",
            "Counter",
            "TimeWeighted",
            "autocorrelation",
        ),
    },
)

__all__ = [
    "Engine",
    "Event",
    "EventHandle",
    "RandomStream",
    "StreamFactory",
    "derive_seed",
    "BatchMeans",
    "Counter",
    "TimeWeighted",
    "autocorrelation",
    "ProcessRunner",
    "FifoResource",
    "Acquire",
    "Timeout",
    "ReplicationResult",
    "LatencyReplication",
    "replicate",
    "replicate_latency",
    "replicate_until",
    "replication_seeds",
    "latency_estimator",
    "ebw_estimator",
]
