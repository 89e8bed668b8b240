"""Workload models: request-target generators, traces, and specs.

The names below load their modules on first use.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.workloads.generators": (
            "HotSpotTargets",
            "TargetSampler",
            "TraceTargets",
            "UniformTargets",
        ),
        "repro.workloads.spec": (
            "HotSpotWorkload",
            "RequestMixWorkload",
            "TraceWorkload",
            "UniformWorkload",
            "WorkloadSpec",
            "workload_from_payload",
            "workload_payload",
        ),
        "repro.workloads.trace": ("RequestTrace",),
    },
)

__all__ = [
    "TargetSampler",
    "UniformTargets",
    "HotSpotTargets",
    "TraceTargets",
    "RequestTrace",
    "WorkloadSpec",
    "UniformWorkload",
    "HotSpotWorkload",
    "TraceWorkload",
    "RequestMixWorkload",
    "workload_payload",
    "workload_from_payload",
]
