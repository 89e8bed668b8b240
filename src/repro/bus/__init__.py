"""Cycle-accurate simulator of the multiplexed single-bus machine.

:func:`simulate` runs one configuration on the loop its inputs call
for.  The reference machine's component classes are re-exported here
but load on first use, so a run on the flattened kernel
(:mod:`repro.bus.kernel`) never imports the reference machine.  The
batch kernel's compile-time rules (:data:`PACK_FIELDS`,
:func:`check_batch_features`) live here too, so a coordinator checks
and groups batch work without importing :mod:`repro.bus.batch`.
"""

from typing import Sequence

from repro._lazy import lazy_exports
from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.core.results import SimulationResult
from repro.workloads.generators import (
    TargetSampler,
    is_library_sampler,
    require_library_sampler,
)

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.bus.arbiter": (
            "BusArbiter",
            "Grant",
            "GrantKind",
            "RequestCandidate",
            "ResponseCandidate",
        ),
        "repro.bus.memory": ("MemoryModule", "PendingRequest"),
        "repro.bus.processor": ("Processor", "ProcessorState"),
        "repro.bus.system": ("MultiplexedBusSystem",),
        "repro.bus.trace": (
            "NullTrace",
            "TraceEvent",
            "TraceEventKind",
            "TraceRecorder",
            "TraceSink",
        ),
    },
)

DEFAULT_KERNEL = "fast"
"""The simulation tier every entry point uses unless told otherwise."""

KNOWN_KERNELS = ("fast", "batch")
"""The two simulation tiers: exact (``"fast"``) and ``"batch"``.

:func:`check_kernel` validates against this tuple, so a typo fails at
scenario load time, not mid-sweep."""

PACK_FIELDS = (
    "priority",
    "tie_break",
    "buffered",
)
"""The :class:`SystemConfig` fields every row of one batch kernel must
share.

Priority and tie-break select the arbitration branch and ``buffered``
selects the loop body, so they stay whole-kernel properties.  Shape
numbers (``n``, ``m``, ``r``, buffer depth) are per-row arrays: rows of
different shapes *pack* into one padded lockstep program
(:mod:`repro.bus.batch`).  Everything else - seed, request
probabilities, workload parameters - varies per row; rows are fully
independent simulations that merely share the lockstep loop."""

BATCH_METRICS = frozenset({"latency"})
"""Metric families the batch kernel can produce.

``latency`` is collected through the vectorized per-row quantile sketch
(:class:`repro.metrics.FleetQuantileSketch`): statistically equivalent
to the exact kernels' streaming summaries, not bit-identical - which is
already the batch kernel's contract for every number it emits."""


def check_kernel(kernel: str) -> None:
    """Reject a kernel name outside :data:`KNOWN_KERNELS`."""
    if kernel not in KNOWN_KERNELS:
        raise ConfigurationError(
            f"unknown simulation kernel {kernel!r}; known kernels: "
            f"{', '.join(KNOWN_KERNELS)} - the exact tier picks its loop "
            "from the workload; construct MultiplexedBusSystem directly "
            "for the reference machine"
        )


def check_batch_metrics(metrics: Sequence[str]) -> None:
    """Reject metric families the batch kernel cannot produce.

    Latency distributions are supported (sketch-based, statistically
    equivalent); anything else is rejected with a message naming the
    offending family.
    """
    unsupported = sorted(set(metrics) - BATCH_METRICS)
    if unsupported:
        raise ConfigurationError(
            "kernel='batch' does not support metric(s) "
            f"{', '.join(unsupported)}; use kernel='fast' "
            "(bit-identical to the reference machine)"
        )


def check_batch_features(
    *,
    metrics: Sequence[str] = (),
    geometric_access_times: bool = False,
    targets: TargetSampler | None = None,
) -> None:
    """The one authority on what ``kernel='batch'`` cannot run.

    Raises :class:`ConfigurationError` naming the unsupported feature -
    never a silent fallback to another kernel.  Called by
    :func:`simulate` at request time and by
    :func:`repro.scenarios.compiler.compile_scenario` at scenario load
    time, so unsupported sweeps fail before any cycle is simulated.
    It lives here, not in :mod:`repro.bus.batch`, so a coordinator
    validates a batch sweep without loading the kernel.
    """
    check_batch_metrics(metrics)
    require_library_sampler(targets, "batch")


def simulate(
    config: SystemConfig,
    cycles: int = 100_000,
    seed: int = 0,
    warmup: int | None = None,
    targets: TargetSampler | None = None,
    request_probabilities=None,
    collect_latency: bool = False,
    kernel: str = DEFAULT_KERNEL,
    geometric_access_times: bool = False,
) -> SimulationResult:
    """Simulate ``config`` once, on the loop its inputs call for.

    The one-call entry point used by the examples and experiments:

    >>> from repro import SystemConfig
    >>> from repro.bus import simulate
    >>> result = simulate(SystemConfig(2, 2, 2), cycles=2_000, seed=1)
    >>> 0.0 < result.ebw <= result.config.max_ebw
    True

    ``request_probabilities`` optionally gives each processor its own
    request probability (heterogeneous ``p``); ``None`` reproduces the
    paper's homogeneous hypothesis (f) exactly.  ``collect_latency``
    attaches streaming wait/service/total latency summaries
    (:mod:`repro.metrics`) to the result without touching any random
    stream - identical seeds keep producing identical counters.
    ``geometric_access_times`` replaces the constant ``r``-cycle access
    with a geometric duration of mean ``r`` (the Section 6 product-form
    comparison lever).

    ``kernel`` selects the simulation tier:

    * ``"fast"`` (default) - the exact machine.  Its loop follows
      ``targets`` (:func:`~repro.workloads.generators.is_library_sampler`):
      no sampler or a library one runs the flattened loop of
      :mod:`repro.bus.kernel`; any other sampler runs the
      component-object :class:`MultiplexedBusSystem`.  The two loops
      are property-tested bit-identical (counters, latency summaries,
      RNG consumption), so the pick never shows in a result.
    * ``"batch"`` - the vectorized lockstep kernel of
      :mod:`repro.bus.batch` (a numpy array program), for the library's
      samplers only.  Batch results are reproducible in themselves but
      **not** bit-identical to the exact tier - they are statistically
      equivalent and live in their own cache namespace.  The batch
      kernel pays off when whole replication fleets run through
      :func:`repro.parallel.fleet.run_fleet`.
    """
    check_kernel(kernel)
    if kernel == "batch":
        from repro.bus.batch import run_batch

        check_batch_features(
            metrics=("latency",) if collect_latency else (),
            geometric_access_times=geometric_access_times,
            targets=targets,
        )
        return run_batch(
            config,
            cycles=cycles,
            seed=seed,
            warmup=warmup,
            targets=targets,
            request_probabilities=request_probabilities,
            collect_latency=collect_latency,
            geometric_access_times=geometric_access_times,
        )
    if is_library_sampler(targets):
        from repro.bus.kernel import run_fast

        return run_fast(
            config,
            cycles=cycles,
            seed=seed,
            warmup=warmup,
            targets=targets,
            request_probabilities=request_probabilities,
            collect_latency=collect_latency,
            geometric_access_times=geometric_access_times,
        )
    from repro.bus.system import MultiplexedBusSystem

    system = MultiplexedBusSystem(
        config,
        seed=seed,
        targets=targets,
        request_probabilities=request_probabilities,
        collect_latency=collect_latency,
        geometric_access_times=geometric_access_times,
    )
    return system.run(cycles, warmup=warmup)


__all__ = [
    "BATCH_METRICS",
    "DEFAULT_KERNEL",
    "KNOWN_KERNELS",
    "PACK_FIELDS",
    "check_batch_features",
    "check_batch_metrics",
    "MultiplexedBusSystem",
    "check_kernel",
    "simulate",
    "MemoryModule",
    "PendingRequest",
    "Processor",
    "ProcessorState",
    "BusArbiter",
    "Grant",
    "GrantKind",
    "RequestCandidate",
    "ResponseCandidate",
    "TraceSink",
    "TraceRecorder",
    "NullTrace",
    "TraceEvent",
    "TraceEventKind",
]
