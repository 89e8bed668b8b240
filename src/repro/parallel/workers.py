"""Picklable simulation tasks: one seeded simulator invocation each.

The tasks here are small frozen dataclasses that carry a
:class:`~repro.core.config.SystemConfig` (itself a frozen dataclass of
primitives and enums) plus the run parameters, so they hash, compare
and pickle as plain values.

Non-uniform workloads travel as declarative specs
(:mod:`repro.workloads.spec`) rather than live generators: an
:class:`~repro.engine.base.EvalRequest` carries the spec, and
:func:`run_case` builds the matching generator *inside* the executing
process from the request's own seed.  Live generators hold random
streams and replay positions, so shipping the spec (not the object) is
what keeps a result independent of which process computes it.

Determinism contract: a task called with a given seed performs exactly
the computation a direct :func:`repro.bus.simulate` call performs with
that seed and workload, so its estimate is bit-for-bit the same.
"""

from __future__ import annotations

import dataclasses

from repro.core.config import SystemConfig
from repro.core.results import SimulationResult
from repro.engine.base import EvalRequest
from repro.workloads.spec import WorkloadSpec


def run_case(request: EvalRequest) -> SimulationResult:
    """Simulate one :class:`~repro.engine.base.EvalRequest`."""
    from repro.bus import simulate

    targets = None
    request_probabilities = None
    workload = request.workload
    if workload is not None:
        workload.validate(request.config)
        targets = workload.build_targets(request.config, request.seed)
        request_probabilities = workload.request_probabilities(request.config)
    return simulate(
        request.config,
        cycles=request.cycles,
        seed=request.seed,
        warmup=request.warmup,
        targets=targets,
        request_probabilities=request_probabilities,
        collect_latency=request.collects_latency,
        kernel=request.kernel,
        geometric_access_times=request.geometric_access_times,
    )


@dataclasses.dataclass(frozen=True)
class EbwTask:
    """A picklable seed-to-EBW estimator for replication runs.

    Returned by :func:`repro.des.replications.ebw_estimator`.  Calling
    it with a seed returns the simulated EBW of ``config`` under that
    seed.  An optional workload spec reproduces hot-spot, trace or
    heterogeneous-p runs; ``None`` is the paper's uniform workload.
    """

    config: SystemConfig
    cycles: int = 20_000
    workload: WorkloadSpec | None = None

    def __call__(self, seed: int) -> float:
        return run_case(
            EvalRequest(
                self.config, self.workload, cycles=self.cycles, seed=seed
            )
        ).ebw


@dataclasses.dataclass(frozen=True)
class LatencyTask:
    """A picklable seed-to-:class:`~repro.metrics.LatencyReport` estimator.

    The latency counterpart of :class:`EbwTask`: calling it with a seed
    runs the seeded simulation with latency collection enabled and
    returns the run's wait/service/total summaries, the per-seed input
    :func:`repro.des.replications.replicate_latency` merges in seed
    order.
    """

    config: SystemConfig
    cycles: int = 20_000
    workload: WorkloadSpec | None = None

    def __call__(self, seed: int):
        result = run_case(
            EvalRequest(
                self.config,
                self.workload,
                cycles=self.cycles,
                seed=seed,
                metrics=("latency",),
            )
        )
        assert result.latency is not None
        return result.latency
