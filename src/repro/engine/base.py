"""Core types of the unified evaluation-engine layer.

Every way this library can attach a number to a configuration - the
cycle-accurate simulator, the Section 3/4 Markov chains, product-form
MVA, the crossbar chain, the Section 3.2 combinational bandwidth model,
operational-analysis bounds - is an *evaluator*: an object that turns an
:class:`EvalRequest` into an :class:`EvalResult` and declares, up front,
what it can evaluate (:class:`EvaluatorCapabilities`).  The scenario
compiler, the sweep helpers and the experiment modules all look methods
up in one fixed table (:data:`repro.engine.evaluators.EVALUATORS`)
instead of hand-rolled ``if/elif`` chains, so

* invalid method/workload/configuration combinations are rejected when a
  scenario is *loaded*, with a message naming the violated capability,
  rather than deep inside a worker process;
* cache keys carry each evaluator's versioned engine token, so a change
  to one evaluator's semantics retires exactly that evaluator's entries.

This module holds the request/result/capability value types plus the
:class:`EvaluationMethod` enum, which historically lived in
:mod:`repro.scenarios.spec` and is still re-exported from there.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import TYPE_CHECKING, Any, Mapping

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.metrics import LatencyReport
    from repro.workloads.spec import WorkloadSpec


class EvaluationMethod(enum.Enum):
    """How one scenario point is evaluated."""

    SIMULATION = "simulation"
    """Cycle-accurate bus simulation (:func:`repro.bus.simulate`)."""

    MARKOV = "markov"
    """Markov-chain models: the Section 4 reduced chain for priority to
    processors, the Section 3 exact chain for priority to memories."""

    MVA = "mva"
    """Product-form Mean Value Analysis (:mod:`repro.queueing.mva`)."""

    CROSSBAR = "crossbar"
    """Closed-form exact crossbar EBW (:mod:`repro.models.crossbar`)."""

    BANDWIDTH = "bandwidth"
    """The paper's Section 3.2 combinational bandwidth model: the
    distinct-modules busy distribution (:mod:`repro.models.combinatorics`)
    weighted through :func:`repro.models.bandwidth.ebw_from_busy_distribution`."""

    BOUNDS = "bounds"
    """Operational-analysis balanced-job bounds on the central-server
    model (:mod:`repro.queueing.bounds`); the reported EBW is the bound
    midpoint, bracketed by the exact product-form value."""

    APPROX = "approx"
    """The cheap approximation for each priority: the Section 3.2
    combinational model for priority to memories, the Section 4 reduced
    chain for priority to processors."""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


ALL_WORKLOAD_KINDS: frozenset[str] = frozenset(
    {"uniform", "hot_spot", "trace", "request_mix"}
)
"""Every workload kind the library defines (:mod:`repro.workloads.spec`)."""

UNIFORM_ONLY: frozenset[str] = frozenset({"uniform"})
"""Workload capability of the analytic methods (hypothesis (e))."""


@dataclasses.dataclass(frozen=True)
class EvaluatorCapabilities:
    """What one evaluator declares it can evaluate.

    The declaration is the single source of truth for request
    validation: :meth:`check` raises a :class:`ConfigurationError`
    naming the violated constraint, and the scenario layer calls it both
    at spec-construction time (static fields) and at compile time (every
    grid point), so invalid sweeps fail before any work is scheduled.
    """

    method: EvaluationMethod
    engine_token: str
    """Versioned cache-key contribution, e.g. ``"markov@1"``.  Bump the
    version when the evaluator's numerical semantics change; only that
    evaluator's cache entries are retired."""
    workloads: frozenset[str] = UNIFORM_ONLY
    """Workload kinds the evaluator accepts (``uniform`` for the
    analytic models - hypothesis (e))."""
    supports_buffering: bool = True
    """Whether buffered configurations are evaluable."""
    supports_unbuffered: bool = True
    """Whether unbuffered configurations are evaluable."""
    full_load_only: bool = False
    """Whether the evaluator requires ``p = 1`` (hypothesis (f) with no
    internal processing)."""
    metrics: frozenset[str] = frozenset()
    """Extra metric families the evaluator can attach (e.g. ``latency``)."""
    description: str = ""

    @property
    def analytic(self) -> bool:
        """True for deterministic closed-form/numerical methods.

        Analytic results are functions of the configuration alone, so
        their cache keys ignore seed/cycles/warmup and replications
        collapse onto one computation.
        """
        return self.method is not EvaluationMethod.SIMULATION

    # ------------------------------------------------------------------
    def check_metrics(self, metrics: tuple[str, ...]) -> None:
        """Reject metric families this evaluator cannot produce."""
        unsupported = sorted(set(metrics) - self.metrics)
        if unsupported:
            kind = "analytic " if self.analytic else ""
            raise ConfigurationError(
                f"method {self.method} ({kind}evaluator) does not support "
                f"metric(s) {', '.join(unsupported)}; supported: "
                f"{', '.join(sorted(self.metrics)) or 'none'}"
            )

    def check_workload_kind(self, kind: str) -> None:
        """Reject workload kinds outside the declared capability."""
        if kind not in self.workloads:
            label = "analytic and supports only" if self.workloads == UNIFORM_ONLY else "restricted to"
            raise ConfigurationError(
                f"method {self.method} is {label} the "
                f"{', '.join(sorted(self.workloads))} workload "
                f"(hypothesis (e)); got workload kind {kind!r}"
            )

    def check_config(self, config: SystemConfig) -> None:
        """Reject configurations outside the declared capability."""
        if config.buffered and not self.supports_buffering:
            raise ConfigurationError(
                f"method {self.method} covers the unbuffered system only; "
                f"use simulation (or mva/bounds) for buffered "
                f"configurations like {config.describe()}"
            )
        if not config.buffered and not self.supports_unbuffered:
            raise ConfigurationError(
                f"method {self.method} covers the buffered system only; "
                f"got unbuffered configuration {config.describe()}"
            )
        if self.full_load_only and config.request_probability != 1.0:
            raise ConfigurationError(
                f"method {self.method} assumes full load p = 1 "
                f"(got p = {config.request_probability:g}); use simulation "
                "for partial-load estimates"
            )

    def check(self, request: "EvalRequest") -> None:
        """Validate a whole request against this declaration."""
        self.check_workload_kind(request.workload_kind)
        self.check_config(request.config)
        self.check_metrics(request.metrics)


@dataclasses.dataclass(frozen=True)
class EvalRequest:
    """One fully-specified evaluation of one configuration.

    The one record between the scenario compiler and the kernels: a
    :class:`~repro.scenarios.compiler.WorkUnit` stripped of sweep
    bookkeeping (index, scenario name, replication number), and what
    :func:`repro.parallel.workers.run_case` and
    :func:`repro.parallel.fleet.run_fleet` execute.  ``seed``,
    ``cycles`` and ``warmup`` only matter to the simulation evaluator;
    analytic evaluators ignore them (and exclude them from cache
    payloads).  ``workload=None`` is the paper's uniform workload and
    follows the exact code path (and random-stream layout) of a plain
    ``simulate(config, ...)`` call.  ``kernel`` selects the simulation
    tier: ``"fast"`` is exact; ``"batch"`` (the vectorized lockstep
    fleet kernel) is reproducible in itself but not bit-identical, so
    batch requests cache under the distinct ``simulation-batch@1``
    engine namespace.  ``geometric_access_times`` replaces the constant
    ``r``-cycle memory access with a geometric one of mean ``r`` (the
    Section 6 exponential-service comparison); it enters the cache key
    only when set.
    """

    config: SystemConfig
    workload: "WorkloadSpec | None" = None
    cycles: int = 50_000
    warmup: int | None = None
    seed: int = 0
    metrics: tuple[str, ...] = ()
    kernel: str = "fast"
    geometric_access_times: bool = False

    @property
    def workload_kind(self) -> str:
        """The workload spec's kind tag (``None`` means uniform)."""
        return "uniform" if self.workload is None else self.workload.kind

    @property
    def collects_latency(self) -> bool:
        """Whether the request asks for latency-distribution metrics.

        Collection draws no random numbers, so every simulated counter
        is bit-identical either way; it is part of the cache identity
        (:func:`repro.parallel.cache.case_payload`) because the stored
        value carries the extra latency fields."""
        return "latency" in self.metrics


LITTLES_LAW_TOKEN = "littles@1"
"""Versioned cache-key token for analytic Little's-law latency columns."""


@dataclasses.dataclass(frozen=True)
class LittlesLawLatency:
    """Analytic mean-wait/queue-length metrics via Little's law.

    Produced by the ``mva`` evaluator when a scenario requests the
    ``latency`` metric: the product-form solution yields exact mean
    residence times and queue lengths, so instead of silently omitting
    the percentile columns the unit line carries the analytic means.

    All times are in bus cycles; queue lengths are mean customers
    (including the one in service).
    """

    wait_mean: float
    """Mean queueing delay per request: residence minus service."""
    total_mean: float
    """Mean issue-to-response residence time per request."""
    queue_bus: float
    """Mean customers at the bus station."""
    queue_memory: float
    """Mean customers per memory module (average over modules)."""

    def payload(self) -> dict[str, float]:
        """JSON-able encoding (floats round-trip exactly)."""
        return {
            "wait_mean": self.wait_mean,
            "total_mean": self.total_mean,
            "queue_bus": self.queue_bus,
            "queue_memory": self.queue_memory,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "LittlesLawLatency":
        """Inverse of :meth:`payload`; raises on malformed input."""
        try:
            return cls(
                wait_mean=float(payload["wait_mean"]),
                total_mean=float(payload["total_mean"]),
                queue_bus=float(payload["queue_bus"]),
                queue_memory=float(payload["queue_memory"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed Little's-law latency payload: {exc!r}"
            ) from exc


@dataclasses.dataclass(frozen=True)
class EvalResult:
    """The uniform outcome of one evaluation.

    ``payload()`` is the JSON-able encoding the result cache stores
    verbatim; floats round-trip exactly through JSON, so cached and
    freshly-computed runs are byte-identical.  The encoding is the exact
    shape the pre-engine dispatcher produced, so the refactor changed no
    stored or printed bytes.
    """

    ebw: float
    processor_utilization: float
    bus_utilization: float
    latency: "LatencyReport | None" = None
    """Streaming wait/service/total summaries (simulation only)."""
    littles: LittlesLawLatency | None = None
    """Analytic Little's-law means (mva with the latency metric)."""

    def payload(self) -> dict[str, Any]:
        """Cacheable JSON-able metrics mapping."""
        payload: dict[str, Any] = {
            "ebw": self.ebw,
            "processor_utilization": self.processor_utilization,
            "bus_utilization": self.bus_utilization,
        }
        if self.latency is not None:
            payload["latency"] = self.latency.payload()
        if self.littles is not None:
            payload["littles_law"] = self.littles.payload()
        return payload

    @classmethod
    def from_payload(
        cls,
        payload: Mapping[str, Any],
        expect_latency: bool = False,
        expect_littles: bool = False,
    ) -> "EvalResult":
        """Rebuild a result from a cached payload.

        ``expect_latency`` / ``expect_littles`` make the corresponding
        entry mandatory, so a stale cache entry missing the metrics a
        unit asked for is reported as malformed (and recomputed) instead
        of silently dropping columns.
        """
        try:
            latency = None
            if expect_latency:
                from repro.metrics import LatencyReport

                latency = LatencyReport.from_payload(payload["latency"])
            littles = None
            if expect_littles:
                littles = LittlesLawLatency.from_payload(payload["littles_law"])
            return cls(
                ebw=float(payload["ebw"]),
                processor_utilization=float(payload["processor_utilization"]),
                bus_utilization=float(payload["bus_utilization"]),
                latency=latency,
                littles=littles,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed evaluation payload: {exc!r}"
            ) from exc
