"""The method table: one evaluator per :class:`EvaluationMethod`.

Each class pairs a capability declaration with the thin adapter that
turns an :class:`~repro.engine.base.EvalRequest` into its library call,
and :data:`EVALUATORS` maps every method to one instance.  The table is
fixed: a new method is a new enum member, evaluator class and table
entry, never a runtime registration.  Heavy model modules are imported
inside :meth:`evaluate` so importing the engine stays cheap and worker
processes only pay for the models they run.

Two methods are first-class here for the first time:

* ``bounds`` - the balanced-job bounds of :mod:`repro.queueing.bounds`
  on the central-server network; the reported EBW is the bound midpoint
  (the exact product-form value always lies inside the bracket);
* ``approx`` - the cheap approximation for each priority: the Section
  3.2 combinational model for priority to memories
  (:mod:`repro.models.approx_memory_priority`), the Section 4 reduced
  chain for priority to processors
  (:mod:`repro.models.processor_priority`).
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import ConfigurationError
from repro.engine.base import (
    ALL_WORKLOAD_KINDS,
    EvalRequest,
    EvalResult,
    EvaluationMethod,
    EvaluatorCapabilities,
    LITTLES_LAW_TOKEN,
)

BATCH_ENGINE_TOKEN = "simulation-batch@1"
"""Versioned engine token for batch-kernel cache entries.

The batch kernel (:mod:`repro.bus.batch`) is reproducible in itself but
not bit-identical to the exact kernels, so - unlike the ``fast`` lever -
it owns a cache namespace: bump the version when the batch kernel's
numerical semantics change, and only batch entries are retired.  It
lives here, beside the other engine tokens, so naming the namespace
never imports the kernel."""


def _model_result(model) -> EvalResult:
    """Adapt a :class:`~repro.core.results.ModelResult` to the engine."""
    return EvalResult(
        ebw=model.ebw,
        processor_utilization=model.processor_utilization,
        bus_utilization=model.bus_utilization,
    )


class _AnalyticEvaluator:
    """Cache identity shared by every analytic evaluator.

    Deterministic functions of the configuration alone: seed, cycles and
    warmup are excluded, so replications and ``--cycles`` overrides hit
    the same entry instead of recomputing the identical value.
    """

    capabilities: EvaluatorCapabilities

    def cache_payload(self, request: EvalRequest) -> dict[str, Any]:
        from repro.parallel.cache import config_payload
        from repro.workloads.spec import workload_payload

        payload: dict[str, Any] = {
            "config": config_payload(request.config),
            "workload": workload_payload(request.workload),
            "method": str(self.capabilities.method),
            "engine": self.capabilities.engine_token,
        }
        if request.metrics:
            payload["metrics"] = [LITTLES_LAW_TOKEN]
        return payload


class SimulationEvaluator:
    """Cycle-accurate bus simulation (:func:`repro.bus.simulate`)."""

    capabilities = EvaluatorCapabilities(
        method=EvaluationMethod.SIMULATION,
        engine_token="simulation@1",
        workloads=ALL_WORKLOAD_KINDS,
        metrics=frozenset({"latency"}),
        description="cycle-accurate simulation of the Figure 1/4 machine "
        "(every workload, buffering, p and metric family)",
    )

    def evaluate(self, request: EvalRequest) -> EvalResult:
        from repro.parallel.workers import run_case

        result = run_case(request)
        return EvalResult(
            ebw=result.ebw,
            processor_utilization=result.processor_utilization,
            bus_utilization=result.bus_utilization,
            latency=result.latency,
        )

    def cache_payload(self, request: EvalRequest) -> dict[str, Any]:
        """Simulation identity: the full request (config, workload,
        seed, cycles, warmup, metrics) plus the engine namespace.

        Exact (``fast``) requests carry the ``simulation@1`` namespace.
        The ``batch`` kernel is only statistically equivalent, so its
        requests carry the distinct :data:`BATCH_ENGINE_TOKEN` namespace.
        """
        from repro.parallel.cache import case_payload

        payload = case_payload(request)
        payload["method"] = str(self.capabilities.method)
        if request.kernel == "batch":
            payload["engine"] = BATCH_ENGINE_TOKEN
        else:
            payload["engine"] = self.capabilities.engine_token
        return payload


class MarkovEvaluator(_AnalyticEvaluator):
    """The paper's chains: Section 3.1.1 exact (priority to memories),
    Section 4 reduced (priority to processors)."""

    capabilities = EvaluatorCapabilities(
        method=EvaluationMethod.MARKOV,
        engine_token="markov@1",
        supports_buffering=False,
        full_load_only=True,
        description="Section 3/4 Markov chains (p = 1, unbuffered)",
    )

    def evaluate(self, request: EvalRequest) -> EvalResult:
        from repro.core.policy import Priority
        from repro.models.exact_memory_priority import exact_memory_priority_ebw
        from repro.models.processor_priority import processor_priority_ebw

        if request.config.priority is Priority.PROCESSORS:
            return _model_result(processor_priority_ebw(request.config))
        return _model_result(exact_memory_priority_ebw(request.config))


class MvaEvaluator(_AnalyticEvaluator):
    """Product-form MVA on the central-server model, with optional
    Little's-law mean-wait/queue-length metrics."""

    capabilities = EvaluatorCapabilities(
        method=EvaluationMethod.MVA,
        engine_token="mva@1",
        metrics=frozenset({"latency"}),
        description="product-form MVA of the central-server network "
        "(exact means via Little's law for the latency metric)",
    )

    def evaluate(self, request: EvalRequest) -> EvalResult:
        from repro.core import metrics
        from repro.queueing.mva import product_form_ebw, solve_littles_law

        config = request.config
        ebw = product_form_ebw(config)
        littles = None
        if request.collects_latency:
            littles = solve_littles_law(config)
        return EvalResult(
            ebw=ebw,
            processor_utilization=metrics.processor_utilization(ebw, config),
            bus_utilization=metrics.bus_utilization_from_ebw(
                ebw, config.memory_cycle_ratio
            ),
            littles=littles,
        )


class CrossbarEvaluator(_AnalyticEvaluator):
    """The Bhandarkar exact crossbar chain (comparison baseline)."""

    capabilities = EvaluatorCapabilities(
        method=EvaluationMethod.CROSSBAR,
        engine_token="crossbar@1",
        full_load_only=True,
        description="exact n x m crossbar EBW (p = 1; r carried through "
        "but irrelevant to the value)",
    )

    def evaluate(self, request: EvalRequest) -> EvalResult:
        from repro.models.crossbar import crossbar_exact_ebw

        return _model_result(crossbar_exact_ebw(request.config))


class BandwidthEvaluator(_AnalyticEvaluator):
    """The Section 3.2 combinational bandwidth model (p <= 1)."""

    capabilities = EvaluatorCapabilities(
        method=EvaluationMethod.BANDWIDTH,
        engine_token="bandwidth@1",
        supports_buffering=False,
        description="Section 3.2 combinational busy-module profile under "
        "the Section 3 useful-cycle weights (unbuffered)",
    )

    def evaluate(self, request: EvalRequest) -> EvalResult:
        from repro.models.bandwidth import combinational_bandwidth_ebw

        return _model_result(combinational_bandwidth_ebw(request.config))


class BoundsEvaluator(_AnalyticEvaluator):
    """Balanced-job bounds on the central-server model.

    The cheapest analytic envelope: no chain build, no recursion.  The
    reported EBW is the midpoint of the balanced-job bracket expressed
    in the paper's EBW unit; the exact MVA solution of the same network
    always lies inside the bracket, so the midpoint errs by at most half
    the bracket width.
    """

    capabilities = EvaluatorCapabilities(
        method=EvaluationMethod.BOUNDS,
        engine_token="bounds@1",
        description="balanced-job throughput bounds on the central-server "
        "network; EBW is the bracket midpoint",
    )

    def evaluate(self, request: EvalRequest) -> EvalResult:
        from repro.core import metrics
        from repro.queueing.bounds import balanced_job_bounds
        from repro.queueing.network import buffered_bus_network

        config = request.config
        bounds = balanced_job_bounds(buffered_bus_network(config))
        ebw = 0.5 * (bounds.lower + bounds.upper) * config.processor_cycle
        return EvalResult(
            ebw=ebw,
            processor_utilization=metrics.processor_utilization(ebw, config),
            bus_utilization=metrics.bus_utilization_from_ebw(
                ebw, config.memory_cycle_ratio
            ),
        )


class ApproxEvaluator(_AnalyticEvaluator):
    """The memory/processor-priority approximations as one method.

    Mirrors the ``markov`` priority dispatch at the approximation tier:
    priority to memories uses the Section 3.2 combinational profile (the
    Table 2 model), priority to processors uses the Section 4 reduced
    chain (which *is* the paper's approximation for that priority)."""

    capabilities = EvaluatorCapabilities(
        method=EvaluationMethod.APPROX,
        engine_token="approx@1",
        supports_buffering=False,
        full_load_only=True,
        description="Section 3.2 combinational approximation (priority "
        "to memories) / Section 4 reduced chain (priority to processors)",
    )

    def evaluate(self, request: EvalRequest) -> EvalResult:
        from repro.core.policy import Priority
        from repro.models.approx_memory_priority import (
            approximate_memory_priority_ebw,
        )
        from repro.models.processor_priority import processor_priority_ebw

        if request.config.priority is Priority.PROCESSORS:
            return _model_result(processor_priority_ebw(request.config))
        return _model_result(approximate_memory_priority_ebw(request.config))


EVALUATORS: dict[EvaluationMethod, Any] = {
    evaluator.capabilities.method: evaluator
    for evaluator in (
        SimulationEvaluator(),
        MarkovEvaluator(),
        MvaEvaluator(),
        CrossbarEvaluator(),
        BandwidthEvaluator(),
        BoundsEvaluator(),
        ApproxEvaluator(),
    )
}
"""The method table: one evaluator instance per method."""


def get_evaluator(method: EvaluationMethod | str):
    """The evaluator for ``method`` (a member or its value); raises
    :class:`ConfigurationError` on an unknown name."""
    try:
        return EVALUATORS[EvaluationMethod(method)]
    except ValueError:
        known = ", ".join(sorted(str(m) for m in EVALUATORS))
        raise ConfigurationError(
            f"no evaluator for method {str(method)!r}; known: {known}"
        ) from None
