"""The unified evaluation-engine layer.

One abstraction for every way the library attaches numbers to a
configuration: evaluators declare capabilities, serve
``EvalRequest -> EvalResult``, and contribute versioned engine tokens to
cache keys.  See :mod:`repro.engine.base` for the value types,
:mod:`repro.engine.evaluators` for the method table (one built-in
evaluator per :class:`EvaluationMethod`), and ``ARCHITECTURE.md`` at the
repository root for how the layer sits between workloads/scenarios above
and kernels/models below.
"""

from __future__ import annotations

from repro.engine.base import (
    ALL_WORKLOAD_KINDS,
    EvalRequest,
    EvalResult,
    EvaluationMethod,
    EvaluatorCapabilities,
    LITTLES_LAW_TOKEN,
    LittlesLawLatency,
    UNIFORM_ONLY,
)
from repro.engine.evaluators import EVALUATORS, get_evaluator


def evaluate(request: EvalRequest, method: EvaluationMethod | str) -> EvalResult:
    """Validate ``request`` against ``method``'s capabilities and run it.

    The one-call convenience for a single evaluation (e.g. the crossbar
    target of :mod:`repro.analysis.tradeoffs`); scenario and experiment
    execution goes through :func:`repro.scenarios.execute.run_units`,
    which adds result caching and batch fleets around the same table
    lookup.
    """
    evaluator = get_evaluator(method)
    evaluator.capabilities.check(request)
    return evaluator.evaluate(request)


def evaluate_config(
    config, method: EvaluationMethod | str, **kwargs
) -> EvalResult:
    """Shorthand: evaluate a bare configuration under ``method``.

    Keyword arguments populate the :class:`EvalRequest` (``seed``,
    ``cycles``, ``workload``, ...).
    """
    return evaluate(EvalRequest(config=config, **kwargs), method)


__all__ = [
    "ALL_WORKLOAD_KINDS",
    "EVALUATORS",
    "EvalRequest",
    "EvalResult",
    "EvaluationMethod",
    "EvaluatorCapabilities",
    "LITTLES_LAW_TOKEN",
    "LittlesLawLatency",
    "UNIFORM_ONLY",
    "evaluate",
    "evaluate_config",
    "get_evaluator",
]
