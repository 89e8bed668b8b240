"""Table 1: exact EBW with priority to memories, ``r = min(n, m) + 7``."""

from __future__ import annotations

from repro.core.config import SystemConfig
from repro.core.policy import Priority
from repro.engine import EvaluationMethod, evaluate_config
from repro.experiments import paper_data
from repro.experiments.registry import ExperimentResult, ExperimentSpec, register

_SIZES = (2, 4, 6, 8)


def run() -> ExperimentResult:
    """Evaluate the Section 3.1.1 exact chain over the Table 1 grid.

    Dispatches through the engine's method table: the ``markov`` evaluator
    resolves priority-to-memories configurations to the exact chain.
    """
    measured: dict[tuple[str, str], float] = {}
    reference: dict[tuple[str, str], float] = {}
    for n in _SIZES:
        for m in _SIZES:
            config = SystemConfig(
                processors=n,
                memories=m,
                memory_cycle_ratio=min(n, m) + 7,
                priority=Priority.MEMORIES,
            )
            key = (f"n={n}", f"m={m}")
            measured[key] = evaluate_config(
                config, EvaluationMethod.MARKOV
            ).ebw
            reference[key] = paper_data.TABLE1_EXACT_MEMORY_PRIORITY[(n, m)]
    return ExperimentResult(
        experiment_id="table1",
        title="Table 1 - EBW exact values, priority to memory modules, "
        "r = min(n, m) + 7",
        row_label="n",
        column_label="m",
        rows=tuple(f"n={n}" for n in _SIZES),
        columns=tuple(f"m={m}" for m in _SIZES),
        measured=measured,
        reference=reference,
        notes="deterministic model output; expected to match to the printed "
        "3 decimals",
    )


SPEC = register(
    ExperimentSpec(
        experiment_id="table1",
        title="Exact Markov chain, priority to memories",
        paper_artifact="Table 1",
        run=run,
    )
)
