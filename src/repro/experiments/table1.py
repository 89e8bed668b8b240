"""Table 1: exact EBW with priority to memories, ``r = min(n, m) + 7``."""

from __future__ import annotations

from repro.engine.base import EvaluationMethod
from repro.experiments import paper_data
from repro.experiments.grids import (
    MEMORY_PRIORITY_SIZES,
    memory_priority_scenario,
    table_cells,
)
from repro.experiments.registry import ExperimentResult, ExperimentSpec, register

SCENARIO = memory_priority_scenario("table1", EvaluationMethod.MARKOV)
"""The Table 1 grid; the ``markov`` evaluator resolves priority to
memories to the Section 3.1.1 exact chain."""


def render(results) -> ExperimentResult:
    """The exact chain's EBW over the Table 1 grid."""
    measured, reference = table_cells(
        results[0],
        "processors",
        "memories",
        paper_data.TABLE1_EXACT_MEMORY_PRIORITY,
    )
    return ExperimentResult(
        experiment_id="table1",
        title="Table 1 - EBW exact values, priority to memory modules, "
        "r = min(n, m) + 7",
        row_label="n",
        column_label="m",
        rows=tuple(f"n={n}" for n in MEMORY_PRIORITY_SIZES),
        columns=tuple(f"m={m}" for m in MEMORY_PRIORITY_SIZES),
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
        scenarios=lambda cycles, seed: (SCENARIO,),
        render=render,
    )
)
