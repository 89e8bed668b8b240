"""Table 2: combinational approximation with priority to memories."""

from __future__ import annotations

from repro.engine.base import EvaluationMethod
from repro.experiments import paper_data
from repro.experiments.grids import (
    MEMORY_PRIORITY_SIZES,
    memory_priority_scenario,
    table_cells,
)
from repro.experiments.registry import ExperimentResult, ExperimentSpec, register

SCENARIO = memory_priority_scenario("table2", EvaluationMethod.APPROX)
"""The Table 2 grid; the ``approx`` evaluator resolves priority to
memories to the Section 3.2 model, non-symmetric as the paper prints
it (the symmetrised variant of Section 5 is
``approximate_memory_priority_ebw(config, symmetric=True)``)."""


def render(results) -> ExperimentResult:
    """The Section 3.2 model's EBW over the Table 2 grid."""
    measured, reference = table_cells(
        results[0],
        "processors",
        "memories",
        paper_data.TABLE2_APPROX_MEMORY_PRIORITY,
    )
    return ExperimentResult(
        experiment_id="table2",
        title="Table 2 - EBW approximate values (non-symmetric), priority "
        "to memory modules, r = min(n, m) + 7",
        row_label="n",
        column_label="m",
        rows=tuple(f"n={n}" for n in MEMORY_PRIORITY_SIZES),
        columns=tuple(f"m={m}" for m in MEMORY_PRIORITY_SIZES),
        measured=measured,
        reference=reference,
        notes="deterministic model output; the paper prints the "
        "non-symmetric variant",
    )


SPEC = register(
    ExperimentSpec(
        experiment_id="table2",
        title="Combinational approximation, priority to memories",
        paper_artifact="Table 2",
        scenarios=lambda cycles, seed: (SCENARIO,),
        render=render,
    )
)
