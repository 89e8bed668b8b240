"""Table 4: buffered-system simulation, priority to processors, n = 8.

The registered ``table4`` scenario owns the grid; this module maps its
unit results into the paper's table layout.
"""

from __future__ import annotations

from repro.experiments import paper_data
from repro.experiments.grids import table_cells, with_run
from repro.experiments.registry import ExperimentResult, ExperimentSpec, register
from repro.scenarios.registry import get_scenario


def render(results) -> ExperimentResult:
    """The Section 6 buffered machine over the Table 4 grid."""
    measured, reference = table_cells(
        results[0],
        "memories",
        "memory_cycle_ratio",
        paper_data.TABLE4_BUFFERED_SIMULATION,
    )
    return ExperimentResult(
        experiment_id="table4",
        title="Table 4 - EBW values, priority to processors, buffered "
        "system, n = 8",
        row_label="m",
        column_label="r",
        rows=tuple(f"m={m}" for m in paper_data.TABLE4_M_VALUES),
        columns=tuple(f"r={r}" for r in paper_data.TABLE4_R_VALUES),
        measured=measured,
        reference=reference,
        notes="stochastic comparison against the paper's simulated values",
    )


SPEC = register(
    ExperimentSpec(
        experiment_id="table4",
        title="Buffered system simulation",
        paper_artifact="Table 4",
        scenarios=lambda cycles, seed: (
            with_run(get_scenario("table4"), cycles, seed),
        ),
        render=render,
        cycles=100_000,
    )
)
