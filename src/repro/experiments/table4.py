"""Table 4: buffered-system simulation, priority to processors, n = 8.

The registered ``table4`` scenario owns the grid; this module maps its
compiled unit results into the paper's table layout.
"""

from __future__ import annotations

import dataclasses

from repro.experiments import paper_data
from repro.experiments.registry import ExperimentResult, ExperimentSpec, register
from repro.scenarios.execute import run_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ReplicationPlan


def run(
    cycles: int = 100_000, seed: int = 1985, workers: int | None = None
) -> ExperimentResult:
    """Simulate the Section 6 buffered machine over the Table 4 grid."""
    spec = dataclasses.replace(
        get_scenario("table4"), cycles=cycles, plan=ReplicationPlan(1, seed)
    )
    measured: dict[tuple[str, str], float] = {}
    reference: dict[tuple[str, str], float] = {}
    for result in run_scenario(spec, workers=workers):
        m = result.unit.config.memories
        r = result.unit.config.memory_cycle_ratio
        key = (f"m={m}", f"r={r}")
        measured[key] = result.ebw
        reference[key] = paper_data.TABLE4_BUFFERED_SIMULATION[(m, r)]
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
        run=run,
    )
)
