"""Figure 6: buffered processor utilisation EBW/(n p) vs p, n = 8, m = 16.

Companion of Figure 3 for the buffered system.  The paper notes that the
positive influence of buffering fades as p decreases (memory interference
is already low at light load).
"""

from __future__ import annotations

from repro.experiments import paper_data
from repro.experiments.grids import with_run
from repro.experiments.registry import ExperimentResult, ExperimentSpec, register
from repro.scenarios.registry import get_scenario


def render(results) -> ExperimentResult:
    """The Figure 6 curve family (buffered system)."""
    # Keyed on each unit's own (r, p) so axis reordering cannot scramble
    # the curves.
    utilization = {
        (
            result.unit.config.memory_cycle_ratio,
            result.unit.config.request_probability,
        ): result.processor_utilization
        for result in results[0]
    }
    measured: dict[tuple[str, str], float] = {}
    rows = []
    columns = tuple(f"p={p:g}" for p in paper_data.FIGURE6_P_VALUES)
    for r in paper_data.FIGURE6_R_VALUES:
        label = f"r={r}"
        rows.append(label)
        for p in paper_data.FIGURE6_P_VALUES:
            measured[(label, f"p={p:g}")] = utilization[(r, p)]
    return ExperimentResult(
        experiment_id="figure6",
        title="Figure 6 - Processor utilisation EBW/(n p), buffered, "
        "n = 8, m = 16",
        row_label="curve",
        column_label="p",
        rows=tuple(rows),
        columns=columns,
        measured=measured,
        notes="expected shape: like Figure 3 but uniformly higher; the "
        "buffering advantage shrinks as p decreases",
    )


SPEC = register(
    ExperimentSpec(
        experiment_id="figure6",
        title="Processor utilisation vs p (buffered)",
        paper_artifact="Figure 6",
        scenarios=lambda cycles, seed: (
            with_run(get_scenario("figure6"), cycles, seed),
        ),
        render=render,
        cycles=60_000,
    )
)
