"""Figure 3: processor utilisation EBW/(n p) vs p, n = 8, m = 16 (p < 1).

The figure shows how internal-processing cycles (p < 1) unload the
memory subsystem: utilisation rises toward 1 as p decreases, and larger
``r`` values sustain high utilisation over a wider range of p.
"""

from __future__ import annotations

from repro.experiments import paper_data
from repro.experiments.grids import with_run
from repro.experiments.registry import ExperimentResult, ExperimentSpec, register
from repro.scenarios.registry import get_scenario


def render(results) -> ExperimentResult:
    """The Figure 3 curve family (unbuffered system)."""
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
    columns = tuple(f"p={p:g}" for p in paper_data.FIGURE3_P_VALUES)
    for r in paper_data.FIGURE3_R_VALUES:
        label = f"r={r}"
        rows.append(label)
        for p in paper_data.FIGURE3_P_VALUES:
            measured[(label, f"p={p:g}")] = utilization[(r, p)]
    return ExperimentResult(
        experiment_id="figure3",
        title="Figure 3 - Processor utilisation EBW/(n p), unbuffered, "
        "n = 8, m = 16",
        row_label="curve",
        column_label="p",
        rows=tuple(rows),
        columns=columns,
        measured=measured,
        notes="expected shape: utilisation decreases with p and increases "
        "with r; all values in (0, 1]",
    )


SPEC = register(
    ExperimentSpec(
        experiment_id="figure3",
        title="Processor utilisation vs p (unbuffered)",
        paper_artifact="Figure 3",
        scenarios=lambda cycles, seed: (
            with_run(get_scenario("figure3"), cycles, seed),
        ),
        render=render,
        cycles=60_000,
    )
)
