"""Extension experiment: sensitivity to hypothesis (e) (uniform traffic).

The paper assumes requests are "independent and equally distributed
among the different memory modules" (hypothesis (e), after Baskett &
Smith).  This experiment - a library extension, not a paper artefact -
quantifies how the single-bus EBW (buffered and unbuffered) degrades as
a hot-spot concentrates a fraction of the traffic on one module, the
standard robustness probe for interconnection-network models.
"""

from __future__ import annotations

from repro.experiments.grids import with_run
from repro.experiments.registry import ExperimentResult, ExperimentSpec, register
from repro.scenarios.builtin import HOT_SPOT_FRACTIONS, HOT_SPOT_SYSTEMS
from repro.scenarios.registry import get_scenario



def render(results) -> ExperimentResult:
    """EBW vs hot-spot fraction for buffered and unbuffered systems."""
    # Keyed on each unit's own configuration and workload so axis
    # reordering cannot scramble the rows.
    ebw = {
        (
            result.unit.config.processors,
            result.unit.config.memories,
            result.unit.config.memory_cycle_ratio,
            result.unit.config.buffered,
            result.unit.workload.hot_fraction,
        ): result.ebw
        for result in results[0]
    }
    measured: dict[tuple[str, str], float] = {}
    rows = []
    columns = tuple(f"hot={fraction:g}" for fraction in HOT_SPOT_FRACTIONS)
    for n, m, r in HOT_SPOT_SYSTEMS:
        for buffered, tag in ((False, "unbuffered"), (True, "buffered")):
            label = f"{n}x{m} r={r} {tag}"
            rows.append(label)
            for fraction in HOT_SPOT_FRACTIONS:
                measured[(label, f"hot={fraction:g}")] = ebw[
                    (n, m, r, buffered, fraction)
                ]
    return ExperimentResult(
        experiment_id="hot_spot",
        title="Extension - EBW degradation under hot-spot traffic "
        "(violating hypothesis (e))",
        row_label="system",
        column_label="hot fraction",
        rows=tuple(rows),
        columns=columns,
        measured=measured,
        notes="library extension (not a paper artefact): hot=0 recovers "
        "the paper's uniform assumption; EBW decreases monotonically "
        "as traffic concentrates",
    )


def degradation_at(result: ExperimentResult, row: str, fraction: float) -> float:
    """Relative EBW loss of ``row`` at the given hot fraction vs uniform."""
    uniform = result.measured[(row, "hot=0")]
    hot = result.measured[(row, f"hot={fraction:g}")]
    return (uniform - hot) / uniform


SPEC = register(
    ExperimentSpec(
        experiment_id="hot_spot",
        title="Hot-spot sensitivity (extension)",
        paper_artifact="Extension",
        scenarios=lambda cycles, seed: (
            with_run(get_scenario("hot_spot"), cycles, seed),
        ),
        render=render,
        cycles=50_000,
    )
)
