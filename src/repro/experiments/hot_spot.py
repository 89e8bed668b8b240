"""Extension experiment: sensitivity to hypothesis (e) (uniform traffic).

The paper assumes requests are "independent and equally distributed
among the different memory modules" (hypothesis (e), after Baskett &
Smith).  This experiment - a library extension, not a paper artefact -
quantifies how the single-bus EBW (buffered and unbuffered) degrades as
a hot-spot concentrates a fraction of the traffic on one module, the
standard robustness probe for interconnection-network models.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.registry import ExperimentResult, ExperimentSpec, register
from repro.scenarios.builtin import HOT_SPOT_FRACTIONS, HOT_SPOT_SYSTEMS
from repro.scenarios.execute import run_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ReplicationPlan

_HOT_FRACTIONS = HOT_SPOT_FRACTIONS
_SYSTEMS = HOT_SPOT_SYSTEMS


def run(
    cycles: int = 50_000, seed: int = 1985, workers: int | None = None
) -> ExperimentResult:
    """EBW vs hot-spot fraction for buffered and unbuffered systems."""
    spec = dataclasses.replace(
        get_scenario("hot_spot"), cycles=cycles, plan=ReplicationPlan(1, seed)
    )
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
        for result in run_scenario(spec, workers=workers)
    }
    measured: dict[tuple[str, str], float] = {}
    rows = []
    columns = tuple(f"hot={fraction:g}" for fraction in _HOT_FRACTIONS)
    for n, m, r in _SYSTEMS:
        for buffered, tag in ((False, "unbuffered"), (True, "buffered")):
            label = f"{n}x{m} r={r} {tag}"
            rows.append(label)
            for fraction in _HOT_FRACTIONS:
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
        run=run,
    )
)
