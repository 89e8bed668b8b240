"""Figure 5: the effect of memory buffers on EBW (vs r, with crossbar).

The paper's reading: buffered single-bus EBW can exceed the
(non-multiplexed) crossbar because buffering removes the extra memory
interference of the unbuffered operation; as ``r`` grows the advantage
shrinks and the buffered curve approaches the crossbar value from above.
"""

from __future__ import annotations

import dataclasses

from repro.experiments import paper_data
from repro.experiments.grids import crossbar_scenario, with_run
from repro.experiments.registry import ExperimentResult, ExperimentSpec, register
from repro.scenarios.registry import get_scenario

CROSSBAR = crossbar_scenario("figure5-crossbar", paper_data.FIGURE5_SYSTEMS)
"""The crossbar reference line of each Figure 5 system (the systems it
shares with Figure 2 are the same units)."""


def scenarios(cycles: int, seed: int):
    """The registered ``figure5`` grid and the crossbar lines."""
    return (with_run(get_scenario("figure5"), cycles, seed), CROSSBAR)


def render(results) -> ExperimentResult:
    """The Figure 5 curve family."""
    grid, crossbar_lines = results
    # Keyed on each unit's own configuration so axis reordering cannot
    # swap the buffered and unbuffered curves.
    ebw = {
        (
            result.unit.config.processors,
            result.unit.config.memories,
            result.unit.config.buffered,
            result.unit.config.memory_cycle_ratio,
        ): result.ebw
        for result in grid
    }
    crossbars = {
        (result.unit.config.processors, result.unit.config.memories): result.ebw
        for result in crossbar_lines
    }
    measured: dict[tuple[str, str], float] = {}
    rows: list[str] = []
    columns = tuple(f"r={r}" for r in paper_data.FIGURE5_R_VALUES)
    for n, m in paper_data.FIGURE5_SYSTEMS:
        for buffered, tag in ((True, "with buffers"), (False, "without buffers")):
            label = f"{n}x{m} {tag}"
            rows.append(label)
            for r in paper_data.FIGURE5_R_VALUES:
                measured[(label, f"r={r}")] = ebw[(n, m, buffered, r)]
        crossbar_label = f"{n}x{m} crossbar"
        rows.append(crossbar_label)
        for r in paper_data.FIGURE5_R_VALUES:
            measured[(crossbar_label, f"r={r}")] = crossbars[(n, m)]
    return ExperimentResult(
        experiment_id="figure5",
        title="Figure 5 - EBW with and without memory-module buffers (p = 1)",
        row_label="curve",
        column_label="r",
        rows=tuple(rows),
        columns=columns,
        measured=measured,
        notes="expected shape: buffered >= unbuffered everywhere; buffered "
        "exceeds the crossbar at moderate r and tends to it as r grows",
    )


@dataclasses.dataclass(frozen=True)
class Figure5Checks:
    """The qualitative claims of Section 6 (used by tests)."""

    buffered_dominates_unbuffered: bool
    buffered_exceeds_crossbar_somewhere: bool


def check_claims(result: ExperimentResult) -> Figure5Checks:
    """Evaluate the paper's Figure 5 claims on a generated result."""
    dominates = True
    exceeds = False
    for n, m in paper_data.FIGURE5_SYSTEMS:
        crossbar = result.measured[(f"{n}x{m} crossbar", "r=24")]
        for r in paper_data.FIGURE5_R_VALUES:
            column = f"r={r}"
            with_buffers = result.measured[(f"{n}x{m} with buffers", column)]
            without = result.measured[(f"{n}x{m} without buffers", column)]
            if with_buffers < without * 0.98:  # simulation noise allowance
                dominates = False
            if with_buffers > crossbar:
                exceeds = True
    return Figure5Checks(
        buffered_dominates_unbuffered=dominates,
        buffered_exceeds_crossbar_somewhere=exceeds,
    )


SPEC = register(
    ExperimentSpec(
        experiment_id="figure5",
        title="Buffered vs unbuffered vs crossbar",
        paper_artifact="Figure 5",
        scenarios=scenarios,
        render=render,
        cycles=50_000,
    )
)
