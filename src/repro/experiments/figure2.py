"""Figure 2: EBW vs r, both priorities, with crossbar references (p = 1).

The paper's reading of this figure: the multiplexed single bus provides
very good EBW as ``r`` increases, priority to processors (g') beats
priority to memories (g''), and for large ``r`` the crossbar EBW acts as
a lower bound on the single-bus EBW.

The curve family is the registered ``figure2`` scenario: one compile
produces the whole (system, priority, r) grid, so sweep-service workers
share every curve at once instead of one sweep at a time.  The crossbar
lines are ``crossbar`` method units beside it.
"""

from __future__ import annotations

import dataclasses

from repro.core.policy import Priority
from repro.experiments import paper_data
from repro.experiments.grids import crossbar_scenario, with_run
from repro.experiments.registry import ExperimentResult, ExperimentSpec, register
from repro.scenarios.registry import get_scenario

CROSSBAR = crossbar_scenario("figure2-crossbar", paper_data.FIGURE2_SYSTEMS)
"""The crossbar reference line of each Figure 2 system."""


def scenarios(cycles: int, seed: int):
    """The registered ``figure2`` grid and the crossbar lines."""
    return (with_run(get_scenario("figure2"), cycles, seed), CROSSBAR)


def render(results) -> ExperimentResult:
    """The Figure 2 curve family."""
    grid, crossbar_lines = results
    # Key each unit result on its own configuration rather than trusting
    # positional order, so the mapping survives axis reordering in the
    # registered scenario.
    ebw = {
        (
            result.unit.config.processors,
            result.unit.config.memories,
            result.unit.config.priority,
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
    columns = tuple(f"r={r}" for r in paper_data.FIGURE2_R_VALUES)
    for n, m in paper_data.FIGURE2_SYSTEMS:
        for priority in (Priority.PROCESSORS, Priority.MEMORIES):
            label = f"{n}x{m} priority={priority}"
            rows.append(label)
            for r in paper_data.FIGURE2_R_VALUES:
                measured[(label, f"r={r}")] = ebw[(n, m, priority, r)]
        crossbar_label = f"{n}x{m} crossbar"
        rows.append(crossbar_label)
        for r in paper_data.FIGURE2_R_VALUES:
            # The crossbar's basic cycle is (r+2)t, so its EBW per
            # processor cycle is flat in r.
            measured[(crossbar_label, f"r={r}")] = crossbars[(n, m)]
    return ExperimentResult(
        experiment_id="figure2",
        title="Figure 2 - Multiplexed single-bus effective bandwidth (p = 1)",
        row_label="curve",
        column_label="r",
        rows=tuple(rows),
        columns=columns,
        measured=measured,
        notes="expected shape: g' >= g''; EBW grows with r and stays above "
        "the crossbar line for large r (Section 3 / Section 7)",
    )


@dataclasses.dataclass(frozen=True)
class Figure2Checks:
    """The qualitative claims the figure supports (used by tests)."""

    processors_beat_memories: bool
    ebw_above_crossbar_at_large_r: bool


def check_claims(result: ExperimentResult) -> Figure2Checks:
    """Evaluate the paper's Figure 2 claims on a generated result."""
    beats = True
    above = True
    for n, m in paper_data.FIGURE2_SYSTEMS:
        crossbar = result.measured[(f"{n}x{m} crossbar", "r=24")]
        for r in paper_data.FIGURE2_R_VALUES:
            column = f"r={r}"
            g_prime = result.measured[(f"{n}x{m} priority=processors", column)]
            g_second = result.measured[(f"{n}x{m} priority=memories", column)]
            # Allow simulation noise of a couple of percent.
            if g_prime < g_second * 0.98:
                beats = False
        largest = f"r={paper_data.FIGURE2_R_VALUES[-1]}"
        if result.measured[(f"{n}x{m} priority=processors", largest)] < crossbar * 0.95:
            above = False
    return Figure2Checks(
        processors_beat_memories=beats,
        ebw_above_crossbar_at_large_r=above,
    )


SPEC = register(
    ExperimentSpec(
        experiment_id="figure2",
        title="EBW vs r, both priorities, crossbar reference",
        paper_artifact="Figure 2",
        scenarios=scenarios,
        render=render,
        cycles=50_000,
    )
)
