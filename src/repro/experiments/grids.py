"""Scenario shapes shared by the experiments.

Tables 3(a), 3(b) and 4 all evaluate every cell of an ``m x r`` grid
with the remaining configuration fixed.  :func:`mr_grid_scenario` owns
that shape; the registered ``table3a``/``table3b``/``table4`` scenarios
(:mod:`repro.scenarios.builtin`) are built from it, so the tables (and
any future ``m x r`` study) cannot drift apart in axis order, seeding,
or enumeration.  Tables 1 and 2 share :func:`memory_priority_scenario`
and Figures 2 and 5 :func:`crossbar_scenario`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Mapping

from repro.core.policy import Priority
from repro.engine.base import EvaluationMethod
from repro.scenarios.spec import GridAxis, ReplicationPlan, ScenarioSpec

MEMORY_PRIORITY_SIZES = (2, 4, 6, 8)
"""The ``n`` and ``m`` values of Tables 1 and 2."""

_LABELS = {"processors": "n", "memories": "m", "memory_cycle_ratio": "r"}


def mr_grid_scenario(
    name: str,
    m_values: Iterable[int],
    r_values: Iterable[int],
    base: Mapping[str, Any],
    cycles: int,
    seed: int,
) -> ScenarioSpec:
    """The canonical ``m`` (outer) x ``r`` (inner) table scenario.

    ``base`` maps :class:`~repro.core.config.SystemConfig` field names
    to the values fixed across the grid (e.g. ``processors`` and
    ``priority``).
    """
    return ScenarioSpec(
        name=name,
        base=dict(base),
        grid=(
            GridAxis("memories", tuple(m_values)),
            GridAxis("memory_cycle_ratio", tuple(r_values)),
        ),
        cycles=cycles,
        plan=ReplicationPlan(1, seed),
    )


def memory_priority_scenario(
    name: str, method: EvaluationMethod
) -> ScenarioSpec:
    """The Table 1/2 grid under ``method``: priority to memories at
    ``r = min(n, m) + 7``, one joint ``(processors, memories,
    memory_cycle_ratio)`` axis with ``n`` outer."""
    return ScenarioSpec(
        name=name,
        base={"priority": Priority.MEMORIES},
        grid=(
            GridAxis(
                ("processors", "memories", "memory_cycle_ratio"),
                tuple(
                    (n, m, min(n, m) + 7)
                    for n in MEMORY_PRIORITY_SIZES
                    for m in MEMORY_PRIORITY_SIZES
                ),
            ),
        ),
        method=method,
    )


def crossbar_scenario(name: str, systems) -> ScenarioSpec:
    """The exact crossbar EBW of each ``(n, m)`` of ``systems`` at
    ``r = 1``: the reference line of Figures 2 and 5."""
    return ScenarioSpec(
        name=name,
        base={"memory_cycle_ratio": 1},
        grid=(GridAxis(("processors", "memories"), tuple(systems)),),
        method=EvaluationMethod.CROSSBAR,
    )


def with_run(spec: ScenarioSpec, cycles: int, seed: int) -> ScenarioSpec:
    """``spec`` at ``cycles`` per unit under one replication seeded
    ``seed``."""
    return dataclasses.replace(
        spec, cycles=cycles, plan=ReplicationPlan(1, seed)
    )


def table_cells(results, row_field: str, column_field: str, published):
    """The ``(measured, reference)`` EBW cells of a two-field grid, each
    named by its unit's own configuration (``("n=2", "m=4")``), so axis
    order cannot scramble a table; ``published`` maps ``(row value,
    column value)`` to the paper's printed EBW."""
    measured: dict[tuple[str, str], float] = {}
    reference: dict[tuple[str, str], float] = {}
    for result in results:
        row = getattr(result.unit.config, row_field)
        column = getattr(result.unit.config, column_field)
        key = (
            f"{_LABELS[row_field]}={row}",
            f"{_LABELS[column_field]}={column}",
        )
        measured[key] = result.ebw
        reference[key] = published[(row, column)]
    return measured, reference
