"""Cache- and fleet-aware sweep planning.

A compiled scenario is a list of independent work units; *how* that
list is cut into leases is a pure wall-clock lever (results merge by
position, and fleet rows are independent), so the service is free to
plan.  This module turns a unit list into an execution plan in two
steps:

1. **Batched cache probe** (:func:`probe_cached`): one
   :meth:`~repro.parallel.cache.ResultCache.get_many` call resolves
   every already-cached position before any dispatch, so warm or
   resumed sweeps never ship cached work to workers.
2. **Whole-fleet lease carving** (:func:`carve_leases`): the remaining
   positions are grouped by the executor's own
   :func:`~repro.scenarios.execute.pack_groups`.  A batch group - one
   shape-packed super-fleet - stays one lease up to
   :data:`MAX_LEASE_UNITS` rows, so it runs as one padded batch call on
   one worker; every other unit is packed into leases by **estimated
   cost** (cycles + warmup per simulation unit, an explicit floor for
   analytic units) rather than unit count.

Neither step can change bytes: the probe only substitutes values the
worker would have fetched from the same shared store, and lease
composition only changes which worker computes a position, never the
position's deterministic result (property-tested in
``tests/properties/test_service_merge.py``).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.engine.base import EvaluationMethod
from repro.scenarios.compiler import WorkUnit

ANALYTIC_UNIT_COST = 1.0
"""Explicit floor cost of any unit.

Closed-form (non-simulation) units cost exactly this much, and no unit
ever costs less: an all-analytic or mixed ``simulation``+``mva`` sweep
therefore always produces strictly positive lease costs, so cost-target
carving degrades to even count-based splitting instead of degenerating
to one giant lease."""

MAX_LEASE_UNITS = 256
"""Hard cap on positions per lease: one lost worker can never strand
more than this many units."""


def unit_cost(unit: WorkUnit) -> float:
    """Estimated relative cost of evaluating one unit on its own.

    Simulation units cost their simulated cycle count (collection plus
    warmup) - wall-clock per cycle is roughly constant within a sweep -
    while closed-form analytic units cost a nominal constant.  Every
    unit costs at least :data:`ANALYTIC_UNIT_COST`, so no unit mix can
    yield a zero or degenerate total.  The estimate only shapes lease
    sizes; being wrong is a performance bug, never a correctness bug.
    """
    if unit.method is EvaluationMethod.SIMULATION:
        return max(
            float(unit.cycles + (unit.warmup or 0)), ANALYTIC_UNIT_COST
        )
    return ANALYTIC_UNIT_COST


def probe_cached(
    units: Sequence[WorkUnit], positions: Sequence[int], cache
) -> dict[int, Any]:
    """Resolve already-cached positions in one batched probe.

    Returns ``{position: metrics_payload}`` for every position of
    ``positions`` whose unit payload hits in ``cache``.  Payload
    validation is the caller's job (a malformed entry must trigger a
    recompute, not a crash).
    """
    keys = {
        position: cache.key(units[position].payload())
        for position in positions
    }
    found = cache.get_many(keys.values())
    return {
        position: found[key]
        for position, key in keys.items()
        if key in found
    }


def _split(lease: list[int], pieces: int) -> list[list[int]]:
    """``lease`` cut into ``pieces`` near-equal contiguous runs."""
    count = len(lease)
    return [
        lease[k * count // pieces : (k + 1) * count // pieces]
        for k in range(pieces)
    ]


def carve_leases(
    units: Sequence[WorkUnit],
    positions: Sequence[int],
    workers: int,
    lease_size: int | None = None,
) -> list[list[int]]:
    """Cut ``positions`` into lease position-lists.

    Positions are first grouped by pack key
    (:func:`~repro.scenarios.execute.pack_groups`).  An explicit
    ``lease_size`` then packs that order by **unit count** - the
    operator's knob for chaos tests and retry granularity.  Otherwise:

    * each batch group is one lease, cut into near-equal pieces only
      where :data:`MAX_LEASE_UNITS` forces it - every extra piece pays
      the batch kernel's fixed per-cycle cost again (ARCHITECTURE.md,
      "Sweep planning", has the measurements);
    * every other unit is packed by **estimated cost**
      (:func:`unit_cost`): each lease closes at ``total / (4 *
      workers)`` (four waves per worker, amortizing stragglers) or at
      :data:`MAX_LEASE_UNITS` positions.

    Every input position appears in exactly one lease.
    """
    from repro.scenarios.execute import _batchable, pack_groups

    positions = list(positions)
    if not positions:
        return []
    groups = pack_groups(units, positions)
    if lease_size is not None:
        ordered = [position for group in groups for position in group]
        size = max(1, int(lease_size))
        return [
            ordered[start : start + size]
            for start in range(0, len(ordered), size)
        ]

    leases: list[list[int]] = []
    singles: list[int] = []
    for group in groups:
        if _batchable(units[group[0]]):
            leases.extend(_split(group, -(-len(group) // MAX_LEASE_UNITS)))
        else:
            singles.append(group[0])
    target = max(
        sum(unit_cost(units[position]) for position in singles)
        / (max(1, int(workers)) * 4),
        1.0,
    )
    current: list[int] = []
    current_cost = 0.0
    for position in singles:
        cost = unit_cost(units[position])
        if current and (
            len(current) >= MAX_LEASE_UNITS or current_cost + cost > target
        ):
            leases.append(current)
            current, current_cost = [], 0.0
        current.append(position)
        current_cost += cost
    if current:
        leases.append(current)
    return leases
