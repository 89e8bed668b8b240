"""Fleet aggregation: hand whole replication blocks to one batch call.

The batch kernel (:mod:`repro.bus.batch`) vectorises many runs *within*
one call.  This module is the bridge: it groups a list of
:class:`~repro.engine.base.EvalRequest` items into lockstep fleets -
requests sharing the pack fields and measurement window - and executes
each fleet with a single :class:`~repro.bus.batch.BatchBusKernel`
invocation instead of running the requests one by one.

Because fleet rows are fully independent (see the batch-kernel
reproducibility contract), *how* requests are grouped can never change
any request's result: a request executed alone, inside its scenario's
fleet, or inside some other fleet produces identical bytes.  Grouping is therefore
an execution lever exactly like ``--workers`` - with the one twist that the
batch kernel's numbers differ from the exact kernels', which is why
batch results carry their own engine cache token.
"""

from __future__ import annotations

from typing import Sequence

from repro.bus import PACK_FIELDS
from repro.core.results import SimulationResult
from repro.engine.base import EvalRequest


def pack_key(request: EvalRequest) -> tuple:
    """The super-fleet grouping key: pack fields plus the window.

    Shape numbers (``n``, ``m``, ``r``, buffer depth) are per-row
    kernel state, so only the :data:`~repro.bus.PACK_FIELDS` -
    arbitration branch and buffering mode - must match for rows to
    share one padded lockstep program.  So must the measurement window
    (rows of one kernel advance through identical cycle counts),
    latency collection and geometric access times (whole-kernel levers).
    """
    return tuple(
        getattr(request.config, field) for field in PACK_FIELDS
    ) + (
        request.cycles,
        request.warmup,
        request.collects_latency,
        request.geometric_access_times,
    )


def pack_fleets(requests: Sequence[EvalRequest]) -> list[list[int]]:
    """Partition request positions into shape-packed super-fleets.

    Groups are keyed on :func:`pack_key` and ordered by each key's
    first appearance, so the grouping is a deterministic function of
    the request list alone.  A fragmented sweep - many shapes, few
    replications each - lands in one padded batch call per
    arbitration/window combination instead of one tiny fleet
    per shape.  By the packing contract each
    row's bytes are independent of the grouping (proven in
    ``tests/properties/test_fleet_packing.py``), so this is purely a
    wall-clock lever.
    """
    groups: dict[tuple, list[int]] = {}
    for position, request in enumerate(requests):
        groups.setdefault(pack_key(request), []).append(position)
    return list(groups.values())


def run_fleet(requests: Sequence[EvalRequest]) -> list[SimulationResult]:
    """Simulate requests through lockstep batch fleets.

    The batch counterpart of a
    :func:`~repro.parallel.workers.run_case` loop: results come back in
    input order, and each request's result is independent of the
    grouping (rows are independent; property-tested in
    ``tests/properties/test_batch_invariance.py``).  Latency-collecting
    requests run through per-row quantile sketches and come back with
    sketch-based :class:`~repro.metrics.LatencyReport` values attached.
    Requests are grouped by :func:`pack_key`, so shape-heterogeneous
    requests run as padded super-fleets.
    """
    from repro.bus.batch import BatchBusKernel

    requests = list(requests)
    results: dict[int, SimulationResult] = {}
    for positions in pack_fleets(requests):
        configs = []
        seeds = []
        targets = []
        probabilities = []
        for position in positions:
            request = requests[position]
            workload = request.workload
            if workload is not None:
                workload.validate(request.config)
            configs.append(request.config)
            seeds.append(request.seed)
            targets.append(
                workload.build_targets(request.config, request.seed)
                if workload is not None
                else None
            )
            probabilities.append(
                workload.request_probabilities(request.config)
                if workload is not None
                else None
            )
        first = requests[positions[0]]
        kernel = BatchBusKernel(
            configs,
            seeds,
            targets=targets,
            request_probabilities=probabilities,
            collect_latency=first.collects_latency,
            geometric_access_times=first.geometric_access_times,
        )
        fleet_results = kernel.run(first.cycles, warmup=first.warmup)
        for position, result in zip(positions, fleet_results):
            results[position] = result
    return [results[position] for position in range(len(requests))]

