"""Fleet aggregation: hand whole replication blocks to one batch call.

The batch kernel (:mod:`repro.bus.batch`) vectorises many runs *within*
one call.  This module is the bridge: it groups a list of
:class:`~repro.parallel.workers.SimulationCase` items into lockstep
fleets - cases sharing the pack fields and measurement window - and
executes each fleet with a single :class:`~repro.bus.batch.BatchBusKernel`
invocation instead of running the cases one by one.

Because fleet rows are fully independent (see the batch-kernel
reproducibility contract), *how* cases are grouped can never change any
case's result: a case executed alone, inside its scenario's fleet, or
inside some other fleet produces identical bytes.  Grouping is therefore
an execution lever exactly like ``--workers`` - with the one twist that the
batch kernel's numbers differ from the exact kernels', which is why
batch results carry their own engine cache token.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.results import SimulationResult
from repro.parallel.workers import SimulationCase
from repro.des.replications import ReplicationResult, replication_seeds
from repro.workloads.spec import WorkloadSpec


def pack_key(case: SimulationCase) -> tuple:
    """The super-fleet grouping key: pack fields plus the window.

    Shape numbers (``n``, ``m``, ``r``, buffer depth) are per-row
    kernel state, so only the :data:`~repro.bus.batch.PACK_FIELDS` -
    arbitration branch and buffering mode - must match for rows to
    share one padded lockstep program.  So must the measurement window
    (rows of one kernel advance through identical cycle counts),
    ``collect_latency`` (a whole-kernel lever: one sketch pair per
    fleet) and ``backend`` (one kernel instance runs on one array
    substrate, even though every backend produces the same bytes).
    """
    from repro.bus.batch import PACK_FIELDS

    return tuple(
        getattr(case.config, field) for field in PACK_FIELDS
    ) + (
        case.cycles,
        case.warmup,
        case.collect_latency,
        case.backend,
    )


def pack_fleets(cases: Sequence[SimulationCase]) -> list[list[int]]:
    """Partition case positions into shape-packed super-fleets.

    Groups are keyed on :func:`pack_key` and ordered by each key's
    first appearance, so the grouping is a deterministic function of
    the case list alone.  A fragmented sweep - many shapes, few
    replications each - lands in one padded batch call per
    arbitration/window/backend combination instead of one tiny fleet
    per shape.  By the packing contract each
    row's bytes are independent of the grouping (proven in
    ``tests/properties/test_fleet_packing.py``), so this is purely a
    wall-clock lever.
    """
    groups: dict[tuple, list[int]] = {}
    for position, case in enumerate(cases):
        groups.setdefault(pack_key(case), []).append(position)
    return list(groups.values())


def run_fleet(cases: Sequence[SimulationCase]) -> list[SimulationResult]:
    """Execute simulation cases through lockstep batch fleets.

    The batch counterpart of a
    :func:`~repro.parallel.workers.run_case` loop: results come back in
    input order, and each case's result is independent of the grouping
    (rows are independent; property-tested in
    ``tests/properties/test_batch_invariance.py``).  Latency-collecting
    cases run through per-row quantile sketches and come back with
    sketch-based :class:`~repro.metrics.LatencyReport` values attached.
    Cases are grouped by :func:`pack_key`, so shape-heterogeneous cases
    run as padded super-fleets.
    """
    from repro.bus.batch import BatchBusKernel

    cases = list(cases)
    results: dict[int, SimulationResult] = {}
    for positions in pack_fleets(cases):
        configs = []
        seeds = []
        targets = []
        probabilities = []
        for position in positions:
            case = cases[position]
            workload = case.workload
            if workload is not None:
                workload.validate(case.config)
            configs.append(case.config)
            seeds.append(case.seed)
            targets.append(
                workload.build_targets(case.config, case.seed)
                if workload is not None
                else None
            )
            probabilities.append(
                workload.request_probabilities(case.config)
                if workload is not None
                else None
            )
        kernel = BatchBusKernel(
            configs,
            seeds,
            targets=targets,
            request_probabilities=probabilities,
            collect_latency=cases[positions[0]].collect_latency,
            backend=cases[positions[0]].backend,
        )
        fleet_results = kernel.run(
            cases[positions[0]].cycles, warmup=cases[positions[0]].warmup
        )
        for position, result in zip(positions, fleet_results):
            results[position] = result
    return [results[position] for position in range(len(cases))]


def replicate_batch(
    config,
    replications: int,
    base_seed: int = 0,
    cycles: int = 20_000,
    workload: WorkloadSpec | None = None,
    confidence: float = 0.95,
) -> ReplicationResult:
    """Estimate EBW over independent replications with one batch call.

    The fleet-aggregated counterpart of
    :func:`repro.des.replications.replicate` with an
    :class:`~repro.parallel.workers.EbwTask`: the same canonical
    ``base_seed + i`` seed mapping, but the whole replication block
    advances in one lockstep kernel.  Estimates are the batch kernel's
    (reproducible in themselves, statistically equivalent to the exact
    kernels - not bit-identical).
    """
    seeds = replication_seeds(base_seed, replications)
    results = run_fleet(
        [
            SimulationCase(
                config, cycles, seed, workload=workload, kernel="batch"
            )
            for seed in seeds
        ]
    )
    return ReplicationResult(
        estimates=tuple(result.ebw for result in results),
        seeds=seeds,
        confidence=confidence,
    )
