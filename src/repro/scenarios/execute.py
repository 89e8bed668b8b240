"""Execute compiled work units and render mergeable reports.

:func:`run_scenarios` is the one entry point: it compiles a list of
specs into one unit list and executes it once, in this process
(:func:`run_units`) or through the sweep service's coordinator with N
local workers (:class:`repro.service.coordinator.Coordinator`);
:func:`run_scenario` is its one-spec form.  :func:`evaluate_unit`
is the single dispatcher from a
:class:`~repro.scenarios.compiler.WorkUnit` to its metrics;
:func:`run_units` serves repeats from a
:class:`~repro.parallel.cache.ResultCache` keyed on each unit's
content-addressed payload (which covers the workload spec, so hot-spot
and trace results can never collide with uniform entries).

Report format and sharding
--------------------------
:func:`unit_line` renders one unit result as one self-contained line
starting with ``unit <zero-padded index>``.  A sharded run prints only
its own units' lines; because every line carries the unsharded index,
sorting the concatenation of all shards' lines (:func:`merge_reports`)
reproduces the unsharded report byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
from typing import Any, Iterable, Sequence

from repro.core.errors import ConfigurationError, ExperimentError
from repro.engine.base import EvalResult, EvaluationMethod, LittlesLawLatency
from repro.engine.evaluators import get_evaluator
from repro.metrics import LatencyReport
from repro.scenarios.compiler import WorkUnit, compile_specs
from repro.scenarios.spec import ScenarioSpec


@dataclasses.dataclass(frozen=True)
class UnitResult:
    """The measured metrics of one executed work unit."""

    unit: WorkUnit
    ebw: float
    processor_utilization: float
    bus_utilization: float
    cached: bool = False
    latency: LatencyReport | None = None
    """Wait/service/total latency summaries (latency-metric units only)."""
    littles: LittlesLawLatency | None = None
    """Analytic Little's-law means (``mva`` units with the latency
    metric)."""


def evaluate_unit(unit: WorkUnit) -> dict[str, Any]:
    """Evaluate one work unit.

    Looks the unit's method up in the method table
    (:mod:`repro.engine.evaluators`) and returns the evaluation's plain
    JSON-able metrics mapping so the value can be cached verbatim;
    floats round-trip exactly through JSON, so cached and
    freshly-computed runs are byte-identical.  Latency-metric units add
    a ``"latency"`` entry holding the exact (rational-encoded)
    wait/service/total summaries (or, for the ``mva`` method, a
    ``"littles_law"`` entry with the analytic means), which also
    round-trip exactly.
    """
    return get_evaluator(unit.method).evaluate(unit.request()).payload()


def evaluate_fleet(units: Sequence[WorkUnit]) -> list[dict[str, Any]]:
    """Evaluate batch-kernel simulation units as one lockstep fleet.

    The fleet-aggregation fast path of :func:`run_units`: instead of
    one evaluator dispatch per unit, the whole block of units runs
    through a single :func:`repro.parallel.fleet.run_fleet` call.
    Fleet rows are independent, so each unit's payload is byte-identical
    to the payload :func:`evaluate_unit` would produce for it alone
    (property-tested); the aggregation is purely a wall-clock lever.
    """
    from repro.parallel.fleet import run_fleet

    results = run_fleet([unit.request() for unit in units])
    return [
        EvalResult(
            ebw=result.ebw,
            processor_utilization=result.processor_utilization,
            bus_utilization=result.bus_utilization,
            latency=result.latency,
        ).payload()
        for result in results
    ]


def _batchable(unit: WorkUnit) -> bool:
    """Whether a unit can join a lockstep fleet.

    Latency-metric units qualify: the batch kernel collects wait/total
    distributions through per-row quantile sketches, and the pack key
    (:func:`repro.parallel.fleet.pack_key`) separates latency fleets
    from plain ones.
    """
    return (
        unit.method is EvaluationMethod.SIMULATION
        and unit.kernel == "batch"
    )


def pack_groups(
    units: Sequence[WorkUnit],
    positions: Iterable[int] | None = None,
) -> list[list[int]]:
    """Group ``positions`` (default: all) of ``units`` into batch calls.

    Batch-kernel simulation positions sharing a
    :func:`repro.parallel.fleet.pack_key` form one group - one padded
    super-fleet call, so shape-heterogeneous sweeps land in one batch
    call; every other position is its own singleton group.  Groups are
    first-appearance ordered.  This is the one grouping rule of both
    the executor (:func:`run_units`) and the sweep planner
    (:func:`repro.scenarios.plan.carve_leases`), so a lease built from
    whole groups runs as exactly one batch call per group.  Because
    fleet rows are independent, grouping can never change any unit's
    bytes.
    """
    from repro.parallel.fleet import pack_key

    fleets: dict[tuple, list[int]] = {}
    groups: list[list[int]] = []
    for position in range(len(units)) if positions is None else positions:
        unit = units[position]
        if not _batchable(unit):
            groups.append([position])
            continue
        key = pack_key(unit.request())
        if key not in fleets:
            fleets[key] = []
            groups.append(fleets[key])
        fleets[key].append(position)
    return groups


def _expectations(unit: WorkUnit) -> tuple[bool, bool]:
    """Which latency payload flavours this unit's metrics must carry."""
    if not unit.collects_latency:
        return False, False
    if unit.method is EvaluationMethod.SIMULATION:
        return True, False
    return False, True


def result_from_metrics(
    unit: WorkUnit, metrics: Any, cached: bool
) -> UnitResult:
    expect_latency, expect_littles = _expectations(unit)
    try:
        # A cached entry without the latency payload (or with a stale
        # format) is malformed for this unit and triggers a recompute,
        # exactly like a missing ebw would.
        value = EvalResult.from_payload(
            metrics,
            expect_latency=expect_latency,
            expect_littles=expect_littles,
        )
        return UnitResult(
            unit=unit,
            ebw=value.ebw,
            processor_utilization=value.processor_utilization,
            bus_utilization=value.bus_utilization,
            cached=cached,
            latency=value.latency,
            littles=value.littles,
        )
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        raise ExperimentError(
            f"malformed metrics payload for unit {unit.index}: {exc!r}"
        ) from exc


def run_units(units: Sequence[WorkUnit], cache=None) -> list[UnitResult]:
    """Execute ``units`` in order in this process, via the cache when given.

    The in-process executor behind serial runs and every worker lease.
    The returned list preserves input order, and its values are
    independent of cache state, which changes wall-clock time, never
    bytes.  Units whose content-addressed payloads coincide (e.g.
    analytic-method replications, whose keys ignore the seed) are
    computed once and fanned out.  Batch-kernel units run as
    shape-packed super-fleets.  A failed cache write is counted in the
    cache's ``stats.put_errors`` and otherwise ignored.
    """
    from repro.parallel.cache import fingerprint

    units = list(units)
    keys: list[str] = []
    results: dict[int, UnitResult] = {}
    for unit in units:
        keys.append(
            cache.key(unit.payload())
            if cache is not None
            else fingerprint(unit.payload())
        )
    if cache is not None:
        # One batched probe resolves every cached unit up front
        # (repeated keys are probed once), so a warm sweep evaluates
        # nothing.
        cached_values = cache.get_many(keys)
        for position, unit in enumerate(units):
            value = cached_values.get(keys[position])
            if value is not None:
                try:
                    results[position] = result_from_metrics(unit, value, True)
                except ExperimentError:
                    # Malformed entry: recompute below.
                    results.pop(position, None)
    pending = [
        position for position in range(len(units)) if position not in results
    ]
    if pending:
        representatives: list[int] = []
        seen: set[str] = set()
        for position in pending:
            if keys[position] not in seen:
                seen.add(keys[position])
                representatives.append(position)
        # Batch-kernel units aggregate into lockstep fleets (one
        # vectorized call per fleet) while everything else evaluates
        # per unit.
        metrics_by_key: dict[str, Any] = {}
        for group in pack_groups(units, representatives):
            members = [units[position] for position in group]
            payloads = (
                evaluate_fleet(members)
                if _batchable(members[0])
                else [evaluate_unit(members[0])]
            )
            for position, metrics in zip(group, payloads):
                metrics_by_key[keys[position]] = metrics
        for position in pending:
            results[position] = result_from_metrics(
                units[position], metrics_by_key[keys[position]], False
            )
        if cache is not None:
            for position in representatives:
                try:
                    cache.put(keys[position], metrics_by_key[keys[position]])
                except (OSError, ConfigurationError):
                    # A full disk must not block the science run; the
                    # cache counted the failure and run_scenario
                    # reports it once.
                    pass
    return [results[position] for position in range(len(units))]


def run_scenarios(
    specs: Sequence[ScenarioSpec],
    shard: tuple[int, int] | None = None,
    cache=None,
    kernel: str = "fast",
    workers: int | None = None,
    *,
    lease_size: int | None = None,
    deadline: float | None = None,
    chaos_kill_after: int | None = None,
    telemetry: dict | None = None,
) -> list[list[UnitResult]]:
    """Compile ``specs`` into one unit list, execute it once, and
    return each spec's results in spec order.

    One list lets every spec share the cache probe, the plan and the
    workers, and :func:`run_units` computes a unit that two specs
    declare (equal payloads) once.  ``shard`` takes one shard of a
    single spec (:func:`~repro.scenarios.compiler.compile_specs`).

    ``workers=None`` executes in this process (:func:`run_units`);
    ``workers=N`` hands the units to a
    :class:`~repro.service.coordinator.Coordinator` with N
    :class:`~repro.service.transports.LocalWorkers`, which it forks
    only once its plan leases something, sharing ``cache``'s directory
    and version tag.  ``chaos_kill_after`` kills the first worker after
    that many results (the retry drill of tests and CI); ``telemetry``
    is filled with the service's planning counters for CLI reporting.
    Neither choice moves a byte.  A run whose results could not all be
    stored in ``cache`` prints one warning on stderr.

    ``kernel`` selects the simulation tier: ``"fast"`` is exact;
    ``"batch"`` runs lockstep fleets whose bytes are reproducible in
    themselves (across shards, workers and grouping) but deliberately
    different from the exact tier's - never mix batch and exact shards
    of one sweep.
    """
    specs = tuple(specs)
    units = compile_specs(specs, kernel=kernel, shard=shard)
    if workers is None:
        failed = cache.stats.put_errors if cache is not None else 0
        results = run_units(units, cache=cache)
        if cache is not None:
            failed = cache.stats.put_errors - failed
    else:
        from repro.parallel.cache import reset_code_version_tag
        from repro.service.coordinator import DEFAULT_DEADLINE, Coordinator
        from repro.service.transports import LocalWorkers

        if workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {workers}")
        # A coordinator may be long-lived (or embedded in a long-lived
        # process); never let it stamp a version tag memoized before the
        # sources last changed.
        reset_code_version_tag()
        coordinator = Coordinator(
            specs,
            LocalWorkers(workers, exit_after=chaos_kill_after),
            kernel=kernel,
            shard=shard,
            lease_size=lease_size,
            deadline=DEFAULT_DEADLINE if deadline is None else deadline,
            cache_enabled=cache is not None,
            cache_dir=str(cache.cache_dir) if cache is not None else None,
            cache_version=cache.version_tag if cache is not None else None,
            units=units,
        )
        results = coordinator.run()
        failed = coordinator.put_errors
        if telemetry is not None:
            telemetry.update(
                units=len(units),
                dispatched=coordinator.units_dispatched,
                probe_hits=coordinator.probe_hits,
                probe_stats=coordinator.probe_stats,
                leases_issued=coordinator.leases_issued,
                leases_retried=coordinator.leases_retried,
                put_errors=failed,
            )
    if failed:
        print(
            f"warning: {failed} result(s) could not be stored in the "
            f"cache; later runs will compute them again",
            file=sys.stderr,
        )
    sizes = (
        [len(results)]
        if shard is not None
        else [spec.grid_size() * spec.plan.replications for spec in specs]
    )
    remaining = iter(results)
    return [list(itertools.islice(remaining, size)) for size in sizes]


def run_scenario(
    spec: ScenarioSpec,
    shard: tuple[int, int] | None = None,
    cache=None,
    kernel: str = "fast",
    workers: int | None = None,
    **service,
) -> list[UnitResult]:
    """Compile and execute one spec: :func:`run_scenarios` of ``(spec,)``,
    with the same options."""
    return run_scenarios(
        (spec,), shard, cache, kernel, workers, **service
    )[0]


# ----------------------------------------------------------------------
# Report rendering.
# ----------------------------------------------------------------------
def _describe_config(unit: WorkUnit) -> str:
    config = unit.config
    buffering = (
        f"buffered(depth={config.buffer_depth})"
        if config.buffered
        else "unbuffered"
    )
    return (
        f"n={config.processors} m={config.memories} "
        f"r={config.memory_cycle_ratio} p={config.request_probability:g} "
        f"priority={config.priority} {buffering} tie={config.tie_break}"
    )


def _summary_columns(prefix: str, summary) -> str:
    """Fixed-format percentile columns for one latency population."""
    return (
        f"{prefix}_mean={summary.mean:.6f} "
        f"{prefix}_p50={summary.p50_value:.6f} "
        f"{prefix}_p90={summary.p90_value:.6f} "
        f"{prefix}_p99={summary.p99_value:.6f} "
        f"{prefix}_max={summary.max_value:.6f}"
    )


def unit_line(result: UnitResult) -> str:
    """One deterministic, self-contained report line for one unit.

    The leading ``unit <index:06d>`` token gives the line its global
    position, which is the whole sharding contract: shard outputs sorted
    on that token equal the unsharded output.  Latency-metric units
    append the percentile columns (``lat_count`` plus
    mean/p50/p90/p99/max for each of wait/service/total); units without
    metrics render the exact pre-metrics bytes.  Geometric-access units
    add ``access=geometric`` after the workload; constant-access units
    carry no access token.
    """
    unit = result.unit
    workload = unit.workload.describe() if unit.workload is not None else "uniform"
    if unit.geometric_access_times:
        workload += " access=geometric"
    line = (
        f"unit {unit.index:06d} {_describe_config(unit)} "
        f"workload={workload} method={unit.method} seed={unit.seed} "
        f"cycles={unit.cycles} ebw={result.ebw:.6f} "
        f"putil={result.processor_utilization:.6f} "
        f"butil={result.bus_utilization:.6f}"
    )
    if result.latency is not None:
        report = result.latency
        line += (
            f" lat_count={report.total.count} "
            f"{_summary_columns('wait', report.wait)} "
            f"{_summary_columns('serv', report.service)} "
            f"{_summary_columns('lat', report.total)}"
        )
    if result.littles is not None:
        littles = result.littles
        line += (
            f" wait_mean={littles.wait_mean:.6f} "
            f"total_mean={littles.total_mean:.6f} "
            f"qlen_bus={littles.queue_bus:.6f} "
            f"qlen_mem={littles.queue_memory:.6f}"
        )
    return line


def render_report(results: Iterable[UnitResult]) -> str:
    """The unit lines of ``results``, one per line, in input order."""
    return "\n".join(unit_line(result) for result in results)


def _line_index(line: str) -> int:
    parts = line.split()
    if len(parts) < 2 or parts[0] != "unit":
        raise ConfigurationError(f"not a scenario unit line: {line!r}")
    try:
        return int(parts[1])
    except ValueError:
        raise ConfigurationError(
            f"not a scenario unit line: {line!r}"
        ) from None


def merge_reports(reports: Iterable[str]) -> str:
    """Merge shard reports into the canonical unsharded report.

    Accepts each shard's stdout (possibly empty), validates that unit
    indices neither collide nor leave holes
    (:func:`~repro.scenarios.compiler.merge_by_index`), and returns the
    lines sorted by unit index - byte-identical to the unsharded run.
    """
    from repro.scenarios.compiler import merge_by_index

    entries = (
        (_line_index(line), line)
        for report in reports
        for line in report.splitlines()
        if line.strip()
    )
    return "\n".join(merge_by_index(entries, "report line"))
